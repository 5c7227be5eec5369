"""Per-line and per-file lint suppression comments.

Two forms, mirroring the usual linter idiom:

* ``# repro-lint: disable=REP001`` (or ``disable=REP001,REP005``) on the
  offending line, or alone on the line directly above it, silences those
  codes for that statement;
* ``# repro-lint: disable-file=REP002`` anywhere in a file silences the
  code for the whole file.

Suppressions are the *reviewed* escape hatch: unlike the baseline they
live next to the code, show up in diffs, and should carry a short
justification in the same comment, e.g.::

    for outputs in table.values():  # repro-lint: disable=REP002 -- membership only

Every directive is tracked: :meth:`Suppressions.match` reports which
directive silenced a finding, so ``repro-lint
--report-unused-suppressions`` can list stale directives that no longer
silence anything (the code they guarded got fixed or moved).
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

_LINE_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Z0-9,\s]+)")
_FILE_RE = re.compile(r"#\s*repro-lint:\s*disable-file=([A-Z0-9,\s]+)")


def _comment_lines(source: str) -> Optional[Dict[int, str]]:
    """Map line number -> comment text, via the tokenizer.

    Only genuine ``COMMENT`` tokens count: a directive-shaped string
    *literal* (a lint-test fixture, a docstring quoting the syntax) must
    neither silence findings nor show up as a stale directive.  Returns
    ``None`` when the source does not tokenize (caller falls back to
    line-based scanning so directives keep working in files that REP000
    is about to flag anyway).
    """
    comments: Dict[int, str] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError, SyntaxError, ValueError):
        return None
    return comments

#: Sentinel line number identifying a whole-file directive.
FILE_DIRECTIVE_LINE = 0


def _codes(raw: str) -> Set[str]:
    return {part.strip() for part in raw.split(",") if part.strip()}


class Suppressions:
    """Parsed suppression directives for one source file."""

    def __init__(
        self,
        by_line: Dict[int, FrozenSet[str]],
        whole_file: FrozenSet[str],
        file_directive_lines: Tuple[int, ...] = (),
    ):
        self.by_line = by_line
        self.whole_file = whole_file
        #: Lines carrying ``disable-file`` directives (for staleness reports).
        self.file_directive_lines = file_directive_lines

    @classmethod
    def scan(cls, source: str) -> "Suppressions":
        by_line: Dict[int, FrozenSet[str]] = {}
        whole_file: Set[str] = set()
        file_lines: List[int] = []
        comments = _comment_lines(source)
        if comments is not None:
            candidates = sorted(comments.items())
        else:
            candidates = list(enumerate(source.splitlines(), start=1))
        for lineno, text in candidates:
            match = _FILE_RE.search(text)
            if match:
                whole_file |= _codes(match.group(1))
                file_lines.append(lineno)
                continue
            match = _LINE_RE.search(text)
            if match:
                by_line[lineno] = frozenset(_codes(match.group(1)))
        return cls(by_line, frozenset(whole_file), tuple(file_lines))

    def match(self, code: str, line: int) -> Optional[int]:
        """The directive line that silences ``code`` at ``line``, or
        ``None``.  Whole-file directives report
        :data:`FILE_DIRECTIVE_LINE`; a same-line directive wins over a
        line-above one."""
        if code in self.by_line.get(line, ()):  # on the flagged line
            return line
        # A directive alone on the immediately preceding line also counts
        # (for statements too long to carry a trailing comment).
        if code in self.by_line.get(line - 1, ()):
            return line - 1
        if code in self.whole_file:
            return FILE_DIRECTIVE_LINE
        return None

    def directive_keys(self) -> List[Tuple[int, str]]:
        """Every ``(line, code)`` pair a directive declares, whole-file
        directives under :data:`FILE_DIRECTIVE_LINE`."""
        keys = [
            (line, code)
            for line, codes in self.by_line.items()
            for code in codes
        ]
        keys.extend((FILE_DIRECTIVE_LINE, code) for code in self.whole_file)
        return sorted(keys)

    # -- cache serialization ------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {
            "by_line": {str(line): sorted(codes) for line, codes in self.by_line.items()},
            "whole_file": sorted(self.whole_file),
            "file_directive_lines": list(self.file_directive_lines),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Suppressions":
        return cls(
            {int(line): frozenset(codes) for line, codes in payload["by_line"].items()},
            frozenset(payload["whole_file"]),
            tuple(payload.get("file_directive_lines", ())),
        )
