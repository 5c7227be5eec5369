"""Incremental per-file lint cache.

One JSON record per linted file, keyed by the sha256 of the file's raw
bytes plus a global *salt*.  A record stores exactly the per-file,
context-free products of analysis:

* the raw (pre-suppression, pre-baseline) per-file rule findings;
* the :class:`~repro.analysis.summaries.FileFacts` bundle (function
  records, import-edge candidates, module globals);
* the source text (needed to rebuild report snippets without
  re-reading at a racy later moment);
* the file's suppression directives, so a warm hit never re-tokenizes
  the source to find them.

On a warm hit the driver skips ``ast.parse``, the tokenizer, and every
per-file rule entirely — that is where the whole-repo speedup comes
from.  Everything cross-file (import and call reachability, taint
propagation) is recomputed from the cached facts on every run, so
invalidation is transitively sound *by construction*: there is nothing
stale to invalidate.

The salt folds in:

* :data:`ANALYSIS_VERSION` — bumped whenever extraction or rule logic
  changes shape;
* the active rule codes (a ``--select``/``--disable`` run must not
  poison the default run's cache, and vice versa);
* the env-knob registry digest (REP006 findings and parent-scope
  classifications depend on it).

Corrupt or mismatched records are treated as misses, never as errors —
the cache can always be deleted with ``rm -r``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.analysis.core import Finding
from repro.analysis.summaries import FileFacts
from repro.analysis.suppressions import Suppressions

#: Bump on any change to extraction logic, dep encoding, or per-file
#: rule behavior: every cached record becomes a miss.
ANALYSIS_VERSION = 6

#: Record format sanity marker (v2: records carry suppressions).
_FORMAT = "repro-lint-cache-v2"


def _env_registry_digest() -> str:
    """Digest of the declared env-knob registry (name, default, scope):
    editing ``repro/utils/env.py`` must invalidate cached findings."""
    try:
        from repro.utils.env import REGISTRY
    except Exception:  # pragma: no cover - env module always importable
        return "no-registry"
    rows = [
        (knob.name, repr(knob.default), getattr(knob, "scope", "any"))
        for knob in REGISTRY.values()
    ]
    payload = json.dumps(sorted(rows), separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def compute_salt(active_codes: Sequence[str]) -> str:
    payload = json.dumps(
        {
            "version": ANALYSIS_VERSION,
            "codes": sorted(active_codes),
            "env": _env_registry_digest(),
        },
        separators=(",", ":"),
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class CachedFile:
    """A warm-cache replay of one file's per-file analysis."""

    findings: List[Finding]
    facts: FileFacts
    source: str
    suppressions: Suppressions


class LintCache:
    """Content-addressed per-file store under ``<dir>/<rel-path-hash>.json``."""

    def __init__(self, directory: Path, salt: str):
        self.directory = directory
        self.salt = salt

    # -- construction -------------------------------------------------------
    @classmethod
    def open(
        cls,
        active_codes: Sequence[str],
        enabled: Optional[bool] = None,
        directory: Optional[Union[str, Path]] = None,
        root: Optional[Path] = None,
    ) -> Optional["LintCache"]:
        """The configured cache, or ``None`` when disabled.  Defaults
        come from the ``REPRO_LINT_CACHE`` / ``REPRO_LINT_CACHE_DIR``
        knobs; explicit arguments win.  A *relative* cache directory is
        anchored at ``root`` (the lint root), so linting a checkout keeps
        its cache inside that checkout."""
        from repro.utils import env as env_knobs

        if enabled is None:
            enabled = env_knobs.get_bool("REPRO_LINT_CACHE")
        if not enabled:
            return None
        if directory is None:
            directory = env_knobs.get_str("REPRO_LINT_CACHE_DIR")
        path = Path(directory).expanduser()
        if not path.is_absolute() and root is not None:
            path = Path(root) / path
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError:
            return None  # unwritable cache dir -> run uncached
        return cls(path, compute_salt(active_codes))

    # -- keys ---------------------------------------------------------------
    def _record_path(self, rel_path: str) -> Path:
        name = hashlib.sha256(rel_path.encode("utf-8")).hexdigest()[:24]
        return self.directory / f"{name}.json"

    @staticmethod
    def content_hash(raw: bytes) -> str:
        return hashlib.sha256(raw).hexdigest()

    # -- lookup / store -----------------------------------------------------
    def lookup(self, rel_path: str, raw: bytes) -> Optional[CachedFile]:
        record_path = self._record_path(rel_path)
        try:
            payload = json.loads(record_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != _FORMAT
            or payload.get("salt") != self.salt
            or payload.get("rel_path") != rel_path
            or payload.get("content_sha256") != self.content_hash(raw)
        ):
            return None
        try:
            findings = [Finding.from_cache_dict(f) for f in payload["findings"]]
            facts = FileFacts.from_dict(payload["facts"])
            source = payload["source"]
            suppressions = Suppressions.from_dict(payload["suppressions"])
        except (AttributeError, KeyError, TypeError, ValueError):
            return None
        return CachedFile(findings, facts, source, suppressions)

    def store(
        self,
        rel_path: str,
        raw: bytes,
        findings: Sequence[Finding],
        facts: FileFacts,
        source: str,
        suppressions: Suppressions,
    ) -> None:
        payload = {
            "format": _FORMAT,
            "salt": self.salt,
            "rel_path": rel_path,
            "content_sha256": self.content_hash(raw),
            "findings": [f.cache_dict() for f in findings],
            "facts": facts.as_dict(),
            "source": source,
            "suppressions": suppressions.as_dict(),
        }
        record_path = self._record_path(rel_path)
        tmp = record_path.with_suffix(f".tmp.{os.getpid()}")
        try:
            tmp.write_text(
                json.dumps(payload, separators=(",", ":"), sort_keys=True),
                encoding="utf-8",
            )
            os.replace(tmp, record_path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass

    # -- maintenance --------------------------------------------------------
    def clear(self) -> int:
        """Delete every record; returns how many were removed."""
        removed = 0
        for record in self.directory.glob("*.json"):
            try:
                record.unlink()
                removed += 1
            except OSError:
                pass
        return removed
