"""Append-only, checksummed JSONL run journal for campaigns.

The journal persists a campaign as a *stream* of independent cell
results (a round-elimination walk persists through the operator cache
instead, one entry per operator result):

* one line per record, appended with flush + fsync, so a crash or
  ``SIGINT`` loses at most the line being written;
* every line is independently checksummed (``{"body": ..., "checksum":
  sha256(canonical body)}``) — a torn or bit-rotted line is *detected*
  and skipped on load, and because lines are independent, damage to one
  cell record never invalidates the records after it (the damaged cell
  is simply recomputed on resume);
* the file name is keyed by a digest of the campaign configuration
  (cells, runner names, supervision options), so journals from
  different campaigns never intermix and a resume against a changed
  campaign starts a fresh file rather than mis-restoring;
* the first line is a header echoing the campaign key; a header
  mismatch (hash collision, hand-edited file) discards the journal
  loudly rather than trusting it.

Fault injection: the ``journal_torn`` kind
(:mod:`repro.utils.faults`) truncates an appended line mid-write, and
the chaos suite asserts that a resume after such damage still yields
results bit-identical to a clean serial run.
"""

from __future__ import annotations

import json
import logging
import os
from hashlib import sha256
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.exceptions import SupervisorError
from repro.utils import env, faults

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1
ENV_JOURNAL_DIR = "REPRO_JOURNAL_DIR"

#: Record kinds appearing in a journal.
KIND_HEADER = "header"
KIND_CELL = "cell"


def default_journal_dir() -> Optional[Path]:
    """``$REPRO_JOURNAL_DIR`` as a path, or ``None`` when unset."""
    raw = env.get_str(ENV_JOURNAL_DIR)
    return Path(raw) if raw else None


def _checksum(body: Dict[str, Any]) -> str:
    return sha256(
        json.dumps(body, separators=(",", ":"), sort_keys=True).encode("utf-8")
    ).hexdigest()


def _entry_text(body: Dict[str, Any]) -> str:
    """One canonical journal line (checksummed entry + newline).

    Shared by the single-writer journal, the scheduler's per-worker
    shard writers, and the finalizing rewrite — the *same* body always
    serializes to the *same* bytes, which is what makes a merged
    multi-worker journal byte-comparable to a clean serial one.
    """
    entry = {"body": body, "checksum": _checksum(body)}
    return json.dumps(entry, separators=(",", ":"), sort_keys=True) + "\n"


def _parse_records(raw: str, name: str) -> List[Dict[str, Any]]:
    """Every intact record body in ``raw``, in append order.

    Damaged lines (torn writes, bit rot, merged stumps) are skipped with
    a warning; they can only ever cost recomputation.
    """
    bodies: List[Dict[str, Any]] = []
    damaged = 0
    for index, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
            body = entry["body"]
            if entry.get("checksum") != _checksum(body):
                raise ValueError("line checksum mismatch")
            if body.get("schema") != SCHEMA_VERSION:
                raise ValueError(f"unsupported schema {body.get('schema')!r}")
        except (ValueError, KeyError, TypeError) as error:
            damaged += 1
            logger.warning(
                "journal %s: skipping damaged line %d (%s)", name, index, error
            )
            continue
        bodies.append(body)
    if damaged:
        logger.warning(
            "journal %s: %d damaged line(s) skipped; affected cells "
            "will be recomputed",
            name,
            damaged,
        )
    return bodies


def load_cell_records(path: Union[str, os.PathLike]) -> List[Dict[str, Any]]:
    """Every intact *cell* record body in a journal-format file, in
    append order — the shard-merge reader (shards carry no header)."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError:
        return []
    return [
        body
        for body in _parse_records(raw, Path(path).name)
        if body.get("kind") == KIND_CELL and "cell" in body
    ]


class ShardWriter:
    """Append-only cell record writer for one scheduler worker.

    Deliberately *not* a :class:`CampaignJournal`: it takes an explicit
    path and reads no environment, so it is safe to construct inside a
    forked worker process (the parent-scoped ``REPRO_JOURNAL_DIR`` knob
    is resolved once, in the scheduler parent).  Records use the exact
    canonical line format of the main journal, so merging a shard is a
    byte-level copy of its intact lines.
    """

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = Path(path)

    def append_cell(self, payload: Dict[str, Any]) -> None:
        """Append one completed cell record with flush + fsync, so the
        record durably exists *before* the worker reports completion."""
        body = dict(payload)
        body["kind"] = KIND_CELL
        body["schema"] = SCHEMA_VERSION
        text = faults.corrupt_text("journal_torn", _entry_text(body))
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())


class CampaignJournal:
    """One campaign's append-only JSONL journal under a directory."""

    def __init__(
        self,
        campaign_key: Dict[str, Any],
        directory: Optional[Union[str, os.PathLike]] = None,
    ):
        resolved = Path(directory) if directory else default_journal_dir()
        if resolved is None:
            raise SupervisorError(
                f"no journal directory: pass one or set ${ENV_JOURNAL_DIR}"
            )
        self.directory = resolved
        self.directory.mkdir(parents=True, exist_ok=True)
        self.campaign_key = campaign_key
        digest = _checksum({"campaign": campaign_key, "schema": SCHEMA_VERSION})
        self.digest = digest
        self.path = self.directory / f"run-{digest[:40]}.jsonl"

    # -- writing -------------------------------------------------------------
    def _append_line(self, body: Dict[str, Any]) -> None:
        # A torn write truncates the line *and* loses the newline, just
        # like a real mid-write kill; the next append concatenates onto
        # the stump and both lines fail their checksums on load.
        text = faults.corrupt_text("journal_torn", _entry_text(body))
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())

    def ensure_header(self) -> None:
        """Write the header line if the journal file is new/empty."""
        if self.path.exists() and self.path.stat().st_size > 0:
            return
        self._append_line(
            {
                "kind": KIND_HEADER,
                "schema": SCHEMA_VERSION,
                "campaign": self.campaign_key,
            }
        )

    def append_cell(self, payload: Dict[str, Any]) -> None:
        """Append one completed cell record (OK or quarantined)."""
        self.ensure_header()
        body = dict(payload)
        body["kind"] = KIND_CELL
        body["schema"] = SCHEMA_VERSION
        self._append_line(body)

    # -- reading -------------------------------------------------------------
    def load(self) -> List[Dict[str, Any]]:
        """Every intact record body, in append order.

        Damaged lines (torn writes, bit rot, merged stumps) are skipped
        with a warning; they can only ever cost recomputation.  A journal
        whose *header* is intact but names a different campaign raises
        :class:`SupervisorError` — that is caller confusion, not damage.
        """
        try:
            raw = self.path.read_text(encoding="utf-8")
        except OSError:
            return []
        bodies: List[Dict[str, Any]] = []
        for body in _parse_records(raw, self.path.name):
            if body.get("kind") == KIND_HEADER:
                if body.get("campaign") != self.campaign_key:
                    raise SupervisorError(
                        f"journal {self.path} belongs to a different campaign"
                    )
                continue
            bodies.append(body)
        return bodies

    def completed_cells(self) -> Dict[str, Dict[str, Any]]:
        """``cell_id -> record body`` for every intact cell record.

        Later records win (a cell re-run after a damaged journal line
        appends a fresh record rather than rewriting the file).
        """
        completed: Dict[str, Dict[str, Any]] = {}
        for body in self.load():
            if body.get("kind") == KIND_CELL and "cell" in body:
                completed[str(body["cell"])] = body
        return completed

    def delete(self) -> None:
        """Remove the journal file (e.g. after a fully clean campaign)."""
        try:
            self.path.unlink()
        except OSError:
            pass

    # -- scheduler shards ----------------------------------------------------
    def shard_path(self, shard_id: int) -> Path:
        """The per-worker shard file for ``shard_id`` — same directory
        and digest key as the canonical journal, so shards from
        different campaigns never intermix either."""
        return self.directory / f"run-{self.digest[:40]}.shard-{shard_id:03d}.jsonl"

    def shard_paths(self) -> List[Path]:
        """Every existing shard file for this campaign, sorted by name
        (i.e. by shard id) for a deterministic merge order."""
        pattern = f"run-{self.digest[:40]}.shard-*.jsonl"
        return sorted(self.directory.glob(pattern))

    def delete_shards(self) -> None:
        """Remove every shard file (after a merge, or when starting a
        scheduled campaign from scratch)."""
        for path in self.shard_paths():
            try:
                path.unlink()
            except OSError:
                pass

    def rewrite_cells(self, payloads: List[Dict[str, Any]]) -> None:
        """Atomically replace the journal with a header plus ``payloads``
        in the given order.

        The scheduler's finalize step: workers complete cells in a
        timing-dependent order across shards, and this rewrite puts the
        merged records back into canonical campaign order so the final
        file is byte-identical to one written by a clean serial
        :func:`~repro.supervisor.campaign.run_campaign`.  Write-to-temp
        plus ``os.replace`` keeps the journal crash-safe: a kill during
        finalize leaves the old journal (and the shards) intact.
        """
        lines = [
            _entry_text(
                {
                    "kind": KIND_HEADER,
                    "schema": SCHEMA_VERSION,
                    "campaign": self.campaign_key,
                }
            )
        ]
        for payload in payloads:
            body = dict(payload)
            body["kind"] = KIND_CELL
            body["schema"] = SCHEMA_VERSION
            lines.append(_entry_text(body))
        temp = self.path.with_suffix(".tmp")
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write("".join(lines))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self.path)
