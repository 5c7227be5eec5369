"""Memoization store and instrumentation for the round-elimination engine.

The ``R`` / ``R̄`` operators and the ``simplify`` hygiene pass are pure
functions of their input problem (Definitions 3.1 / 3.2 quantify over
fixed finite sets; every loop in :mod:`repro.roundelim.ops` iterates in a
deterministic canonical order), so their results can be cached keyed by
*what the problem is* rather than *how its labels are spelled*:

    key = (operator, canonical_hash(problem), flags)

with the canonical hash of :mod:`repro.roundelim.canonical` and ``flags``
encoding the operator options (``max_universe``, ``universe_mode``,
``domination``).  Values are the spelling-independent payloads of
:func:`repro.roundelim.canonical.encode_result`, decoded on every hit
against the concrete query problem — a hit for an isomorphic-but-renamed
problem yields the correctly relabeled result.

Layers
------
* an in-memory LRU (default :data:`DEFAULT_MEMORY_ENTRIES` entries),
* an optional on-disk store: one JSON file per entry under
  ``$REPRO_CACHE_DIR`` (or ``~/.cache/repro`` when enabled
  programmatically), written atomically via ``os.replace``.  Corrupt or
  mismatched files are deleted and counted as misses — a poisoned cache
  degrades to recomputation, never to a crash or a wrong result.

Environment knobs
-----------------
``REPRO_CACHE=0``            disable caching entirely (compute everything).
``REPRO_CACHE_DIR=…``        enable the on-disk layer at the given directory.
``REPRO_CACHE_MAX_BYTES=…``  bound the on-disk layer; least-recently-used
entries (by file mtime) are evicted once the total size exceeds the
bound, and evictions are counted in ``stats()["cache"]["disk_evictions"]``.

Instrumentation
---------------
Per-operator counters (cache hits/misses, kernel executions,
configurations tested, wall time) accumulate process-wide regardless of
whether caching is enabled; read them with :func:`stats`, render them
with :func:`format_stats`, reset with :func:`reset_stats`.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from collections import OrderedDict
from hashlib import sha256
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.utils import env, faults

logger = logging.getLogger(__name__)

DEFAULT_MEMORY_ENTRIES = 1024

#: Counter fields tracked per operator.
STAT_FIELDS = (
    "hits",
    "misses",
    "computes",
    "stores",
    "disk_hits",
    "disk_errors",
    "decode_errors",
    "configurations_tested",
    "wall_time",
    # Maintained by the compiled bitset backend dispatch (REPRO_BITSET):
    # steps served by the numpy kernels vs. declined-to-oracle fallbacks.
    "bitset_steps",
    "bitset_fallbacks",
    # Maintained by the SAT decision-kernel dispatch (REPRO_SAT): decisions
    # served by the CNF engine vs. declined-to-enumeration fallbacks.
    "sat_steps",
    "sat_fallbacks",
)

_ENV_DISABLE = "REPRO_CACHE"
_ENV_DISK_DIR = "REPRO_CACHE_DIR"
_ENV_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"

_lock = threading.Lock()
_stats: Dict[str, Dict[str, float]] = {}


def _new_counters() -> Dict[str, float]:
    counters: Dict[str, float] = {field: 0 for field in STAT_FIELDS}
    counters["wall_time"] = 0.0
    return counters


def record(operator: str, **increments: float) -> None:
    """Add to the named operator's counters (unknown fields rejected)."""
    with _lock:
        counters = _stats.setdefault(operator, _new_counters())
        for field, amount in increments.items():
            if field not in counters:
                raise KeyError(f"unknown stat field {field!r}")
            counters[field] += amount


def reset_stats() -> None:
    """Zero all per-operator counters."""
    with _lock:
        _stats.clear()


def stats() -> Dict[str, Any]:
    """A snapshot: per-operator counters plus cache configuration."""
    with _lock:
        operators = {name: dict(counters) for name, counters in _stats.items()}
    cache = get_cache()
    return {
        "operators": operators,
        "cache": {
            "enabled": cache.enabled,
            "memory_entries": len(cache),
            "memory_capacity": cache.memory_entries,
            "disk_dir": str(cache.disk_dir) if cache.disk_dir else None,
            "max_disk_bytes": cache.max_disk_bytes,
            "disk_evictions": cache.disk_evictions,
        },
    }


def hit_rate(operator: Optional[str] = None) -> Optional[float]:
    """``hits / (hits + misses)`` for one operator (or all combined);
    ``None`` when no cached operator ran at all."""
    snapshot = stats()["operators"]
    if operator is not None:
        snapshot = {operator: snapshot.get(operator, _new_counters())}
    hits = sum(c["hits"] for c in snapshot.values())
    misses = sum(c["misses"] for c in snapshot.values())
    total = hits + misses
    return None if total == 0 else hits / total


def format_stats() -> str:
    """Human-readable counter table (used by the CLI and benchmarks)."""
    snapshot = stats()
    lines = []
    cache_info = snapshot["cache"]
    state = "enabled" if cache_info["enabled"] else "disabled"
    disk = cache_info["disk_dir"] or "off"
    lines.append(
        f"cache: {state}  entries={cache_info['memory_entries']}"
        f"/{cache_info['memory_capacity']}  disk={disk}"
    )
    if cache_info["max_disk_bytes"] is not None:
        lines.append(
            f"  disk budget: {cache_info['max_disk_bytes']} bytes, "
            f"{cache_info['disk_evictions']} evictions"
        )
    header = (
        f"  {'operator':<10} {'hits':>6} {'misses':>7} {'computes':>9} "
        f"{'configs':>9} {'wall[s]':>8}"
    )
    lines.append(header)
    for name in sorted(snapshot["operators"]):
        c = snapshot["operators"][name]
        lines.append(
            f"  {name:<10} {int(c['hits']):>6} {int(c['misses']):>7} "
            f"{int(c['computes']):>9} {int(c['configurations_tested']):>9} "
            f"{c['wall_time']:>8.3f}"
        )
        robustness = {
            field: int(c[field])
            for field in ("bitset_fallbacks", "sat_fallbacks")
            if c.get(field)
        }
        if robustness:
            detail = " ".join(f"{k}={v}" for k, v in robustness.items())
            lines.append(f"  {'':<10} !! {detail}")
        engines = {
            field: int(c[field])
            for field in ("bitset_steps", "sat_steps")
            if c.get(field)
        }
        if engines:
            detail = " ".join(f"{k}={v}" for k, v in engines.items())
            lines.append(f"  {'':<10} engine: {detail}")
    rate = hit_rate()
    lines.append(
        "  overall hit rate: "
        + ("n/a" if rate is None else f"{rate:.1%}")
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------- store
class RoundElimCache:
    """LRU payload store with an optional on-disk JSON layer.

    Keys are ``(operator, canonical_hash, flags)`` string triples; values
    are JSON-able payload dicts.  The store never interprets payloads —
    decoding (and its failure handling) belongs to the caller.
    """

    def __init__(
        self,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
        disk_dir: Optional[os.PathLike] = None,
        enabled: bool = True,
        max_disk_bytes: Optional[int] = None,
    ):
        self.memory_entries = max(1, int(memory_entries))
        self.disk_dir = Path(disk_dir) if disk_dir else None
        self.enabled = enabled
        self.max_disk_bytes = (
            max(0, int(max_disk_bytes)) if max_disk_bytes is not None else None
        )
        #: Disk entries removed to honor ``max_disk_bytes`` (process-lifetime).
        self.disk_evictions = 0
        self._memory: "OrderedDict[Tuple[str, str, str], dict]" = OrderedDict()
        self._lock = threading.Lock()
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)

    def __len__(self) -> int:
        return len(self._memory)

    # -- keys ---------------------------------------------------------------
    @staticmethod
    def _disk_name(key: Tuple[str, str, str]) -> str:
        operator, problem_hash, flags = key
        digest = sha256(f"{operator}\x00{problem_hash}\x00{flags}".encode()).hexdigest()
        return f"{operator}-{digest[:40]}.json"

    def _disk_path(self, key: Tuple[str, str, str]) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        return self.disk_dir / self._disk_name(key)

    # -- operations ---------------------------------------------------------
    def get(self, key: Tuple[str, str, str], stat_key: Optional[str] = None) -> Optional[dict]:
        """Look up a payload; promotes disk hits into memory.

        Any disk-layer failure (unreadable JSON, key mismatch from a
        digest collision, truncated file) deletes the offending file,
        bumps ``disk_errors``, and reads as a miss.
        """
        with self._lock:
            payload = self._memory.get(key)
            if payload is not None:
                self._memory.move_to_end(key)
                return payload
        path = self._disk_path(key)
        if path is None:
            return None
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return None
        raw = faults.corrupt_text("cache_corrupt", raw)
        try:
            entry = json.loads(raw)
            if entry.get("key") != list(key):
                raise ValueError("cache entry key mismatch")
            payload = entry["payload"]
            if not isinstance(payload, dict):
                raise ValueError("cache payload is not an object")
        except (ValueError, KeyError, TypeError):
            logger.warning(
                "corrupt cache entry %s: deleting and recomputing", path.name
            )
            if stat_key:
                record(stat_key, disk_errors=1)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        if stat_key:
            record(stat_key, disk_hits=1)
        with self._lock:
            self._memory[key] = payload
            self._memory.move_to_end(key)
            self._evict_locked()
        return payload

    def put(self, key: Tuple[str, str, str], payload: dict) -> None:
        with self._lock:
            self._memory[key] = payload
            self._memory.move_to_end(key)
            self._evict_locked()
        path = self._disk_path(key)
        if path is None:
            return
        entry = {"key": list(key), "payload": payload}
        try:
            text = json.dumps(entry, separators=(",", ":"), sort_keys=True)
            tmp = path.with_name(path.name + f".tmp{os.getpid()}")
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, path)
        except (OSError, TypeError, ValueError):
            # Disk persistence is best-effort; memory already holds the entry.
            try:
                tmp.unlink()
            except (OSError, UnboundLocalError):
                pass
        else:
            self._enforce_disk_budget(keep=path.name)

    def _enforce_disk_budget(self, keep: Optional[str] = None) -> None:
        """Evict least-recently-used disk entries (by mtime) until the
        layer fits in ``max_disk_bytes``.  The just-written entry
        (``keep``) is evicted only if it alone exceeds the whole budget."""
        if self.max_disk_bytes is None or self.disk_dir is None:
            return
        try:
            entries = []
            total = 0
            for path in self.disk_dir.glob("*.json"):
                stat = path.stat()
                entries.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
        except OSError:
            return
        if total <= self.max_disk_bytes:
            return
        entries.sort()
        for _, size, path in entries:
            if total <= self.max_disk_bytes:
                break
            if keep is not None and path.name == keep and len(entries) > 1:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            self.disk_evictions += 1
            logger.info("evicted cache entry %s (%d bytes) for disk budget", path.name, size)

    def invalidate(self, key: Tuple[str, str, str]) -> None:
        with self._lock:
            self._memory.pop(key, None)
        path = self._disk_path(key)
        if path is not None:
            try:
                path.unlink()
            except OSError:
                pass

    def clear(self, disk: bool = False) -> None:
        """Drop all memory entries (and, optionally, the disk files)."""
        with self._lock:
            self._memory.clear()
        if disk and self.disk_dir is not None:
            for path in self.disk_dir.glob("*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass

    def _evict_locked(self) -> None:
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)


# ----------------------------------------------------------------- global API
_cache: Optional[RoundElimCache] = None
_UNSET = object()


def _build_from_env() -> RoundElimCache:
    enabled = env.get_bool(_ENV_DISABLE)
    disk_dir = env.get_str(_ENV_DISK_DIR)
    max_disk_bytes = env.get_int(_ENV_MAX_BYTES)
    return RoundElimCache(
        disk_dir=disk_dir, enabled=enabled, max_disk_bytes=max_disk_bytes
    )


def get_cache() -> RoundElimCache:
    """The process-wide operator cache (built lazily from the environment)."""
    global _cache
    if _cache is None:
        _cache = _build_from_env()
    return _cache


def configure(
    enabled: Optional[bool] = None,
    memory_entries: Optional[int] = None,
    disk_dir: Any = _UNSET,
    max_disk_bytes: Any = _UNSET,
) -> RoundElimCache:
    """Reconfigure the global cache in place; omitted arguments keep
    their current values.  ``disk_dir=None`` turns the disk layer off;
    ``disk_dir=True`` selects ``~/.cache/repro``; ``max_disk_bytes=None``
    removes the disk-size bound."""
    global _cache
    current = get_cache()
    if disk_dir is _UNSET:
        new_disk = current.disk_dir
    elif disk_dir is True:
        new_disk = Path.home() / ".cache" / "repro"
    else:
        new_disk = Path(disk_dir) if disk_dir else None
    _cache = RoundElimCache(
        memory_entries=(
            current.memory_entries if memory_entries is None else memory_entries
        ),
        disk_dir=new_disk,
        enabled=current.enabled if enabled is None else enabled,
        max_disk_bytes=(
            current.max_disk_bytes if max_disk_bytes is _UNSET else max_disk_bytes
        ),
    )
    return _cache


def reset() -> None:
    """Forget the global cache so the next call rebuilds from the
    environment (used by tests that monkeypatch ``REPRO_*`` variables)."""
    global _cache
    _cache = None
