"""The ``Certificate`` artifact: a serializable, checksummed verdict proof.

A certificate packages one gap-pipeline verdict together with enough
machine-checkable evidence that an independent checker
(:mod:`repro.verify.check` — which deliberately never imports the
round-elimination engine) can re-establish the verdict's claims:

``kind == "constant"``
    The full synthesized-algorithm description (the hygiene-reduced
    problem chain ``Π_0 .. Π_k``, the ``R(Π_j)`` intermediates the
    Lemma 3.9 lifting selects pairs from, and the 0-round ``A_det``
    table), plus a replayable transcript: a seeded family of random
    forests with explicit inputs, identifiers, and the per-half-edge
    outputs the algorithm produced.  The checker re-validates the table
    against the clique-cover conditions and re-runs
    :func:`repro.lcl.checker.check_solution` on every trial.

``kind == "fixed-point"``
    The fixed-point problem ``Π_k``, its successor ``f(Π_k)`` (checked
    isomorphic with :meth:`NodeEdgeCheckableLCL.is_isomorphic` — pure
    LCL machinery), and a 0-round *refutation witness* for every step of
    the walk: per maximal self-looped clique, an input tuple that the
    clique provably cannot cover (brute-force exhaustion).

``kind == "unknown"``
    The verified sequence prefix: for every step the walk completed
    before its budget tripped, the problem at that step plus its 0-round
    refutation witness — the machine-checkable content of the anytime
    verdict ``UNKNOWN(>= step k)``.

Like campaign journal lines, the JSON rendering is versioned and
whole-file checksummed, so truncation, bit-rot, and
tampering are all *detected* — a damaged certificate fails its check, it
never silently passes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Any, Dict

from repro.exceptions import CertificateError
from repro.lcl.codec import decode_problem
from repro.lcl.nec import NodeEdgeCheckableLCL

#: Bump on any incompatible change to the certificate body layout.
SCHEMA_VERSION = 1

#: The three certificate kinds, matching ``GapResult.status``.
KINDS = ("constant", "fixed-point", "unknown")


def _canonical_json(payload: Any) -> str:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def body_checksum(body: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON rendering of the body."""
    return sha256(_canonical_json(body).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Certificate:
    """An immutable, JSON-native certificate body.

    The body holds only JSON-representable values (the constructor
    normalizes via a JSON round trip), so ``to_json``/``from_json`` are
    bit-identical inverses: serializing a certificate, parsing it back,
    and serializing again yields the same byte string.
    """

    body: Dict[str, Any]

    def __post_init__(self) -> None:
        normalized = json.loads(_canonical_json(self.body))
        object.__setattr__(self, "body", normalized)

    # -------------------------------------------------------------- accessors
    @property
    def kind(self) -> str:
        """``"constant"`` / ``"fixed-point"`` / ``"unknown"``."""
        return self.body.get("kind", "?")

    @property
    def verdict(self) -> str:
        """The human-readable verdict label the certificate backs."""
        return self.body.get("verdict", self.kind)

    def problem(self) -> NodeEdgeCheckableLCL:
        """The certified problem, rebuilt bit-identically."""
        return decode_problem(self.body["problem"])

    def summary(self) -> str:
        lines = [
            f"certificate for {self.body.get('problem', {}).get('name', '?')!r}: "
            f"{self.verdict}"
        ]
        if self.kind == "constant":
            transcript = self.body.get("transcript", {})
            lines.append(
                f"  {self.body.get('rounds')}-round algorithm, "
                f"{len(transcript.get('trials', []))} replayable trial(s)"
            )
        elif self.kind == "fixed-point":
            lines.append(
                f"  RE fixed point at step {self.body.get('fixed_point_at')}, "
                f"{len(self.body.get('refutations', []))} step refutation(s)"
            )
        else:
            lines.append(
                f"  verified prefix: {len(self.body.get('prefix', []))} step(s) "
                f"proved not 0-round solvable"
            )
        return "\n".join(lines)

    # ---------------------------------------------------------- serialization
    def to_json(self) -> str:
        """The canonical JSON envelope ``{"body": ..., "checksum": ...}``."""
        return _canonical_json({"body": self.body, "checksum": body_checksum(self.body)})

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        """Parse an envelope; raises :class:`CertificateError` when the
        JSON is unreadable, the checksum fails, or the schema is foreign.

        (The independent checker re-verifies all of this itself and
        *reports* rather than raises; this constructor is for cooperating
        callers that want a typed error.)
        """
        try:
            envelope = json.loads(text)
            body = envelope["body"]
            recorded = envelope["checksum"]
        except (ValueError, KeyError, TypeError) as error:
            raise CertificateError(f"unreadable certificate envelope: {error}") from error
        if not isinstance(body, dict):
            raise CertificateError("certificate body must be an object")
        if body_checksum(body) != recorded:
            raise CertificateError("certificate checksum mismatch (file damaged?)")
        if body.get("schema") != SCHEMA_VERSION:
            raise CertificateError(
                f"unsupported certificate schema {body.get('schema')!r}"
            )
        if body.get("kind") not in KINDS:
            raise CertificateError(f"unknown certificate kind {body.get('kind')!r}")
        return cls(body)

    def save(self, path: os.PathLike) -> Path:
        """Write the envelope atomically (tmp file + ``os.replace``)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(target.name + f".tmp{os.getpid()}")
        tmp.write_text(self.to_json() + "\n", encoding="utf-8")
        os.replace(tmp, target)
        return target

    @classmethod
    def load(cls, path: os.PathLike) -> "Certificate":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as error:
            raise CertificateError(f"cannot read certificate {path}: {error}") from error
        return cls.from_json(text)
