"""Round elimination: R, R̄, problem sequences, 0-round solving, lifting,
failure-probability bounds, and the Theorem 3.10/3.11 gap pipeline.

The operators are memoized through a canonical-hash cache — see
:mod:`repro.roundelim.canonical`, :mod:`repro.utils.cache`, and the
``REPRO_CACHE`` / ``REPRO_CACHE_DIR`` environment knobs documented in
:mod:`repro.roundelim.ops`.  ``stats()`` / ``reset_stats()`` /
``format_stats()`` expose the engine counters.
"""

from repro.roundelim.canonical import (
    canonical_encoding,
    canonical_form,
    canonical_hash,
    canonical_order,
    canonically_equal,
)
from repro.roundelim.ops import (
    R,
    R_bar,
    configure_bitset,
    merge_equivalent_labels,
    remove_dominated_labels,
    restrict_to_usable,
    simplify,
)
from repro.utils.cache import format_stats, reset_stats, stats
from repro.roundelim.sequence import ProblemSequence
from repro.roundelim.zero_round import (
    ZeroRoundAlgorithm,
    decide_zero_round,
    find_zero_round_algorithm,
)
from repro.roundelim.lift import lift_once, lift_to_local_algorithm
from repro.roundelim.failure_bounds import (
    FailureBoundParameters,
    failure_after_step,
    failure_after_steps,
    n0_conditions,
    theorem_3_4_S,
)
from repro.roundelim.gap import GapResult, speedup

__all__ = [
    "R",
    "R_bar",
    "canonical_encoding",
    "canonical_form",
    "canonical_hash",
    "canonical_order",
    "canonically_equal",
    "configure_bitset",
    "format_stats",
    "reset_stats",
    "stats",
    "restrict_to_usable",
    "merge_equivalent_labels",
    "remove_dominated_labels",
    "simplify",
    "ProblemSequence",
    "ZeroRoundAlgorithm",
    "decide_zero_round",
    "find_zero_round_algorithm",
    "lift_once",
    "lift_to_local_algorithm",
    "FailureBoundParameters",
    "theorem_3_4_S",
    "failure_after_step",
    "failure_after_steps",
    "n0_conditions",
    "GapResult",
    "speedup",
]
