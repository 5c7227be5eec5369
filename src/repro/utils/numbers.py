"""Number-theoretic helpers: log*, primes, power towers, GF(q) polynomials.

These back two parts of the reproduction:

* ``iterated_log`` / ``tower`` — the complexity landscape is phrased in
  terms of ``log* n``; the failure-bound calculator of Theorem 3.4 needs
  power towers (condition (3.3) involves a tower of height ``2T + 3``).
* primes and :class:`GFPolynomial` — Linial's O(log* n) color reduction
  encodes colors as low-degree polynomials over a finite field GF(q) and
  recolors each node by a point ``(x, p(x))`` on which it differs from all
  neighbors.  Only prime fields are needed.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence


def iterated_log(n: float, base: float = 2.0) -> int:
    """log*(n): how many times ``log`` must be applied before the value <= 1.

    >>> [iterated_log(x) for x in (1, 2, 4, 16, 65536)]
    [0, 1, 2, 3, 4]
    """
    if n <= 1:
        return 0
    count = 0
    value = float(n)
    while value > 1:
        value = math.log(value, base)
        count += 1
    return count


def tower(height: int, top: float = 2.0, base: float = 2.0) -> float:
    """A power tower ``base^base^...^top`` of the given height.

    ``tower(0, t) == t``.  Returns ``math.inf`` on overflow, which is the
    honest answer for the n0 bounds of Theorem 3.10.
    """
    if height < 0:
        raise ValueError("tower height must be non-negative")
    value = float(top)
    for _ in range(height):
        try:
            value = base**value
        except OverflowError:
            return math.inf
        if value == math.inf:
            return math.inf
    return value


@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Deterministic primality test (trial division; inputs here are small).

    Memoized with a bounded cache: :class:`GFPolynomial` checks its modulus
    on every construction, and Linial's recoloring builds a polynomial per
    node and neighbor over a handful of fields.
    """
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def next_prime(n: int) -> int:
    """The smallest prime >= n."""
    candidate = max(2, n)
    while not is_prime(candidate):
        candidate += 1
    return candidate


class GFPolynomial:
    """A polynomial over the prime field GF(q), evaluated by Horner's rule.

    Coefficients are given lowest-degree first, reduced mod q.  Both the
    constructor and :meth:`from_integer` reject a non-prime ``q`` through
    :func:`is_prime`, whose memo makes that check run once per field rather
    than once per polynomial.
    """

    __slots__ = ("q", "coefficients")

    def __init__(self, q: int, coefficients: Sequence[int]):
        if not is_prime(q):
            raise ValueError(f"GF({q}) requires a prime modulus")
        self.q = q
        self.coefficients = tuple(c % q for c in coefficients)

    @classmethod
    def from_integer(cls, q: int, value: int, degree: int) -> "GFPolynomial":
        """Encode ``value`` in base q as a polynomial of the given degree.

        Distinct values in ``range(q ** (degree + 1))`` map to distinct
        polynomials, which is exactly the injectivity Linial's recoloring
        needs.
        """
        if value < 0:
            raise ValueError("value must be non-negative")
        if value >= q ** (degree + 1):
            raise ValueError(
                f"value {value} does not fit in degree-{degree} polynomial over GF({q})"
            )
        if not is_prime(q):
            raise ValueError(f"GF({q}) requires a prime modulus")
        coefficients = []
        for _ in range(degree + 1):
            coefficients.append(value % q)
            value //= q
        # Base-q digits are already reduced, so the constructor's checks
        # and reduction would only repeat the work above.
        polynomial = cls.__new__(cls)
        polynomial.q = q
        polynomial.coefficients = tuple(coefficients)
        return polynomial

    def __call__(self, x: int) -> int:
        result = 0
        for c in reversed(self.coefficients):
            result = (result * x + c) % self.q
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GFPolynomial):
            return NotImplemented
        return self.q == other.q and self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash((self.q, self.coefficients))

    def __repr__(self) -> str:
        return f"GFPolynomial(q={self.q}, coefficients={self.coefficients})"
