"""Seeded Monte Carlo experiments; `serialize` writes their reports."""
from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from .circuit import (
    ArityError,
    ContractError,
    InvariantViolationError,
    Rational,
    ResourceCapError,
    TruthTable,
    exact,
)

AGREEMENT_ARITY_CAP = 16


def parity_table(n: int) -> TruthTable:
    """Parity of all n bits in the +-1 convention (odd count of -1 bits -> -1)."""
    if n < 0:
        raise ArityError("negative arity")
    bits = 0
    for idx in range(1 << n):
        if idx.bit_count() & 1:
            bits |= 1 << idx
    return TruthTable(n, bits)


class AgreementProbe(NamedTuple):
    """What `random_agreement_probe` measured, with the inputs it ran on (a
    named tuple: a frozen dataclass costs 0.7 ms more at every import)."""

    n: int
    epsilon: Fraction
    trials: int
    seed: int
    reference: str
    min_agreement_count: int
    hits: int
    empirical: float
    chernoff_bound: float
    exact_tail: float
    three_standard_errors: float


def random_agreement_probe(
    reference: TruthTable,
    epsilon: Rational,
    trials: int,
    seed: int,
    reference_name: str = "custom",
    cap: int | None = None,
) -> AgreementProbe:
    """How often a uniform random function agrees with `reference` on at
    least a 1/2 + epsilon fraction of points, against the analytic bound
    exp(-2^(n+1) epsilon^2).

    The agreement of a uniform random function is Bin(2^n, 1/2), whatever the
    reference, so its exact tail P[agreement >= min_agreement_count] is a sum of
    binomial coefficients over 2^(2^n).  Hoeffding's inequality puts that tail
    below the bound for epsilon >= 0, so only a tail above it raises
    InvariantViolationError; the hit frequency is a chance event and never
    does.  The result carries every measured quantity, and the tail as the
    correctly rounded ``exact_tail``.
    """
    n = reference.arity
    limit = AGREEMENT_ARITY_CAP if cap is None else cap
    if n > limit:
        raise ResourceCapError(f"arity {n} exceeds the agreement probe cap {limit}")
    if trials < 1:
        raise ContractError("need at least one trial")
    eps = exact(epsilon)
    if eps < 0:
        raise ContractError(f"epsilon {eps} is negative; the bound needs epsilon >= 0")
    n_points = 1 << n
    threshold = (Fraction(1, 2) + eps) * n_points
    min_count = -((-threshold.numerator) // threshold.denominator)
    # exp(-746) rounds to 0.0, and a larger exponent can overflow the floats
    if 2 ** (n + 1) * eps * eps > 746:
        bound = 0.0
    else:
        bound = math.exp(-float(2 ** (n + 1)) * float(eps) ** 2)
    tail = float(_binomial_tail(n_points, min_count))
    # the float bound is within a relative 1e-12 of the true value while it is
    # normal (its exponent, below 746 in magnitude, is rounded three times),
    # and within the smallest subnormal once it underflows
    if tail > bound * (1 + 1e-12) + math.ulp(0.0):
        raise InvariantViolationError(
            f"exact agreement tail {tail} exceeds the bound {bound}"
        )

    rng = random.Random(seed)
    ref_bits = reference.bits
    hits = 0
    for _ in range(trials):
        g = rng.getrandbits(n_points)
        agreement = n_points - (g ^ ref_bits).bit_count()
        if agreement >= min_count:
            hits += 1
    empirical = hits / trials
    stderr = math.sqrt(empirical * (1.0 - empirical) / trials)
    return AgreementProbe(
        n, eps, trials, seed, reference_name, min_count, hits, empirical, bound, tail,
        3.0 * stderr,
    )


def _binomial_tail(size: int, least: int) -> Fraction:
    """P[Bin(size, 1/2) >= least], exactly."""
    least = max(least, 0)
    total = 0
    coeff = 1  # C(size, k), from k = size down to least
    for k in range(size, least - 1, -1):
        total += coeff
        coeff = coeff * k // (size - k + 1)
    return Fraction(total, 1 << size)

