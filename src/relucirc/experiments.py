"""Seeded Monte Carlo experiments with machine-readable reports."""
from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from .circuit import (
    ArityError,
    InvariantViolationError,
    Rational,
    ResourceCapError,
    TruthTable,
    exact,
)
from .restriction import SurvivalRow, WeightDistribution

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


def random_agreement_probe(
    reference: TruthTable,
    epsilon: Rational,
    trials: int,
    seed: int,
    reference_name: str = "custom",
    cap: int | None = None,
) -> dict:
    """How often a uniform random function agrees with `reference` on at
    least a 1/2 + epsilon fraction of points, against the analytic bound
    exp(-2^(n+1) epsilon^2).

    Checks the bound holds up to three binomial standard errors and raises
    otherwise; the returned report carries every measured quantity.
    """
    n = reference.arity
    limit = AGREEMENT_ARITY_CAP if cap is None else cap
    if n > limit:
        raise ResourceCapError(f"arity {n} exceeds the agreement probe cap {limit}")
    if trials < 1:
        raise InvariantViolationError("need at least one trial")
    eps = exact(epsilon)
    n_points = 1 << n
    threshold = (Fraction(1, 2) + eps) * n_points
    min_count = -((-threshold.numerator) // threshold.denominator)
    bound = math.exp(-float(2 ** (n + 1)) * float(eps) ** 2)

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
    if empirical > bound + 3.0 * stderr:
        raise InvariantViolationError(
            f"agreement frequency {empirical} exceeds bound {bound} + 3se {3 * stderr}"
        )
    return {
        "n": n,
        "epsilon": f"{eps.numerator}/{eps.denominator}",
        "trials": trials,
        "seed": seed,
        "reference": reference_name,
        "minAgreementCount": min_count,
        "hits": hits,
        "empirical": empirical,
        "chernoffBound": bound,
        "threeStandardErrors": 3.0 * stderr,
    }


def survival_report(rows: Sequence[SurvivalRow], dist: WeightDistribution) -> dict:
    return {
        "weightDist": {"name": dist.name, "bound": dist.bound},
        "rows": [
            {
                "n": r.n,
                "gateCount": r.gate_count,
                "W": r.bound,
                "trials": r.trials,
                "meanSurvival": r.mean_survival,
                "ci95lo": r.ci95_lo,
                "ci95hi": r.ci95_hi,
                "seed": r.seed,
            }
            for r in rows
        ],
    }


def survival_csv(rows: Sequence[SurvivalRow]) -> str:
    lines = ["n,gateCount,W,trials,meanSurvival,ci95lo,ci95hi,seed"]
    for r in rows:
        lines.append(
            f"{r.n},{r.gate_count},{r.bound},{r.trials},"
            f"{r.mean_survival!r},{r.ci95_lo!r},{r.ci95_hi!r},{r.seed}"
        )
    return "\n".join(lines) + "\n"
