"""Piecewise-linear geometry in the plane.

A sum of weighted ReLU terms f(p) = sum_i c_i * max{0, <a_i, p> + b_i} is
differentiable everywhere except on a union of full lines.  The target
max{0, x1, x2} kinks on three half-lines instead, so any such sum either has
a kink where the target is smooth or is affine and misses the target's value
somewhere.  This module computes the kink locus and builds those witnesses.

The grid scans (`grid_max_error`, `first_grid_mismatch`) put the grid on an
integer axis k * sn/sd and run exact integer numpy arithmetic over whole
slabs of grid points: int64 when a static bound computed up front stays
below 2^62, Python-int object arrays otherwise.  A slab holds at most 2^18
points, so memory stays bounded whatever the grid's size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .circuit import (
    _INT64_SAFE,
    ArityError,
    Circuit,
    ContractError,
    GateKind,
    InvariantViolationError,
    Rational,
    _forward_exact,
    exact,
)

Point = tuple[Fraction, Fraction]


def _point(p: Sequence[Rational]) -> Point:
    if len(p) != 2:
        raise ArityError("expected a point in the plane")
    return (exact(p[0]), exact(p[1]))


@dataclass(frozen=True)
class PwlTerm:
    """c * max{0, <normal, p> + bias}; a zero normal makes a constant term."""

    coeff: Fraction
    normal: tuple[Fraction, Fraction]
    bias: Fraction

    def value(self, p: Point) -> Fraction:
        arg = self.normal[0] * p[0] + self.normal[1] * p[1] + self.bias
        return self.coeff * max(Fraction(0), arg)


def pwl_term(coeff: Rational, normal: Sequence[Rational], bias: Rational) -> PwlTerm:
    return PwlTerm(exact(coeff), _point(normal), exact(bias))


@dataclass(frozen=True)
class PwlSum:
    terms: tuple[PwlTerm, ...]

    def value(self, point: Sequence[Rational]) -> Fraction:
        p = _point(point)
        return sum((t.value(p) for t in self.terms), Fraction(0))

    def one_sided_derivative(
        self, point: Sequence[Rational], direction: Sequence[Rational]
    ) -> Fraction:
        """d/dt f(p + t v) at t = 0 from the right, exactly.

        A term strictly inside its active halfplane contributes <a, v>, one
        strictly outside contributes 0, and one sitting on its kink line
        contributes max{0, <a, v>}.
        """
        p = _point(point)
        v = _point(direction)
        total = Fraction(0)
        for t in self.terms:
            arg = t.normal[0] * p[0] + t.normal[1] * p[1] + t.bias
            slope = t.normal[0] * v[0] + t.normal[1] * v[1]
            if arg > 0:
                total += t.coeff * slope
            elif arg == 0:
                total += t.coeff * max(Fraction(0), slope)
        return total


def pwl_sum(triples: Iterable[tuple[Rational, Sequence[Rational], Rational]]) -> PwlSum:
    return PwlSum(tuple(pwl_term(c, a, b) for c, a, b in triples))


# ---------------------------------------------------------------------------
# canonical lines and the kink locus

@dataclass(frozen=True)
class CanonicalLine:
    """{p : <normal, p> + offset = 0} with a primitive lex-positive integer normal."""

    normal: tuple[int, int]
    offset: Fraction

    def contains(self, p: Point) -> bool:
        return self.normal[0] * p[0] + self.normal[1] * p[1] + self.offset == 0

    def base_point(self) -> Point:
        n1, n2 = self.normal
        s = n1 * n1 + n2 * n2
        return (Fraction(-self.offset * n1, s), Fraction(-self.offset * n2, s))

    def direction(self) -> tuple[int, int]:
        return (-self.normal[1], self.normal[0])


def canonical_line(
    normal: Sequence[Rational], bias: Rational
) -> tuple[CanonicalLine, Fraction]:
    """Canonical form of <normal, p> + bias = 0, plus the factor lam with
    normal = lam * (canonical normal).  Idempotent on already-canonical input."""
    a1, a2 = _point(normal)
    if a1 == 0 and a2 == 0:
        raise ContractError("a zero normal determines no line")
    q = math.lcm(a1.denominator, a2.denominator)
    i1, i2 = int(a1 * q), int(a2 * q)
    g = math.gcd(i1, i2)
    n1, n2 = i1 // g, i2 // g
    if n1 < 0 or (n1 == 0 and n2 < 0):
        n1, n2 = -n1, -n2
    lam = a1 / n1 if n1 else a2 / n2
    return CanonicalLine((n1, n2), exact(bias) / lam), lam


@dataclass(frozen=True)
class LocusLine:
    """A kink line together with the net gradient jump across it."""

    line: CanonicalLine
    jump: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class LineSet:
    lines: tuple[LocusLine, ...]

    def __post_init__(self):
        if any(loc.jump == (0, 0) for loc in self.lines):
            raise InvariantViolationError("locus line with zero jump")


def nondiff_locus(f: PwlSum) -> LineSet:
    """The exact set of points where f is not differentiable, as full lines.

    Terms sharing a line aggregate: crossing the line along its normal, the
    gradient jumps by (sum_i c_i |lam_i|) * normal, where a_i = lam_i * normal.
    Lines where that sum cancels to zero are smooth and excluded.
    """
    acc: dict[CanonicalLine, Fraction] = {}
    for term in f.terms:
        if term.normal == (0, 0):
            continue
        line, lam = canonical_line(term.normal, term.bias)
        acc[line] = acc.get(line, Fraction(0)) + term.coeff * abs(lam)
    lines = []
    for line in sorted(acc, key=lambda l: (l.normal, l.offset)):
        j = acc[line]
        if j != 0:
            lines.append(
                LocusLine(line, (j * line.normal[0], j * line.normal[1]))
            )
    return LineSet(tuple(lines))


# ---------------------------------------------------------------------------
# the target max{0, x1, x2}

def max0xy_value(point: Sequence[Rational]) -> Fraction:
    p = _point(point)
    return max(Fraction(0), p[0], p[1])


def max0xy_one_sided(point: Sequence[Rational], direction: Sequence[Rational]) -> Fraction:
    """One-sided derivative of the target: largest slope among the maximizers."""
    p = _point(point)
    v = _point(direction)
    best = max(Fraction(0), p[0], p[1])
    slopes = []
    if best == 0:
        slopes.append(Fraction(0))
    if p[0] == best:
        slopes.append(v[0])
    if p[1] == best:
        slopes.append(v[1])
    return max(slopes)


def max0xy_smooth_at(point: Sequence[Rational]) -> bool:
    """The target is differentiable exactly where its maximizer is unique."""
    p = _point(point)
    best = max(Fraction(0), p[0], p[1])
    return [Fraction(0), p[0], p[1]].count(best) == 1


# ---------------------------------------------------------------------------
# refutation

@dataclass(frozen=True)
class Witness:
    """A point separating f from the target.

    kind "differentiability": along `direction` v at `point`, the sum of the
    two one-sided derivatives D_v + D_{-v} is zero for any function smooth
    there; `f_result` and `target_result` hold that sum for each side.
    kind "value": `f_result` and `target_result` are the two values at `point`.
    """

    kind: str
    point: Point
    direction: tuple[Fraction, Fraction] | None
    f_result: Fraction
    target_result: Fraction


@dataclass(frozen=True)
class RefutationReport:
    locus: LineSet
    witness: Witness
    grid_max_error: Fraction


_SLAB_POINTS = 1 << 18  # grid points per slab of a scan


def _grid_axis(radius: Rational, step: Rational) -> tuple[int, int, int]:
    """(count, sn, sd): the grid axis is k * sn/sd for k = -count..count."""
    r, s = exact(radius), exact(step)
    if s <= 0 or r < 0:
        raise ArityError("grid needs radius >= 0 and step > 0")
    return int(r / s), s.numerator, s.denominator


def _grid_slabs(count: int, use_object: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(k1, k2) of the grid's points in row-major order (k1 outer), at most
    _SLAB_POINTS at a time, as int64 or as Python-int object arrays."""
    side = 2 * count + 1
    total = side * side
    for start in range(0, total, _SLAB_POINTS):
        row, col = divmod(start, side)
        flat = col + np.arange(min(_SLAB_POINTS, total - start), dtype=np.int64)
        k1, k2 = flat // side + (row - count), flat % side - count
        if use_object:
            k1, k2 = k1.astype(object), k2.astype(object)
        yield k1, k2


def grid_max_error(
    f: PwlSum, radius: Rational = 10, step: Rational = Fraction(1, 2)
) -> Fraction:
    """max |f(p) - max{0, p1, p2}| over the grid, exactly.

    At p = (k1, k2) * sn/sd, a term whose coefficients have lcm denominator
    lam has lam * sd * arg = A1*sn*k1 + A2*sn*k2 + B*sd in integers.  Over
    D = sd * M, with M the lcm of the terms' coeff denominator times lam,
    the sum and the target max{0, k1, k2} * sn * M are integer numerators.
    """
    count, sn, sd = _grid_axis(radius, step)
    scaled = []
    for t in f.terms:
        if not t.coeff:
            continue
        lam = math.lcm(t.normal[0].denominator, t.normal[1].denominator, t.bias.denominator)
        a1, a2, b = (int(v * lam) for v in (*t.normal, t.bias))
        scaled.append((t.coeff, lam, (a1 * sn, a2 * sn, b * sd)))
    m = math.lcm(*(c.denominator * lam for c, lam, _ in scaled))
    terms = [(c.numerator * (m // (c.denominator * lam)), arg) for c, lam, arg in scaled]
    target = sn * m
    # every coefficient, argument and partial sum below is at most `bound`
    reach = max(count, 1)
    bound = reach * target + sum(
        abs(w) * ((abs(a1) + abs(a2)) * reach + abs(b) + 1) for w, (a1, a2, b) in terms
    )
    worst = 0
    for k1, k2 in _grid_slabs(count, bound >= _INT64_SAFE):
        gap = np.maximum(np.maximum(k1, k2), 0) * target
        for w, (a1, a2, b) in terms:
            gap -= w * np.maximum(a1 * k1 + a2 * k2 + b, 0)
        worst = max(worst, int(np.abs(gap).max()))
    return Fraction(worst, sd * m)


def _smooth_point_on(line: CanonicalLine, others: Sequence[CanonicalLine]) -> Point:
    """A point of `line` where the target is differentiable and no other
    locus line passes.  Each other line crosses `line` at most once and the
    target rules out at most one half plus three points, so a short scan of
    integer parameters in both directions always lands."""
    base = line.base_point()
    d = line.direction()
    for k in range(1, len(others) + 30):
        for s in (1, -1):
            t = s * k
            p = (base[0] + t * d[0], base[1] + t * d[1])
            if not max0xy_smooth_at(p):
                continue
            if any(o.contains(p) for o in others):
                continue
            return p
    raise InvariantViolationError("no smooth probe point found on the line")


def refute_max0xy(
    f: PwlSum, radius: Rational = 10, step: Rational = Fraction(1, 2)
) -> RefutationReport:
    """Witness that f differs from max{0, x1, x2}.

    If f has any kink line, some point of it avoids the target's three kink
    rays, and the one-sided derivative sums differ there.  Otherwise f is
    affine, and one of four fixed probe points must disagree in value (no
    affine function matches the target on all four).
    """
    locus = nondiff_locus(f)
    err = grid_max_error(f, radius, step)
    if not locus.lines:
        for raw in ((0, 0), (1, 0), (0, 1), (-1, -1)):
            p = _point(raw)
            fv = f.value(p)
            tv = max0xy_value(p)
            if fv != tv:
                return RefutationReport(locus, Witness("value", p, None, fv, tv), err)
        raise InvariantViolationError("affine sum matched the target at all probes")
    loc = locus.lines[0]
    p = _smooth_point_on(loc.line, [other.line for other in locus.lines[1:]])
    v = (Fraction(loc.line.normal[0]), Fraction(loc.line.normal[1]))
    neg = (-v[0], -v[1])
    lhs = f.one_sided_derivative(p, v) + f.one_sided_derivative(p, neg)
    rhs = max0xy_one_sided(p, v) + max0xy_one_sided(p, neg)
    if lhs == rhs:
        raise InvariantViolationError("derivative sums coincide at a locus point")
    return RefutationReport(locus, Witness("differentiability", p, v, lhs, rhs), err)


# ---------------------------------------------------------------------------
# exact grid checks for circuits

def first_grid_mismatch(
    circuit: Circuit, radius: Rational = 10, step: Rational = Fraction(1, 2)
) -> tuple[Point, Fraction, Fraction] | None:
    """First grid point, in row-major order (p1 outer), where the circuit and
    max{0, x1, x2} differ, if any.

    Each slab of grid points runs through the circuit's integer kernel as
    the columns of x = (k1 * sn, k2 * sn, sd) over x_den = sd, the last row
    being the kernel's constant row.  Inputs then have magnitude at most
    mu = max(count * sn, sd), which scales the lowering's static bound by
    mu; that scaled bound picks the kernel's dtype as on the cube: float64
    below 2^53, int64 below 2^62, Python ints otherwise.
    """
    if circuit.input_count != 2:
        raise ArityError("expected a circuit on two inputs")
    count, sn, sd = _grid_axis(radius, step)
    low = circuit._lowered
    top = max(count * sn, sd) * max(low.bound, low.output_den)
    use_object = top >= _INT64_SAFE
    # the target's numerator over the output denominator sd * output_den
    target = sn * low.output_den
    kind = circuit.output_gate.kind
    for k1, k2 in _grid_slabs(count, use_object):
        fwd = _forward_exact(low, np.stack([k1 * sn, k2 * sn, np.full_like(k1, sd)]), sd, top)
        got, den = fwd.output_pre_num, fwd.output_pre_den
        if kind is GateKind.RELU:
            got = np.maximum(got, 0)
        elif kind is GateKind.LTF:
            ltf_den = np.array(den, dtype=got.dtype)
            got = np.where(got >= 0, ltf_den, -ltf_den)
        bad = np.flatnonzero(got != np.maximum(np.maximum(k1, k2), 0) * target)
        if bad.size:
            i = bad[0]
            point = (Fraction(int(k1[i]) * sn, sd), Fraction(int(k2[i]) * sn, sd))
            return point, Fraction(int(got[i]), den), max(Fraction(0), *point)
    return None


def verify_depth2_max(
    circuit: Circuit, grid_radius: Rational = 10, grid_step: Rational = Fraction(1, 2)
) -> bool:
    """Exact equality with max{0, x1, x2} on the whole rational grid."""
    return first_grid_mismatch(circuit, grid_radius, grid_step) is None

