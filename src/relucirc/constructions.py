"""Small exact circuits for Boolean functions.

Two universal routes build a Sum-of-ReLU circuit for any +-1 table: one gate
per vertex, or one parity block per nonzero Fourier coefficient.  Alongside
them: the piecewise-linear parity ladder, the two-ReLU simulation of a
threshold gate, linear functions as ReLU differences, and a depth-2 circuit
for max{0, x1, x2}.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .circuit import (
    AffineForm,
    ArityError,
    Circuit,
    ContractError,
    Gate,
    GateKind,
    ResourceCapError,
    TruthTable,
    _CACHE_BITS,
    _cube_slab,
    _slab_indices,
    affine,
    enumeration_cap,
)

HALF = Fraction(1, 2)
ONE = Fraction(1)
MINUS_ONE = Fraction(-1)


@dataclass(frozen=True)
class FourierExpansion:
    """Sparse multilinear expansion f(x) = sum_S coeff[S] * prod_{i in S} x_i.

    Subsets are bitmasks: bit i-1 set means coordinate i belongs to S.  Only
    nonzero coefficients are stored.
    """

    arity: int
    coefficients: Mapping[int, Fraction]

    def support_sizes(self) -> list[int]:
        return [bin(s).count("1") for s in self.coefficients]

    def value(self, x: Sequence[int]) -> Fraction:
        total = Fraction(0)
        for s, c in self.coefficients.items():
            sign = 1
            mask = s
            while mask:
                i = (mask & -mask).bit_length() - 1
                sign *= x[i]
                mask &= mask - 1
            total += c * sign
        return total

    def inverse_table(self) -> TruthTable:
        """Round-trip back to a +-1 table; errors if any value is not +-1."""
        n = self.arity
        signs = []
        for idx in range(1 << n):
            total = Fraction(0)
            for s, c in self.coefficients.items():
                total += -c if bin(s & idx).count("1") & 1 else c
            if total == 1:
                signs.append(1)
            elif total == -1:
                signs.append(-1)
            else:
                raise ContractError(f"expansion value {total} at index {idx} is not +-1")
        return TruthTable.from_signs(n, signs)


def walsh_hadamard(table: TruthTable) -> FourierExpansion:
    """Exact Fourier coefficients of a +-1 table, via the fast transform.

    coeff[S] = 2^-n * sum_x f(x) * (-1)^{|S & index(x)|}; Parseval gives
    sum_S coeff[S]^2 = 1 for +-1-valued f.
    """
    n = table.arity
    coeffs = {s: _dyadic(v, n) for s, v in enumerate(_spectrum(table)) if v}
    return FourierExpansion(n, coeffs)


def _spectrum(table: TruthTable) -> list[int]:
    """2^n times the Fourier coefficients, indexed by subset mask."""
    size = 1 << table.arity
    vals = [1 - 2 * ((table.bits >> i) & 1) for i in range(size)]
    h = 1
    while h < size:
        for start in range(0, size, h * 2):
            for j in range(start, start + h):
                a, b = vals[j], vals[j + h]
                vals[j], vals[j + h] = a + b, a - b
        h *= 2
    return vals


@lru_cache(maxsize=4096)
def _dyadic(num: int, n: int) -> Fraction:
    """num / 2^n in lowest terms; the routes reuse a few values per arity."""
    return Fraction(num, 1 << n)


@lru_cache(maxsize=None)
def _parity_ladder_coeffs(k: int) -> tuple[int, ...]:
    """Output coefficients of the hinge gates ReLU(sum - h), h = 0..k.

    The piecewise-linear interpolation of (sum mod 2) on integer points
    0..k has slope (-1)^p on (p, p+1) and is flat outside [0, k]; the
    coefficient of hinge h is the slope change there.
    """
    if k < 1:
        raise ArityError("parity ladder needs k >= 1")
    slopes = [0] + [(-1) ** p for p in range(k)] + [0]
    return tuple(slopes[h + 1] - slopes[h] for h in range(k + 1))


def parity_sum_of_relu(k: int) -> Circuit:
    """Sum of k+1 ReLUs computing (x1 + ... + xk) mod 2 on {0,1}^k inputs."""
    coeffs = _parity_ladder_coeffs(k)
    ones = {i: Fraction(1) for i in range(k)}
    gates = tuple(
        Gate(GateKind.RELU, AffineForm(dict(ones), Fraction(-h)))
        for h in range(k + 1)
    )
    out = AffineForm({h: Fraction(c) for h, c in enumerate(coeffs) if c}, Fraction(0))
    return Circuit(k, (gates,), Gate(GateKind.SUM, out))


def linear_as_2relu(form: AffineForm, input_count: int) -> Circuit:
    """t = ReLU(t) - ReLU(-t): an affine form as a two-ReLU sum, exact on R^n."""
    neg = AffineForm({w: -c for w, c in form.weights.items()}, -form.bias)
    gates = (Gate(GateKind.RELU, form), Gate(GateKind.RELU, neg))
    out = AffineForm({0: Fraction(1), 1: Fraction(-1)}, Fraction(0))
    return Circuit(input_count, (gates,), Gate(GateKind.SUM, out))


def _closest_negative_on_cube(form: AffineForm, n: int) -> tuple[int | None, int]:
    """(max strictly-negative scaled value, scale) of an input form on the cube."""
    row_ints, bias_int, scale, abs_sum = form._integer_row(n)
    big = abs_sum + abs(bias_int) >= (1 << 62)
    dtype = object if big else np.int64
    row = np.array(row_ints, dtype=dtype)
    best: int | None = None
    for start, stop in _slab_indices(n):
        vals = row.dot(_cube_slab(n, start, stop).astype(dtype)) + bias_int
        neg = vals[vals < 0]
        if neg.size:
            top = int(neg.max())
            best = top if best is None else max(best, top)
    return best, scale


def ltf_to_relu(gate: Gate, input_count: int, cap: int | None = None) -> Circuit:
    """Two-ReLU sum agreeing with a threshold gate on every cube vertex.

    The simulation interpolates the sign function linearly on [-p, 0], where
    -p is the threshold argument's value at the closest strictly-negative
    vertex.  If no vertex goes negative the constant +1 circuit is returned.
    """
    if gate.kind is not GateKind.LTF:
        raise ContractError("ltf_to_relu expects an LTF gate")
    n = input_count
    if n > enumeration_cap(cap):
        raise ResourceCapError(f"arity {n} exceeds enumeration cap")
    Circuit(n, (), gate)  # the gate must read positions of the n inputs
    closest, scale = _closest_negative_on_cube(gate.form, n)
    if closest is None:
        return Circuit(
            n, (), Gate(GateKind.SUM, AffineForm({}, Fraction(1)))
        )
    p = Fraction(-closest, scale)
    form = gate.form
    shifted = AffineForm(dict(form.weights), form.bias + p)
    gates = (Gate(GateKind.RELU, shifted), Gate(GateKind.RELU, form))
    out = AffineForm({0: 2 / p, 1: -2 / p}, Fraction(-1))
    return Circuit(n, (gates,), Gate(GateKind.SUM, out))


@lru_cache(maxsize=None)
def _vertex_layer(n: int) -> tuple[Gate, ...]:
    """The 2^n indicator gates ReLU(<v, x> - (n-1)), in vertex-index order."""
    return tuple(
        Gate(
            GateKind.RELU,
            AffineForm(
                {i: Fraction(1 - 2 * ((idx >> i) & 1)) for i in range(n)},
                Fraction(1 - n),
            ),
        )
        for idx in range(1 << n)
    )


def universal_vertex_indicators(table: TruthTable, cap: int | None = None) -> Circuit:
    """One ReLU spike per vertex: sum_v f(v) * ReLU(<v, x> - (n-1)).

    On the cube, <v, x> = n only at x = v and is at most n-2 elsewhere, so
    each gate fires exactly on its own vertex.  Gate count is 2^n.
    """
    n = table.arity
    if n < 1:
        raise ArityError("vertex-indicator route needs arity >= 1")
    if n > enumeration_cap(cap):
        raise ResourceCapError(f"arity {n} exceeds enumeration cap")
    # the cached gates are shared by every circuit returned for this arity
    gates = _vertex_layer(n) if n <= _CACHE_BITS else _vertex_layer.__wrapped__(n)
    bits = table.bits
    out_weights = {
        idx: MINUS_ONE if (bits >> idx) & 1 else ONE for idx in range(len(gates))
    }
    return Circuit(
        n, (gates,), Gate(GateKind.SUM, AffineForm(out_weights, Fraction(0)))
    )


@lru_cache(maxsize=None)
def _fourier_block(s: int) -> tuple[tuple[Gate, ...], tuple[int, ...]]:
    """Hinge gates of the monomial on subset mask s, and their ladder weights.

    Hinge h reads sum_{i in S} (1 - x_i)/2 - h.  The gates share one weight
    dict, and cached blocks are shared between circuits: AffineForm never
    mutates its weights.
    """
    members = [i for i in range(s.bit_length()) if (s >> i) & 1]
    k = len(members)
    base = {i: -HALF for i in members}
    gates = tuple(
        Gate(GateKind.RELU, AffineForm(base, Fraction(k - 2 * h, 2)))
        for h in range(k + 1)
    )
    return gates, _parity_ladder_coeffs(k)


def universal_fourier(table: TruthTable, cap: int | None = None) -> Circuit:
    """Per-monomial parity blocks: f = sum_S coeff[S] * prod_{i in S} x_i.

    Each monomial with S nonempty is computed as 1 - 2 * parity(z_S) with
    z_i = (1 - x_i)/2, using the parity ladder folded into first-layer
    weights; that costs |S| + 1 gates, so the circuit has at most
    sum_{coeff[S] != 0} (|S| + 1) gates.
    """
    n = table.arity
    if n > enumeration_cap(cap):
        raise ResourceCapError(f"arity {n} exceeds enumeration cap")
    spectrum = _spectrum(table)
    block = _fourier_block if n <= _CACHE_BITS else _fourier_block.__wrapped__
    gates: list[Gate] = []
    weights: list[Fraction] = []
    for s in range(1, 1 << n):
        v = spectrum[s]
        if v:
            hinges, ladder = block(s)
            gates.extend(hinges)
            # coeff[S] * (1 - 2 * parity) puts -2 * coeff[S] on the ladder
            weights.extend(_dyadic(-2 * v * c, n) for c in ladder)
    out = Gate(
        GateKind.SUM,
        AffineForm(dict(enumerate(weights)), _dyadic(sum(spectrum), n)),
    )
    if not gates:
        return Circuit(n, (), out)
    return Circuit(n, (tuple(gates),), out)


def max0xy_depth2() -> Circuit:
    """Depth-2 exact circuit for max{0, x1, x2} on all of R^2.

    Uses m = ReLU(x2) and max{x1, m} = (x1 + m + |x1 - m|)/2, with x1 routed
    through a ReLU pair and m passed through the second layer unchanged
    (ReLU is the identity on m >= 0).  Six ReLU gates under a SUM output;
    a single layer of ReLUs cannot express this function.
    """
    layer1 = (
        Gate(GateKind.RELU, affine({0: 1})),                # ReLU(x1)
        Gate(GateKind.RELU, affine({0: -1})),               # ReLU(-x1)
        Gate(GateKind.RELU, affine({1: 1})),                # m = ReLU(x2)
    )
    layer2 = (
        Gate(GateKind.RELU, affine({0: 1, 1: -1, 2: -1})),  # ReLU(x1 - m)
        Gate(GateKind.RELU, affine({0: -1, 1: 1, 2: 1})),   # ReLU(m - x1)
        Gate(GateKind.RELU, affine({2: 1})),                # m, since m >= 0
    )
    out = AffineForm({0: HALF, 1: HALF, 2: HALF}, Fraction(0))
    skip = AffineForm({0: HALF}, Fraction(0))
    return Circuit(2, (layer1, layer2), Gate(GateKind.SUM, out), skip)
