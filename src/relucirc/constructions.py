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
from itertools import chain
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
    _cube_forwards,
    _Layer,
    _RowWeights,
    affine,
    enumeration_cap,
)

HALF = Fraction(1, 2)


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


def walsh_hadamard(table: TruthTable) -> FourierExpansion:
    """Exact Fourier coefficients of a +-1 table, via the fast transform.

    coeff[S] = 2^-n * sum_x f(x) * (-1)^{|S & index(x)|}; Parseval gives
    sum_S coeff[S]^2 = 1 for +-1-valued f.
    """
    n = table.arity
    spectrum = _spectrum(table).tolist()
    coeffs = {s: _dyadic(v, n) for s, v in enumerate(spectrum) if v}
    return FourierExpansion(n, coeffs)


def _signs(table: TruthTable) -> np.ndarray:
    """The table's +-1 values as int64, indexed by vertex."""
    size = 1 << table.arity
    packed = np.frombuffer(table.bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return 1 - 2 * np.unpackbits(packed, count=size, bitorder="little").astype(np.int64)


def _spectrum(table: TruthTable) -> np.ndarray:
    """2^n times the Fourier coefficients as int64, indexed by subset mask.

    Each step transforms the top k <= 4 bits of the index by a product with
    the 2^k x 2^k Hadamard matrix and rotates them to the bottom, so after n
    bits every bit is back in place.  Exact: every value is at most 2^n in
    magnitude.
    """
    vals = _signs(table)
    left = table.arity
    while left:
        k = min(left, 4)
        block = _hadamard()[: 1 << k, : 1 << k]
        vals = (vals.reshape(1 << k, -1).T @ block).reshape(-1)
        left -= k
    return vals


@lru_cache(maxsize=None)
def _hadamard() -> np.ndarray:
    """The 16 x 16 Hadamard matrix (-1)^|s & x|; its top-left 2^k x 2^k
    corner is the one on k bits."""
    idx = np.arange(16)
    matrix = 1 - 2 * (np.bitwise_count(idx[:, None] & idx) & 1).astype(np.int64)
    matrix.flags.writeable = False
    return matrix


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
    # one weight dict for every gate: AffineForm never mutates its weights
    ones = dict.fromkeys(range(k), Fraction(1))
    gates = tuple(
        Gate(GateKind.RELU, AffineForm(ones, Fraction(-h)))
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


def _closest_negative_on_cube(threshold: Circuit) -> tuple[int | None, int]:
    """(max strictly-negative scaled pre-activation, scale) of a circuit with
    no hidden layers, over the cube."""
    best: int | None = None
    for _, fwd in _cube_forwards(threshold):
        vals = fwd.output_pre_num
        neg = vals[vals < 0]
        if neg.size:
            top = int(neg.max())
            best = top if best is None else max(best, top)
    return best, fwd.output_pre_den


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
    # building the circuit checks the gate reads positions of the n inputs
    closest, scale = _closest_negative_on_cube(Circuit(n, (), gate))
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
def _vertex_layer(n: int) -> _Layer:
    """The 2^n indicator gates ReLU(<v, x> - (n-1)), in vertex-index order.

    A `_Layer`, so every circuit that holds it shares one check and lowering.
    """
    return _Layer(
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
    out = AffineForm(_RowWeights(range(len(gates)), _signs(table), 1), Fraction(0))
    return Circuit(n, (gates,), Gate(GateKind.SUM, out))


@lru_cache(maxsize=None)
def _fourier_block(s: int) -> tuple[Gate, ...]:
    """Hinge gates of the monomial on subset mask s.

    Hinge h reads sum_{i in S} (1 - x_i)/2 - h.  The gates share one weight
    dict, and cached blocks are shared between circuits: AffineForm never
    mutates its weights.
    """
    members = [i for i in range(s.bit_length()) if (s >> i) & 1]
    k = len(members)
    base = dict.fromkeys(members, -HALF)
    return tuple(
        Gate(GateKind.RELU, AffineForm(base, _dyadic(k - 2 * h, 1)))
        for h in range(k + 1)
    )


def _ladders(masks: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """For the blocks on ``masks`` in order: each hinge gate's mask, and its
    coefficient on the block's parity ladder."""
    sizes = [s.bit_count() for s in masks]
    gate_masks = np.repeat(np.array(masks, dtype=np.int64), [k + 1 for k in sizes])
    coeffs = chain.from_iterable(map(_parity_ladder_coeffs, sizes))
    return gate_masks, np.fromiter(coeffs, np.int64, gate_masks.size)


@lru_cache(maxsize=None)
def _fourier_layer(n: int) -> tuple[_Layer, np.ndarray, np.ndarray]:
    """Every block `_fourier_block(s)`, s = 1..2^n - 1, in mask order, as one
    `_Layer` checked at width n, with each gate's mask and ladder coefficient
    (`_ladders`).

    A table's hidden layer is the selection of the blocks its spectrum keeps,
    which takes its read check and lowering from here, so the gates are
    checked and lowered once per arity: n 2^(n-1) + 2^n - 1 gates, 6143 at
    n = 10.
    """
    masks = range(1, 1 << n)
    layer = _Layer(g for s in masks for g in _fourier_block(s))
    layer.check_reads(n, 1)
    layer.lowered(n)
    return (layer, *_ladders(masks))


def universal_fourier(table: TruthTable, cap: int | None = None) -> Circuit:
    """Per-monomial parity blocks: f = sum_S coeff[S] * prod_{i in S} x_i.

    Each monomial with S nonempty is computed as 1 - 2 * parity(z_S) with
    z_i = (1 - x_i)/2, using the parity ladder folded into first-layer
    weights; that costs |S| + 1 gates, so the circuit has at most
    sum_{coeff[S] != 0} (|S| + 1) gates.  The output row is built from the
    spectrum as integers over 2^n.
    """
    n = table.arity
    if n > enumeration_cap(cap):
        raise ResourceCapError(f"arity {n} exceeds enumeration cap")
    spectrum = _spectrum(table)
    bias = _dyadic(int(spectrum.sum()), n)
    blocks = (np.flatnonzero(spectrum[1:]) + 1).tolist()
    if not blocks:
        return Circuit(n, (), Gate(GateKind.SUM, AffineForm({}, bias)))
    if n <= _CACHE_BITS:
        layer, gate_masks, coeffs = _fourier_layer(n)
        keep = spectrum[gate_masks] != 0
        hidden = layer.select(keep)
        gate_masks, coeffs = gate_masks[keep], coeffs[keep]
    else:
        # nothing per arity is cached here: a sparse table builds its blocks only
        hidden = tuple(g for s in blocks for g in _fourier_block.__wrapped__(s))
        gate_masks, coeffs = _ladders(blocks)
    # coeff[S] * (1 - 2 * parity) puts -2 * coeff[S] on the block's ladder
    weights = _RowWeights(range(coeffs.size), -2 * spectrum[gate_masks] * coeffs, 1 << n)
    return Circuit(n, (hidden,), Gate(GateKind.SUM, AffineForm(weights, bias)))


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
