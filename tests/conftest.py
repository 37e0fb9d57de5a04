"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's vectorized paths: circuits
are re-evaluated wire by wire with plain Fractions so the fast implementation
is checked against something it shares no code with.
"""

import random
from fractions import Fraction

import pytest

from relucirc import circuit as circuit_module
from relucirc import Circuit, Gate, GateKind, TruthTable, affine
from relucirc.circuit import vertex


def affine_value(form, values):
    """weights . values + bias, summed here rather than by the library."""
    total = Fraction(form.bias)
    for pos, w in form.weights.items():
        total += w * values[pos]
    return total


def scalar_hidden(circuit, point):
    """Values of the last hidden layer (the inputs if there is none),
    computed gate by gate."""
    values = [Fraction(x) for x in point]
    for layer in circuit.layers:
        level = []
        for g in layer:
            t = affine_value(g.form, values)
            if g.kind is GateKind.RELU:
                t = max(t, Fraction(0))
            elif g.kind is GateKind.LTF:
                t = Fraction(1) if t >= 0 else Fraction(-1)
            level.append(t)
        values = level
    return values


def scalar_forward(circuit, point):
    """Pre-activation of the output gate, computed gate by gate."""
    t = affine_value(circuit.output_gate.form, scalar_hidden(circuit, point))
    if circuit.skip_wires is not None:
        t += affine_value(circuit.skip_wires, [Fraction(x) for x in point])
    return t


def scalar_evaluate(circuit, point):
    t = scalar_forward(circuit, point)
    kind = circuit.output_gate.kind
    if kind is GateKind.RELU:
        return max(t, Fraction(0))
    if kind is GateKind.LTF:
        return Fraction(1) if t >= 0 else Fraction(-1)
    return t


def scalar_table(circuit):
    n = circuit.input_count
    signs = []
    for idx in range(1 << n):
        v = scalar_evaluate(circuit, vertex(n, idx))
        signs.append(1 if v == 1 else -1)
    return TruthTable.from_signs(n, signs)


def scalar_rank(rows):
    """Rank over the rationals by Gauss-Jordan elimination on Fractions."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def scalar_grid(radius, step):
    """The grid axis k * step for |k * step| <= radius, listed point by point."""
    radius, step = Fraction(radius), Fraction(step)
    axis = [Fraction(0)]
    while axis[-1] + step <= radius:
        axis.append(axis[-1] + step)
    return [-v for v in reversed(axis[1:])] + axis


def scalar_max0(p):
    return max(Fraction(0), Fraction(p[0]), Fraction(p[1]))


def scalar_pwl_value(f, p):
    """sum_i c_i * max{0, <a_i, p> + b_i}, from the terms' fields alone."""
    total = Fraction(0)
    for t in f.terms:
        arg = t.normal[0] * p[0] + t.normal[1] * p[1] + t.bias
        if arg > 0:
            total += t.coeff * arg
    return total


def scalar_grid_max_error(f, radius, step):
    axis = scalar_grid(radius, step)
    return max(
        abs(scalar_pwl_value(f, (a, b)) - scalar_max0((a, b)))
        for a in axis
        for b in axis
    )


def scalar_first_grid_mismatch(circuit, radius, step):
    """(point, got, want) at the first grid point, p1 outer and p2 inner,
    where the circuit differs from max{0, x1, x2}; None if there is none."""
    axis = scalar_grid(radius, step)
    for a in axis:
        for b in axis:
            got = scalar_evaluate(circuit, (a, b))
            want = scalar_max0((a, b))
            if got != want:
                return ((a, b), got, want)
    return None


def random_circuit(rng, n, depth, max_width, *, span=9, rational=True,
                   skip_ok=True, out_kind=GateKind.LTF, bottom_relu_only=False):
    """Random layered circuit; weights are small rationals by default."""

    def coeff():
        num = rng.randint(-span, span)
        den = rng.randint(1, 7) if rational else 1
        return Fraction(num, den)

    layers = []
    prev_width = n
    for k in range(1, depth):
        gates = []
        for _ in range(rng.randint(1, max_width)):
            w = {}
            for i in range(prev_width):
                if rng.random() < 0.8:
                    w[i] = coeff()
            relu = (k == 1 and bottom_relu_only) or rng.random() < 0.85
            gates.append(Gate(GateKind.RELU if relu else GateKind.LTF,
                              affine(w, coeff())))
        layers.append(tuple(gates))
        prev_width = len(gates)
    out_w = {i: coeff() for i in range(prev_width)}
    skip = None
    if skip_ok and rng.random() < 0.4:
        skip = affine({rng.randint(1, n) - 1: coeff()}, coeff())
    return Circuit(n, tuple(layers), Gate(out_kind, affine(out_w, coeff())), skip)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def kernel_dtypes(monkeypatch):
    """The dtype of the inputs of each forward-kernel run."""
    dtypes = []
    forward = circuit_module._forward

    def spy(low, x, x_den, keep_last_hidden=False):
        dtypes.append(x.dtype)
        return forward(low, x, x_den, keep_last_hidden)

    monkeypatch.setattr(circuit_module, "_forward", spy)
    return dtypes
