"""Constructive conversions: parity ladders, LTF simulation, universal circuits."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relucirc import (
    Circuit,
    Gate,
    GateKind,
    ResourceCapError,
    TruthTable,
    affine,
    evaluate,
    linear_as_2relu,
    ltf_to_relu,
    max0xy_depth2,
    parity_sum_of_relu,
    truth_table,
    universal_fourier,
    universal_vertex_indicators,
    vertex,
    walsh_hadamard,
)
from relucirc.serialize import circuit_from_json, circuit_to_json

from conftest import scalar_table


def fourier_by_summation(table):
    """coeff[S] = 2^-n sum_x f(x) chi_S(x), one subset at a time."""
    n = table.arity
    out = {}
    for s in range(1 << n):
        acc = 0
        for idx in range(1 << n):
            x = vertex(n, idx)
            chi = 1
            for i in range(n):
                if (s >> i) & 1:
                    chi *= x[i]
            acc += table.value(idx) * chi
        if acc:
            out[s] = Fraction(acc, 1 << n)
    return out


# ---------------------------------------------------------------------------
# walsh_hadamard

def test_dictator_expansion():
    t = TruthTable.from_signs(2, [x[0] for x in (vertex(2, i) for i in range(4))])
    exp = walsh_hadamard(t)
    assert exp.coefficients == {0b01: Fraction(1)}


def test_two_bit_parity_expansion():
    t = TruthTable.from_signs(2, [x[0] * x[1] for x in (vertex(2, i) for i in range(4))])
    exp = walsh_hadamard(t)
    assert exp.coefficients == {0b11: Fraction(1)}


def test_and_expansion_matches_direct_summation():
    # AND in the +-1 convention: -1 only when both inputs are -1
    t = TruthTable.from_signs(2, [1, 1, 1, -1])
    exp = walsh_hadamard(t)
    assert exp.coefficients == fourier_by_summation(t)
    assert set(exp.coefficients.values()) <= {Fraction(1, 2), Fraction(-1, 2)}


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=60, deadline=None)
def test_transform_round_trips_and_parseval_holds(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    t = TruthTable(n, bits)
    exp = walsh_hadamard(t)
    assert exp.inverse_table() == t
    assert sum(c * c for c in exp.coefficients.values()) == 1


def test_transform_agrees_with_summation_on_random_tables(rng):
    for _ in range(25):
        n = rng.randint(1, 4)
        t = TruthTable(n, rng.getrandbits(1 << n))
        assert walsh_hadamard(t).coefficients == fourier_by_summation(t)


# ---------------------------------------------------------------------------
# parity ladder (operates on {0,1} inputs)

def test_parity_on_one_bit_is_the_identity():
    c = parity_sum_of_relu(1)
    assert evaluate(c, (0,)) == 0
    assert evaluate(c, (1,)) == 1


def test_parity_on_two_bits():
    c = parity_sum_of_relu(2)
    assert c.relu_count <= 3
    got = [evaluate(c, p) for p in ((0, 0), (0, 1), (1, 0), (1, 1))]
    assert got == [0, 1, 1, 0]


def test_parity_ladder_shape():
    c = parity_sum_of_relu(4)
    assert len(c.layers) == 1
    assert c.output_gate.kind is GateKind.SUM
    assert all(g.kind is GateKind.RELU for g in c.layers[0])


@pytest.mark.parametrize("k", range(1, 11))
def test_parity_matches_mod2_on_every_input(k):
    c = parity_sum_of_relu(k)
    assert c.relu_count <= k + 1
    for mask in range(1 << k):
        bits = [(mask >> i) & 1 for i in range(k)]
        assert evaluate(c, bits) == sum(bits) % 2


# ---------------------------------------------------------------------------
# LTF by two ReLUs

def ltf_gate(weights, bias):
    w = {i: Fraction(c) for i, c in enumerate(weights) if c}
    return Gate(GateKind.LTF, affine(w, bias))


def tables_agree(circuit, gate, n):
    reference = Circuit(n, (), gate)
    return truth_table(circuit) == truth_table(reference)


def test_majority_of_three_by_two_relus():
    g = ltf_gate((1, 1, 1), 0)
    c = ltf_to_relu(g, 3)
    assert c.relu_count <= 2
    assert tables_agree(c, g, 3)


def test_constant_true_ltf_needs_no_relus():
    g = ltf_gate((1, 1, 1), 4)
    c = ltf_to_relu(g, 3)
    assert c.relu_count == 0
    assert tables_agree(c, g, 3)


def test_dictator_ltf():
    g = ltf_gate((1,), 0)
    c = ltf_to_relu(g, 1)
    assert c.relu_count <= 2
    assert tables_agree(c, g, 1)


def test_ltf_to_relu_respects_the_cap():
    g = ltf_gate((1,) * 6, 0)
    with pytest.raises(ResourceCapError):
        ltf_to_relu(g, 6, cap=5)


def test_random_ltfs_simulated_exactly(rng):
    for _ in range(50):
        n = rng.randint(1, 8)
        g = ltf_gate(
            [rng.randint(-8, 8) for _ in range(n)], rng.randint(-8, 8)
        )
        assert tables_agree(ltf_to_relu(g, n), g, n)


def test_simulation_output_is_plus_minus_one_everywhere_on_the_cube(rng):
    # the SUM output must be exactly +-1, not merely sign-correct
    g = ltf_gate((3, -2, 1), 1)
    c = ltf_to_relu(g, 3)
    for idx in range(8):
        assert evaluate(c, vertex(3, idx)) in (1, -1)


# ---------------------------------------------------------------------------
# linear forms by two ReLUs

def test_binary_counter_pattern():
    # sum_i 2^(i-1) (1 + x_i)/2 walks 0..7 over the 3-cube
    form = affine(
        {i: Fraction(1 << i, 2) for i in range(3)},
        Fraction(7, 2),
    )
    c = linear_as_2relu(form, 3)
    got = sorted(evaluate(c, vertex(3, idx)) for idx in range(8))
    assert got == list(range(8))
    for idx in range(8):
        x = vertex(3, idx)
        assert evaluate(c, x) == sum((1 << i) * (1 + x[i]) // 2 for i in range(3))


def test_zero_form_gives_zero():
    c = linear_as_2relu(affine({}, 0), 2)
    assert evaluate(c, (9, -9)) == 0


def test_identity_line():
    c = linear_as_2relu(affine({0: Fraction(1)}, 0), 1)
    assert evaluate(c, (-3,)) == -3
    assert evaluate(c, (Fraction(5, 3),)) == Fraction(5, 3)


def test_linear_form_matches_off_the_cube(rng):
    for _ in range(25):
        n = rng.randint(1, 4)
        form = affine(
            {i: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
             for i in range(n)},
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        )
        c = linear_as_2relu(form, n)
        p = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(n))
        assert evaluate(c, p) == form.value(
            {i: p[i] for i in range(n)}
        )


# ---------------------------------------------------------------------------
# universal constructions

def test_vertex_indicator_fires_only_at_its_vertex():
    from relucirc import Circuit as C
    spike = C(2, (), Gate(GateKind.RELU, affine(
        {0: Fraction(1), 1: Fraction(1)}, -1)))
    values = [evaluate(spike, vertex(2, i)) for i in range(4)]
    assert values == [1, 0, 0, 0]


def test_vertex_route_reproduces_random_tables(rng):
    for _ in range(30):
        t = TruthTable(4, rng.getrandbits(16))
        c = universal_vertex_indicators(t)
        assert c.relu_count <= 16
        assert truth_table(c) == t


def test_vertex_route_constant_function():
    t = TruthTable.from_signs(3, [-1] * 8)
    c = universal_vertex_indicators(t)
    assert c.relu_count <= 8
    assert truth_table(c) == t


def test_fourier_route_dictator_is_tiny():
    t = TruthTable.from_signs(1, [1, -1])
    c = universal_fourier(t)
    assert c.relu_count <= 2
    assert truth_table(c) == t


def test_fourier_route_two_bit_parity():
    t = TruthTable.from_signs(2, [1, -1, -1, 1])
    c = universal_fourier(t)
    assert c.relu_count <= 3
    assert truth_table(c) == t


def test_fourier_route_constant_function_has_no_gates():
    t = TruthTable.from_signs(2, [1] * 4)
    c = universal_fourier(t)
    assert c.relu_count == 0
    assert truth_table(c) == t


def test_fourier_route_meets_its_gate_budget(rng):
    for _ in range(30):
        t = TruthTable(4, rng.getrandbits(16))
        c = universal_fourier(t)
        exp = walsh_hadamard(t)
        budget = sum(s.bit_count() + 1 for s in exp.coefficients if s)
        assert c.relu_count <= budget
        assert truth_table(c) == t


def test_universal_routes_respect_the_cap():
    t = TruthTable(3, 0b10110100)
    with pytest.raises(ResourceCapError):
        universal_vertex_indicators(t, cap=2)
    with pytest.raises(ResourceCapError):
        universal_fourier(t, cap=2)


# ---------------------------------------------------------------------------
# max{0, x1, x2} at depth 2

def test_max0xy_sample_points():
    c = max0xy_depth2()
    assert evaluate(c, (3, -1)) == 3
    assert evaluate(c, (-2, -5)) == 0
    assert evaluate(c, (1, 4)) == 4


def test_max0xy_has_two_hidden_relu_layers():
    c = max0xy_depth2()
    assert len(c.layers) == 2
    assert all(g.kind is GateKind.RELU for layer in c.layers for g in layer)


def test_max0xy_matches_target_at_random_rationals(rng):
    c = max0xy_depth2()
    for _ in range(200):
        p = (Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
             Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
        assert evaluate(c, p) == max(Fraction(0), p[0], p[1])


def test_shared_hidden_gates_leave_earlier_circuits_unchanged():
    # parity (only the full subset) and a table with every coefficient nonzero
    first_table, second_table = TruthTable(3, 0x96), TruthTable(3, 0x7F)
    point = (Fraction(1, 3), 2, Fraction(-5, 7))

    def snapshot(circuit):
        text = json.dumps(circuit_to_json(circuit), sort_keys=True)
        return circuit.relu_count, truth_table(circuit), evaluate(circuit, point), text

    for build in (universal_vertex_indicators, universal_fourier):
        first = build(first_table)
        before = snapshot(first)
        assert before[1] == first_table
        second = build(second_table)
        assert truth_table(second) == second_table
        evaluate(second, point)
        # the two circuits really do share hidden gate objects
        assert {id(g) for g in first.layers[0]} & {id(g) for g in second.layers[0]}
        assert snapshot(first) == before

        # the cached integer lowering is not part of the circuit's value
        assert "_lowered" in vars(first)
        fresh = circuit_from_json(circuit_to_json(first))
        assert "_lowered" not in vars(fresh)
        assert fresh == first and first == fresh
        doc = circuit_to_json(first)
        assert set(doc) == {"inputCount", "layers", "outputGate", "skipWires"}
        assert json.dumps(doc, sort_keys=True) == before[3]
