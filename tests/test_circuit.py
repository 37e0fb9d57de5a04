"""Core circuit representation: exact evaluation, truth tables, simplify."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relucirc import (
    ArityError,
    Circuit,
    ContractError,
    Gate,
    GateKind,
    ResourceCapError,
    TruthTable,
    WireError,
    affine,
    evaluate,
    forward_on_cube,
    gate_wire,
    input_wire,
    parse_wire,
    simplify,
    truth_table,
    vertex,
    vertex_index,
)

from conftest import random_circuit, scalar_evaluate, scalar_forward, scalar_table


def single_gate(kind, weights, bias, n):
    w = {input_wire(i + 1): Fraction(c) for i, c in enumerate(weights) if c}
    return Circuit(n, (), Gate(kind, affine(w, bias)))


# ---------------------------------------------------------------------------
# evaluate

def test_relu_gate_direct():
    c = single_gate(GateKind.RELU, (1, 1), 0, 2)
    assert evaluate(c, (1, 1)) == 2


def test_ltf_outputs_plus_one_on_the_boundary():
    c = single_gate(GateKind.LTF, (1,), 0, 1)
    assert evaluate(c, (0,)) == 1
    assert evaluate(c, (Fraction(-1, 10**9),)) == -1


def test_sum_of_two_relus_is_the_identity():
    # ReLU(t) - ReLU(-t) = t, checked at t = -5
    gates = (
        Gate(GateKind.RELU, affine({input_wire(1): Fraction(1)}, 0)),
        Gate(GateKind.RELU, affine({input_wire(1): Fraction(-1)}, 0)),
    )
    out = Gate(
        GateKind.SUM,
        affine({gate_wire(1, 1): Fraction(1), gate_wire(1, 2): Fraction(-1)}, 0),
    )
    c = Circuit(1, (gates,), out)
    assert evaluate(c, (-5,)) == -5
    assert evaluate(c, (Fraction(22, 7),)) == Fraction(22, 7)


def test_evaluate_rejects_wrong_arity():
    c = single_gate(GateKind.RELU, (1, 1), 0, 2)
    with pytest.raises(ArityError):
        evaluate(c, (1,))


def test_evaluate_is_deterministic():
    c = single_gate(GateKind.RELU, (2, -3), Fraction(1, 3), 2)
    p = (Fraction(5, 7), Fraction(-2, 9))
    assert evaluate(c, p) == evaluate(c, p)


def test_skip_wires_add_into_the_output_argument():
    # output LTF reads a hidden ReLU plus x1 directly
    gates = (Gate(GateKind.RELU, affine({input_wire(2): Fraction(1)}, 0)),)
    out = Gate(GateKind.LTF, affine({gate_wire(1, 1): Fraction(1)}, -2))
    skip = affine({input_wire(1): Fraction(1)}, 0)
    c = Circuit(2, (gates,), out, skip)
    # argument = ReLU(x2) + x1 - 2
    assert evaluate(c, (1, 1)) == 1
    assert evaluate(c, (-1, 1)) == -1
    assert evaluate(c, (1, -1)) == -1


# ---------------------------------------------------------------------------
# wire naming and layering

def test_wire_names_round_trip():
    assert parse_wire(input_wire(3)) == ("x", 3, 0)
    assert parse_wire(gate_wire(2, 5)) == ("g", 2, 5)


def test_gates_must_read_the_previous_layer_only():
    gates = (Gate(GateKind.RELU, affine({input_wire(1): Fraction(1)}, 0)),)
    bad_out = Gate(GateKind.LTF, affine({input_wire(1): Fraction(1)}, 0))
    with pytest.raises(WireError):
        Circuit(1, (gates,), bad_out)


def test_skip_wires_may_read_inputs_only():
    gates = (Gate(GateKind.RELU, affine({input_wire(1): Fraction(1)}, 0)),)
    out = Gate(GateKind.LTF, affine({gate_wire(1, 1): Fraction(1)}, 0))
    with pytest.raises(WireError):
        Circuit(1, (gates,), out, affine({gate_wire(1, 1): Fraction(1)}, 0))


def test_depth_width_size_counters():
    gates = (
        Gate(GateKind.RELU, affine({input_wire(1): Fraction(1)}, 0)),
        Gate(GateKind.RELU, affine({input_wire(2): Fraction(1)}, 0)),
    )
    out = Gate(GateKind.LTF, affine({gate_wire(1, 1): Fraction(1)}, 0))
    c = Circuit(2, (gates,), out)
    assert c.depth == 2
    assert c.widths == (2,)
    assert c.size == 3
    assert c.relu_count == 2


# ---------------------------------------------------------------------------
# vertex indexing

def test_all_plus_one_vertex_has_index_zero():
    for n in range(1, 8):
        assert vertex_index((1,) * n) == 0
        assert vertex(n, 0) == (1,) * n


def test_index_round_trip_up_to_n16():
    for n in (1, 2, 3, 8, 16):
        for idx in range(1 << n):
            assert vertex_index(vertex(n, idx)) == idx


def test_index_is_little_endian_in_the_minus_bits():
    # x1 = -1 alone sets the lowest bit
    assert vertex_index((-1, 1, 1)) == 1
    assert vertex_index((1, 1, -1)) == 4


# ---------------------------------------------------------------------------
# truth_table

def test_dictator_table():
    c = single_gate(GateKind.LTF, (1,), 0, 1)
    t = truth_table(c)
    assert t.value(0) == 1 and t.value(1) == -1


def test_constant_true_table():
    c = single_gate(GateKind.LTF, (0, 0), 1, 2)
    assert truth_table(c).signs() == [1, 1, 1, 1]


def test_truth_table_respects_the_enumeration_cap():
    c = single_gate(GateKind.LTF, (1,) * 5, 0, 5)
    with pytest.raises(ResourceCapError):
        truth_table(c, cap=4)
    truth_table(c, cap=5)


def test_truth_table_rejects_relu_output():
    c = single_gate(GateKind.RELU, (1,), 0, 1)
    with pytest.raises(ContractError):
        truth_table(c)


def test_truth_table_rejects_non_boolean_sum():
    c = single_gate(GateKind.SUM, (1, 1), 0, 2)
    with pytest.raises(ContractError):
        truth_table(c)


def test_truth_table_accepts_plus_minus_one_valued_sum():
    c = single_gate(GateKind.SUM, (1,), 0, 1)
    assert truth_table(c).signs() == [1, -1]


def test_truth_table_matches_scalar_oracle_on_random_circuits(rng):
    for _ in range(150):
        n = rng.randint(1, 6)
        c = random_circuit(rng, n, rng.randint(1, 4), 4)
        assert truth_table(c) == scalar_table(c)


def test_forward_on_cube_matches_scalar_forward(rng):
    for _ in range(60):
        n = rng.randint(1, 5)
        c = random_circuit(rng, n, rng.randint(1, 3), 3)
        fwd = forward_on_cube(c)
        for idx in range(1 << n):
            assert fwd.output_pre(idx) == scalar_forward(c, vertex(n, idx))


def test_evaluate_matches_scalar_oracle_off_the_cube(rng):
    def off_cube_point(n):
        while True:
            p = tuple(
                Fraction(rng.randint(-40, 40), rng.randint(2, 12)) for _ in range(n)
            )
            if any(abs(v) != 1 for v in p):
                return p

    kinds = (GateKind.LTF, GateKind.SUM, GateKind.RELU)
    seen_ltf_hidden = seen_skip = 0
    for trial in range(150):
        n = rng.randint(1, 6)
        c = random_circuit(
            rng, n, rng.randint(1, 4), 4, out_kind=kinds[trial % len(kinds)]
        )
        seen_ltf_hidden += any(
            g.kind is GateKind.LTF for layer in c.layers for g in layer
        )
        seen_skip += c.skip_wires is not None
        for _ in range(4):
            p = off_cube_point(n)
            assert evaluate(c, p) == scalar_evaluate(c, p)
    assert seen_ltf_hidden and seen_skip
    # the circuits of test_bulk_path_survives_huge_weights
    for _ in range(20):
        n = rng.randint(1, 4)
        c = random_circuit(rng, n, 3, 3, span=10**19)
        for _ in range(4):
            p = off_cube_point(n)
            assert evaluate(c, p) == scalar_evaluate(c, p)


def test_evaluate_ltf_hidden_gates_with_denominators_beyond_int64(rng):
    # at these points a hidden LTF gate's scaled output +-den is past int64
    sign = Gate(GateKind.LTF, affine({input_wire(1): 1, input_wire(2): -1}))
    c = Circuit(2, ((sign,),), Gate(GateKind.SUM, affine({gate_wire(1, 1): 3})))
    for _ in range(20):
        p = tuple(Fraction(rng.randint(-9, 9), 10**20 + rng.randint(1, 99)) for _ in range(2))
        assert evaluate(c, p) == (3 if p[0] >= p[1] else -3)
    for _ in range(20):
        n = rng.randint(1, 3)
        c = random_circuit(rng, n, 3, 3)
        p = tuple(Fraction(rng.randint(-40, 40), 10**20 + rng.randint(1, 99)) for _ in range(n))
        assert evaluate(c, p) == scalar_evaluate(c, p)


def test_bulk_path_survives_an_output_denominator_beyond_int64():
    # small numerators, but the hidden and output scales multiply past 2^62
    p, q = 2**41 + 15, 2**41 + 21
    hidden = Gate(GateKind.RELU, affine({input_wire(1): Fraction(1, p)}, 0))
    out = Gate(GateKind.LTF, affine({gate_wire(1, 1): Fraction(1, q)}, 0))
    c = Circuit(1, ((hidden,),), out, None)
    assert truth_table(c) == scalar_table(c)
    fwd = forward_on_cube(c)
    assert [fwd.output_pre(i) for i in range(2)] == [Fraction(1, p * q), 0]


def test_bulk_path_survives_huge_weights(rng):
    # weights near 10^19 force the object-array fallback
    for _ in range(20):
        n = rng.randint(1, 4)
        c = random_circuit(rng, n, 3, 3, span=10**19)
        assert truth_table(c) == scalar_table(c)


# ---------------------------------------------------------------------------
# TruthTable container

def test_table_bits_encode_minus_one():
    t = TruthTable.from_signs(2, [1, -1, -1, 1])
    assert t.bits == 0b0110
    assert t.signs() == [1, -1, -1, 1]


def test_table_rejects_bad_values():
    with pytest.raises(ArityError):
        TruthTable.from_signs(1, [1, 0])
    with pytest.raises(ArityError):
        TruthTable.from_signs(1, [1])
    with pytest.raises(ArityError):
        TruthTable(1, 0b100)


def test_table_hex_is_most_significant_nibble_first():
    # index 0 sits at the top bit of the hex string
    assert TruthTable(1, 0b10).to_hex() == "1"
    assert TruthTable.from_hex(1, "1") == TruthTable(1, 0b10)
    assert TruthTable(2, 0b0110).to_hex() == "6"
    t = TruthTable(4, 0x6996)
    assert TruthTable.from_hex(4, t.to_hex()) == t


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=80, deadline=None)
def test_table_hex_round_trips(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    t = TruthTable(n, bits)
    assert TruthTable.from_hex(n, t.to_hex()) == t


# ---------------------------------------------------------------------------
# simplify

def test_simplify_drops_a_dead_relu():
    gates = (
        Gate(GateKind.RELU, affine({}, -1)),
        Gate(GateKind.RELU, affine({input_wire(1): Fraction(1)}, 0)),
    )
    out = Gate(
        GateKind.SUM,
        affine({gate_wire(1, 1): Fraction(5), gate_wire(1, 2): Fraction(1)}, 0),
    )
    c = simplify(Circuit(1, (gates,), out))
    assert c.relu_count == 1
    assert evaluate(c, (3,)) == 3


def test_simplify_folds_a_constant_relu_into_successors():
    gates = (
        Gate(GateKind.RELU, affine({}, 2)),
        Gate(GateKind.RELU, affine({input_wire(1): Fraction(1)}, 0)),
    )
    out = Gate(
        GateKind.SUM,
        affine({gate_wire(1, 1): Fraction(3), gate_wire(1, 2): Fraction(1)}, 1),
    )
    c = simplify(Circuit(1, (gates,), out))
    assert c.relu_count == 1
    # 3 * 2 landed in the output bias
    assert evaluate(c, (0,)) == 7
    assert evaluate(c, (2,)) == 9


def test_simplify_keeps_a_minimal_circuit():
    gates = (Gate(GateKind.RELU, affine({input_wire(1): Fraction(1)}, 0)),)
    out = Gate(GateKind.LTF, affine({gate_wire(1, 1): Fraction(1)}, 0))
    c = Circuit(1, (gates,), out)
    s = simplify(c)
    assert s.size == c.size


def test_simplify_never_grows_and_preserves_tables(rng):
    for _ in range(1000):
        n = rng.randint(1, 8)
        c = random_circuit(rng, n, rng.randint(1, 4), 4)
        s = simplify(c)
        assert s.size <= c.size
        assert truth_table(s) == truth_table(c)
