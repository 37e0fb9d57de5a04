"""Core circuit representation: exact evaluation and truth tables."""

import gc
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relucirc import (
    AffineForm,
    ArityError,
    Circuit,
    ContractError,
    FormatError,
    Gate,
    GateKind,
    ResourceCapError,
    TruthTable,
    WireError,
    affine,
    circuit_from_json,
    circuit_to_json,
    evaluate,
    forward_on_cube,
    truth_table,
    universal_fourier,
    universal_vertex_indicators,
)
from relucirc import circuit as circuit_module
from relucirc.circuit import _full_cube, cube_matrix, vertex

from conftest import (
    random_circuit,
    scalar_evaluate,
    scalar_forward,
    scalar_hidden,
    scalar_table,
)


def single_gate(kind, weights, bias, n):
    w = {i: Fraction(c) for i, c in enumerate(weights) if c}
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
        Gate(GateKind.RELU, affine({0: Fraction(1)}, 0)),
        Gate(GateKind.RELU, affine({0: Fraction(-1)}, 0)),
    )
    out = Gate(
        GateKind.SUM,
        affine({0: Fraction(1), 1: Fraction(-1)}, 0),
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
    gates = (Gate(GateKind.RELU, affine({1: Fraction(1)}, 0)),)
    out = Gate(GateKind.LTF, affine({0: Fraction(1)}, -2))
    skip = affine({0: Fraction(1)}, 0)
    c = Circuit(2, (gates,), out, skip)
    # argument = ReLU(x2) + x1 - 2
    assert evaluate(c, (1, 1)) == 1
    assert evaluate(c, (-1, 1)) == -1
    assert evaluate(c, (1, -1)) == -1


# ---------------------------------------------------------------------------
# wire naming and layering

def test_wire_names_round_trip():
    # in memory a form reads positions; documents name them x<i> and g<k>.<j>
    bottom = (Gate(GateKind.RELU, affine({2: Fraction(1)}, 0)),)
    second = tuple(Gate(GateKind.RELU, affine({0: Fraction(j)}, 0)) for j in range(1, 6))
    c = Circuit(3, (bottom, second), Gate(GateKind.LTF, affine({4: Fraction(1)}, 0)))
    doc = circuit_to_json(c)
    assert doc["layers"][0][0]["weights"] == {"x3": "1/1"}
    assert doc["layers"][1][4]["weights"] == {"g1.1": "5/1"}
    assert doc["outputGate"]["weights"] == {"g2.5": "1/1"}
    assert circuit_from_json(doc) == c


def _one_relu_doc(output_weights, skip_weights=None):
    """A document with one hidden ReLU on x1 under an LTF output."""
    return {
        "inputCount": 1,
        "layers": [[{"kind": "RELU", "weights": {"x1": "1/1"}, "bias": "0/1"}]],
        "outputGate": {"kind": "LTF", "weights": output_weights, "bias": "0/1"},
        "skipWires": None if skip_weights is None
        else {"weights": skip_weights, "bias": "0/1"},
    }


def test_gates_must_read_the_previous_layer_only():
    assert circuit_from_json(_one_relu_doc({"g1.1": "1/1"})).depth == 2
    with pytest.raises(FormatError):
        circuit_from_json(_one_relu_doc({"x1": "1/1"}))


def test_skip_wires_may_read_inputs_only():
    assert circuit_from_json(_one_relu_doc({"g1.1": "1/1"}, {"x1": "1/1"})).skip_wires
    with pytest.raises(FormatError):
        circuit_from_json(_one_relu_doc({"g1.1": "1/1"}, {"g1.1": "1/1"}))


def test_forms_must_read_positions_of_the_layer_below():
    gates = (Gate(GateKind.RELU, affine({0: Fraction(1)}, 0)),)
    out = Gate(GateKind.LTF, affine({0: Fraction(1)}, 0))
    with pytest.raises(WireError):
        Circuit(1, (gates,), Gate(GateKind.LTF, affine({1: Fraction(1)}, 0)))
    with pytest.raises(WireError):
        Circuit(1, (gates,), out, affine({1: Fraction(1)}, 0))
    with pytest.raises(WireError):
        Circuit(1, ((Gate(GateKind.RELU, affine({-1: Fraction(1)}, 0)),),), out)
    with pytest.raises(WireError):
        Circuit(1, ((Gate(GateKind.RELU, affine({"x1": Fraction(1)}, 0)),),), out)


def test_read_check_takes_the_keys_equal_to_a_position():
    # True and Fraction(1) equal position 1; a half does not
    for key in (True, Fraction(1)):
        Circuit(2, (), Gate(GateKind.SUM, affine({key: 3})), affine({key: 1}))
    gates = (Gate(GateKind.RELU, affine({0: 1})),) * 3
    with pytest.raises(WireError, match=r"^the output gate: \[3\] not among the 3 positions"):
        Circuit(1, (gates,), Gate(GateKind.SUM, affine({3: 1, 2: 1})))
    with pytest.raises(WireError, match=r"^the skip wires: \[Fraction\(1, 2\)\] not among the 2"):
        Circuit(2, (), Gate(GateKind.SUM, affine({0: 1})), affine({Fraction(1, 2): 1}))
    with pytest.raises(WireError, match=r"^gate 2 of layer 2: \[-1, 3\] not among the 3"):
        Circuit(1, (gates, (gates[0], Gate(GateKind.SUM, affine({3: 1, -1: 1})))), gates[0])


@pytest.mark.parametrize("key", [Fraction(1), 1.0])
def test_a_weight_key_that_is_no_int_is_a_wire_error_at_construction(key):
    # equal to position 1, but no int: the forward pass could not index by it
    form = AffineForm({key: Fraction(1)}, Fraction(0))
    plain = AffineForm({0: Fraction(1)}, Fraction(0))
    for build in (
        lambda: Circuit(2, (), Gate(GateKind.LTF, form)),
        lambda: Circuit(2, ((Gate(GateKind.RELU, form),),), Gate(GateKind.LTF, plain)),
        lambda: Circuit(2, (), Gate(GateKind.LTF, plain), form),
    ):
        with pytest.raises(WireError, match=rf"\[{re.escape(repr(key))}\] not among the 2 positions"):
            build()
    # True is an int, and stays a position
    c = Circuit(2, (), Gate(GateKind.LTF, AffineForm({True: Fraction(1)}, Fraction(0))))
    assert truth_table(c) == scalar_table(c)


@pytest.mark.parametrize("key", [True, Fraction(1)])
def test_affine_stores_a_key_equal_to_a_position_as_that_int(key):
    (stored,) = affine({key: 3}).weights
    assert type(stored) is int and stored == 1
    c = Circuit(2, (), Gate(GateKind.SUM, affine({key: 3})))
    assert [evaluate(c, p) for p in ((0, 1), (1, -1))] == [3, -3]
    with pytest.raises(ContractError, match="not \\+-1-valued"):
        truth_table(c)
    signed = Circuit(2, (), Gate(GateKind.LTF, affine({key: 3})))
    assert truth_table(signed) == scalar_table(signed)
    # a key that is no integer stays as it is
    assert list(affine({Fraction(1, 2): 1, "1": 1}).weights) == [Fraction(1, 2), "1"]


def test_depth_width_size_counters():
    gates = (
        Gate(GateKind.RELU, affine({0: Fraction(1)}, 0)),
        Gate(GateKind.RELU, affine({1: Fraction(1)}, 0)),
    )
    out = Gate(GateKind.LTF, affine({0: Fraction(1)}, 0))
    c = Circuit(2, (gates,), out)
    assert c.depth == 2
    assert c.widths == (2,)
    assert c.size == 3
    assert c.relu_count == 2


# ---------------------------------------------------------------------------
# vertex indexing

def _minus_bits(x):
    return sum(1 << i for i, v in enumerate(x) if v == -1)


def test_all_plus_one_vertex_has_index_zero():
    for n in range(1, 8):
        assert vertex(n, 0) == (1,) * n


def test_index_round_trip_up_to_n16():
    for n in (1, 2, 3, 8, 16):
        for idx in range(1 << n):
            x = vertex(n, idx)
            assert set(x) <= {1, -1} and _minus_bits(x) == idx


def test_index_is_little_endian_in_the_minus_bits():
    # x1 = -1 alone sets the lowest bit
    assert vertex(3, 1) == (-1, 1, 1)
    assert vertex(3, 4) == (1, 1, -1)


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
    sign = Gate(GateKind.LTF, affine({0: 1, 1: -1}))
    c = Circuit(2, ((sign,),), Gate(GateKind.SUM, affine({0: 3})))
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
    hidden = Gate(GateKind.RELU, affine({0: Fraction(1, p)}, 0))
    out = Gate(GateKind.LTF, affine({0: Fraction(1, q)}, 0))
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


def test_a_layer_of_constant_gates_keeps_the_bound_of_the_layer_below():
    # the bottom gate's values are past float64; the constant gate above reads none
    bottom = (Gate(GateKind.RELU, affine({0: 2**1100})),)
    constant = (Gate(GateKind.RELU, affine({}, 1)),)
    out = Gate(GateKind.LTF, affine({0: 1}, Fraction(-1, 2)))
    c = Circuit(1, (bottom, constant), out)
    assert truth_table(c) == scalar_table(c)


# ---------------------------------------------------------------------------
# the cube kernel's dtype: float64 below 2^53 on slabs of at least 2^12
# multiply-adds, int64 below 2^62, Python ints above

# at this arity a circuit of one gate reading every input already has 2n
# multiply-adds per vertex, 2^12 on the whole cube
WIDE = 8


def _check_on_cube(c):
    """forward_on_cube and truth_table against the scalar oracles."""
    n = c.input_count
    fwd = forward_on_cube(c)
    assert fwd.output_pre_num.dtype == np.int64
    assert [fwd.output_pre(i) for i in range(1 << n)] == [
        scalar_forward(c, vertex(n, i)) for i in range(1 << n)
    ]
    assert truth_table(c) == scalar_table(c)


def _two_relus(out_weights, out_bias):
    """ReLU(x1) and ReLU(x2) under an LTF output, with skip bias -1."""
    hidden = tuple(Gate(GateKind.RELU, affine({i: 1})) for i in range(2))
    return Circuit(WIDE, (hidden,), Gate(GateKind.LTF, affine(out_weights, out_bias)),
                   affine({}, -1))


def test_cube_kernel_keeps_int64_for_values_just_beyond_2_53(kernel_dtypes):
    # the hidden sum 2^53 + 1 at x = (1, 1, ...) would round to 2^53 in
    # float64, which flips the output's sign there, and -(2^53 + 1) is no float64
    c = _two_relus({0: 2**53, 1: 1}, -2**53)
    assert c._lowered.bound >= 2**53
    pre = [scalar_forward(c, vertex(WIDE, i)) for i in range(4)]
    assert pre == [0, -2**53, -1, -2**53 - 1]
    _check_on_cube(c)
    assert kernel_dtypes == [np.int64] * 2


@pytest.mark.parametrize("extra, dtype", [(0, np.float64), (1, np.int64)])
def test_cube_kernel_takes_float64_only_below_2_53(kernel_dtypes, extra, dtype):
    # bound (2^52 + 2^51 - 1) + 1 + (2^51 - 1 + extra) = 2^53 - 1 + extra
    c = _two_relus({0: 2**52, 1: 2**51 - 1}, -(2**51 - 1 + extra))
    assert c._lowered.bound == 2**53 - 1 + extra
    assert scalar_forward(c, vertex(WIDE, 0)) == 2**52 - 1 - extra
    _check_on_cube(c)
    assert kernel_dtypes == [dtype] * 2


def test_cube_kernel_keeps_int64_for_an_output_denominator_beyond_2_53(kernel_dtypes):
    # small numerators, but the hidden and output scales multiply past 2^53
    p, q = 2**26 + 15, 2**27 + 29
    hidden = Gate(GateKind.RELU, affine({0: Fraction(1, p)}))
    out = Gate(GateKind.LTF, affine({0: Fraction(1, q)}))
    c = Circuit(WIDE, ((hidden,),), out)
    low = c._lowered
    assert low.bound < 2**53 <= low.output_den < 2**62
    _check_on_cube(c)
    assert kernel_dtypes == [np.int64] * 2


@pytest.mark.parametrize("n, dtype", [(WIDE - 1, np.int64), (WIDE, np.float64)])
def test_cube_kernel_keeps_small_slabs_on_int64(kernel_dtypes, n, dtype):
    # one gate on every input: 2n multiply-adds a vertex, 1792 at n = 7, 4096 at n = 8
    c = single_gate(GateKind.LTF, [(-1) ** i * (i + 1) for i in range(n)], 1, n)
    assert c._lowered.products == 2 * n
    _check_on_cube(c)
    assert kernel_dtypes == [dtype] * 2


def test_float64_path_returns_int64_numerators(kernel_dtypes):
    bottom = (
        Gate(GateKind.RELU, affine({0: 1, 1: Fraction(-1, 2), 7: 1}, Fraction(1, 3))),
        Gate(GateKind.LTF, affine({1: 1, 2: 1, 5: -1}, -1)),
        Gate(GateKind.RELU, affine({2: -2, 4: 1}, 1)),
    )
    # the top layer mixes ReLU, LTF and SUM gates
    top = (
        Gate(GateKind.RELU, affine({0: 1, 1: 2}, -1)),
        Gate(GateKind.LTF, affine({1: 1, 2: -3}, 0)),
        Gate(GateKind.SUM, affine({0: Fraction(3, 7), 2: 1}, Fraction(-1, 4))),
    )
    out = Gate(GateKind.SUM, affine({0: 2, 1: Fraction(1, 5), 2: -1}, 1))
    c = Circuit(WIDE, (bottom, top), out, affine({0: 1, 6: -1}, 0))
    fwd = forward_on_cube(c, keep_last_hidden=True)
    assert kernel_dtypes == [np.float64]
    assert fwd.output_pre_num.dtype == fwd.last_hidden_num.dtype == np.int64
    for i in range(1 << WIDE):
        point = vertex(WIDE, i)
        assert fwd.output_pre(i) == scalar_forward(c, point)
        hidden = [Fraction(int(v), fwd.last_hidden_den) for v in fwd.last_hidden_num[:, i]]
        assert hidden == scalar_hidden(c, point)


@pytest.mark.parametrize("scale, dtype", [
    (1, np.float64), (2**55, np.int64), (2**70, object),
])
def test_truth_table_leaves_the_cached_cube_untouched(kernel_dtypes, scale, dtype):
    cube = _full_cube(WIDE)
    before = cube.copy()
    weights = [scale, -2 * scale, scale, 1, -1, 1, -1, 1]
    no_hidden = single_gate(GateKind.LTF, weights, 1, WIDE)
    hidden = (Gate(GateKind.RELU, affine({0: scale, 2: 1})),)
    out = Gate(GateKind.LTF, affine({0: 1}, -scale))
    with_skip = Circuit(WIDE, (hidden,), out, affine({1: scale, 2: -1}, 0))
    for c in (no_hidden, with_skip):
        assert truth_table(c) == scalar_table(c)
    assert kernel_dtypes == [dtype] * 2
    assert _full_cube(WIDE) is cube and not cube.flags.writeable
    assert np.array_equal(cube, before)


def test_float64_path_matches_scalar_table_on_random_circuits(rng, kernel_dtypes):
    for _ in range(40):
        c = random_circuit(rng, WIDE, rng.randint(1, 4), 4, span=3)
        assert truth_table(c) == scalar_table(c)
    assert set(kernel_dtypes) == {np.dtype(np.float64)}


# ---------------------------------------------------------------------------
# cube slabs: the largest power-of-two vertex count whose product with the
# widest hidden layer is at most _SLAB_ELEMENTS

def _slab_size(widest):
    budget = circuit_module._SLAB_ELEMENTS
    slab = budget
    while slab * widest > budget:
        slab //= 2
    return slab


def _slab_count(n, widest):
    return max(1, (1 << n) // _slab_size(widest))


@pytest.mark.parametrize("n", [9, 10])
def test_universal_routes_tabulate_wide_layers_in_float64_slabs(rng, kernel_dtypes, n):
    table = TruthTable(n, rng.getrandbits(1 << n))
    vertex_c = universal_vertex_indicators(table)
    assert truth_table(vertex_c) == table
    # one gate per vertex
    assert len(kernel_dtypes) == _slab_count(n, 1 << n) > 1
    kernel_dtypes.clear()
    fourier_c = universal_fourier(table)
    assert truth_table(fourier_c) == table
    assert len(kernel_dtypes) == _slab_count(n, max(fourier_c.widths)) > 1
    assert set(kernel_dtypes) == {np.dtype(np.float64)}


def test_truth_table_across_a_slab_boundary_matches_the_oracle(rng, kernel_dtypes):
    n = 8
    gates = [
        Gate(GateKind.RELU, affine({i: 1, (i + 3) % n: Fraction(-1, 2), (i + 5) % n: 2},
                                   rng.randint(-2, 1)))
        for i in range(n)
    ]
    # constant SUM gates widen the layer past 1024, so the cube takes more
    # than one slab, and cost the scalar oracle little
    hidden = tuple(gates) + (Gate(GateKind.SUM, affine({})),) * 1020
    out = Gate(GateKind.LTF, affine({i: rng.choice((-3, -1, 1, 2)) for i in range(n)}))
    c = Circuit(n, (hidden,), out, affine({7: 1}))
    slab = _slab_size(len(hidden))
    table = truth_table(c)
    assert kernel_dtypes == [np.float64] * _slab_count(n, len(hidden))
    assert len(kernel_dtypes) > 1
    assert table == scalar_table(c)
    # both signs past the first slab boundary
    assert 0 < (table.bits >> slab).bit_count() < (1 << n) - slab


# ---------------------------------------------------------------------------
# the constant row: each layer's matrix holds its biases as a last column over
# a row (0, ..., 0, scale), and the kernel's input ends in a row of x_den

def test_layer_arrays_hold_the_biases_last_over_the_constant_row():
    layer = circuit_module._Layer((
        Gate(GateKind.RELU, affine({0: 1, 2: Fraction(-1, 2)}, Fraction(1, 3))),
        Gate(GateKind.LTF, affine({}, -2)),
        Gate(GateKind.SUM, affine({1: Fraction(3, 4)})),
    ))
    for dtype in (np.float64, np.int64, object):
        matrix, scale, kinds, relu_only = layer.arrays(3, np.dtype(dtype))
        assert matrix.dtype == dtype and scale == 12
        assert matrix.tolist() == [
            [12, 0, -6, 4],
            [0, 0, 0, -24],
            [0, 9, 0, 0],
            [0, 0, 0, 12],
        ]
        assert kinds == (GateKind.RELU, GateKind.LTF, GateKind.SUM) and not relu_only


def _mixed_layer(width, scale):
    return (
        Gate(GateKind.RELU, affine({0: scale, 1: Fraction(-1, 2), width - 1: 1},
                                   Fraction(scale, 3))),
        Gate(GateKind.LTF, affine({1: 1, 2: -scale}, -1)),
        Gate(GateKind.SUM, affine({0: Fraction(3, 7), 2: 1}, Fraction(-1, 4))),
        Gate(GateKind.RELU, affine({width - 1: -2}, 1)),
    )


def _constant_layer(scale):
    # a positive and a zeroed ReLU, an LTF at -1 and a SUM: no gate reads anything
    return (
        Gate(GateKind.RELU, affine({}, Fraction(3 * scale, 2))),
        Gate(GateKind.RELU, affine({}, -scale)),
        Gate(GateKind.LTF, affine({}, Fraction(-1, 3))),
        Gate(GateKind.SUM, affine({}, Fraction(-5 * scale, 7))),
    )


def _depth_3(shape, scale):
    """Two hidden layers of four gates, mixed or constant, under a SUM output
    with biases everywhere and skip wires; ``scale`` sets the bound."""
    first = _mixed_layer(WIDE, scale) if shape[0] == "mixed" else _constant_layer(scale)
    second = _mixed_layer(4, 1) if shape[1] == "mixed" else _constant_layer(1)
    out = Gate(GateKind.SUM, affine({0: 2, 1: Fraction(1, 5), 3: -1}, Fraction(1, 6)))
    return Circuit(WIDE, (first, second), out, affine({0: scale, 6: -1}, Fraction(1, 2)))


DEPTH_3_SHAPES = [("mixed", "mixed"), ("constant", "mixed"), ("mixed", "constant")]
# the bound lands below 2^53, in [2^53, 2^62) and past 2^62 for every shape
DEPTH_3_SCALES = [(1, np.float64), (2**34, np.int64), (2**48, object)]


@pytest.mark.parametrize("shape", DEPTH_3_SHAPES)
@pytest.mark.parametrize("scale, dtype", DEPTH_3_SCALES)
def test_depth_3_circuits_match_the_oracle_on_every_dtype(kernel_dtypes, shape, scale, dtype):
    c = _depth_3(shape, scale)
    fwd = forward_on_cube(c, keep_last_hidden=True)
    assert kernel_dtypes == [dtype]
    assert fwd.last_hidden_num.shape == (4, 1 << WIDE)
    for i in range(1 << WIDE):
        point = vertex(WIDE, i)
        assert fwd.output_pre(i) == scalar_forward(c, point)
        hidden = [Fraction(int(v), fwd.last_hidden_den) for v in fwd.last_hidden_num[:, i]]
        assert hidden == scalar_hidden(c, point)


def test_evaluate_matches_the_oracle_at_points_with_a_common_denominator(rng):
    for shape in DEPTH_3_SHAPES:
        for scale, _ in DEPTH_3_SCALES:
            c = _depth_3(shape, scale)
            for _ in range(5):
                p = (Fraction(1, 3),) + tuple(
                    Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5))) for _ in range(WIDE - 1)
                )
                assert evaluate(c, p) == scalar_evaluate(c, p)
    # no hidden layers: the output and skip biases ride on the row of x_den
    c = Circuit(2, (), Gate(GateKind.SUM, affine({0: 2, 1: -1}, Fraction(1, 3))),
                affine({1: 1}, Fraction(-1, 5)))
    assert evaluate(c, (Fraction(1, 2), Fraction(2, 3))) == Fraction(17, 15)


def test_cube_matrix_leaves_out_the_constant_row():
    assert cube_matrix(2).tolist() == [[1, -1, 1, -1], [1, 1, -1, -1]]
    assert cube_matrix(0).shape == (0, 1)
    assert _full_cube(2)[-1].tolist() == [1] * 4


def test_repeated_fourier_builds_hold_no_more_memory(rng):
    # the read check keeps no set of positions per width, so a run of Fourier
    # circuits, whose output widths differ table by table, does not grow
    def build(rounds):
        for _ in range(rounds):
            for n in (8, 9):
                universal_fourier(TruthTable(n, rng.getrandbits(1 << n)))

    build(5)
    tracemalloc.start()
    try:
        build(2)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        build(20)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 256 * 1024


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

