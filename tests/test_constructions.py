"""Constructive conversions: parity ladders, LTF simulation, universal circuits."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from relucirc import (
    AffineForm,
    Circuit,
    Gate,
    GateKind,
    ResourceCapError,
    TruthTable,
    WireError,
    affine,
    evaluate,
    ltf_to_relu,
    max0xy_depth2,
    parity_sum_of_relu,
    truth_table,
    universal_fourier,
    universal_vertex_indicators,
    walsh_hadamard,
)
import relucirc.constructions as constructions
from relucirc.circuit import _Layer, _RowWeights, forward_on_cube, vertex
from relucirc.constructions import _fourier_layer, _vertex_layer, linear_as_2relu
from relucirc.serialize import circuit_from_json, circuit_to_json, dumps

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
    assert [exp.value(vertex(n, idx)) for idx in range(1 << n)] == t.signs()
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


def test_a_layer_checked_at_one_width_is_checked_again_at_another():
    layer = _vertex_layer(3)
    assert truth_table(universal_vertex_indicators(TruthTable(3, 0x96))) == TruthTable(3, 0x96)
    out = Gate(GateKind.SUM, affine({0: 1}))
    # every gate reads x3 (position 2), which a 2-input circuit does not have
    with pytest.raises(WireError, match=r"gate 1 of layer 1: \[2\]"):
        Circuit(2, (layer,), out)
    Circuit(3, (layer,), out)


def test_vertex_route_circuits_share_one_lowered_layer():
    first, second = (universal_vertex_indicators(TruthTable(4, bits)) for bits in (0x6996, 0x1234))
    assert first.layers[0] is second.layers[0] is _vertex_layer(4)
    (first_layer,) = first._lowered.layers
    (second_layer,) = second._lowered.layers
    assert first_layer is second_layer is _vertex_layer(4).lowered(4)

    # a layer compares and prints as the plain tuple of its gates
    plain = Circuit(4, (tuple(first.layers[0]),), first.output_gate)
    assert plain == first and first == plain and repr(plain) == repr(first)
    assert first.layers[0] == tuple(first.layers[0])
    fresh = circuit_from_json(circuit_to_json(first))
    assert fresh == first and first == fresh
    assert truth_table(fresh) == truth_table(first) == TruthTable(4, 0x6996)
    assert fresh._lowered.layers[0] is not first_layer



def _same_arrays(got, want):
    """Two `_Layer.lowered` tuples, or two layer entries of
    `_Lowering.arrays`, hold equal matrices of one dtype and element type,
    with the biases and the constant row, and equal other fields: the scale,
    kinds and ReLU flag, and a lowering's gate and bound terms."""
    a, b = got[0], want[0]
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)
    assert {type(v) for v in a.flat} == {type(v) for v in b.flat}
    assert got[1:] == want[1:]


def test_a_selected_layer_lowers_like_a_layer_of_its_gates():
    layer, gate_masks, _ = _fourier_layer(4)
    rng = random.Random(12)
    keeps = [
        np.ones(len(layer), dtype=bool),
        gate_masks == 11,
        np.arange(len(layer)) == 7,
        *(np.array([rng.random() < 0.4 for _ in layer]) for _ in range(4)),
    ]
    for keep in keeps:
        selected = layer.select(keep)
        plain = _Layer(tuple(g for g, k in zip(layer, keep) if k))
        assert selected == plain and repr(selected) == repr(plain)
        _same_arrays(selected.lowered(4), plain.lowered(4))
        # a circuit over the selection lowers like one over the plain layer
        out = Gate(GateKind.SUM, affine({j: j - 2 for j in range(len(plain))}, Fraction(1, 3)))
        got, want = (Circuit(4, (hidden,), out)._lowered for hidden in (selected, plain))
        assert (got.bound, got.output_den, got.products) == (want.bound, want.output_den, want.products)
        for dtype in (np.float64, np.int64, object):
            (got_layer,), got_out, _ = got.arrays(dtype)
            (want_layer,), want_out, _ = want.arrays(dtype)
            _same_arrays(got_layer, want_layer)
            assert got_out[0].tolist() == want_out[0].tolist() and got_out[1] == want_out[1]


def test_a_selected_layer_names_its_own_gate_on_a_wrong_width_read():
    layer, gate_masks, _ = _fourier_layer(4)
    out = Gate(GateKind.SUM, affine({0: 1}))
    # blocks {x1, x2} and {x3}: gate 4 of the selection (8 of the layer)
    # is the first to read x3, position 2
    selected = layer.select((gate_masks == 3) | (gate_masks == 4))
    with pytest.raises(WireError, match=r"gate 4 of layer 1: \[2\]"):
        Circuit(2, (selected,), out)
    Circuit(4, (selected,), out)
    with pytest.raises(WireError, match="layer 1 is empty"):
        Circuit(4, (layer.select(gate_masks == 0),), out)


def test_fourier_route_selects_from_one_layer_per_arity():
    first, second = (universal_fourier(TruthTable(5, bits)) for bits in (0x9F767C45, 0x1234ABCD))
    layer, _, _ = _fourier_layer(5)
    # the layer of arity 5 was lowered once, when it was built, and both
    # selections took their rows from that lowering before any truth table
    assert list(vars(layer)["_lowerings"]) == [5]
    index = {id(g): i for i, g in enumerate(layer)}
    matrix = layer.lowered(5)[0]
    for c in (first, second):
        assert list(vars(c.layers[0])["_lowerings"]) == [5]
        rows = [index[id(g)] for g in c.layers[0]]
        assert np.array_equal(c.layers[0].lowered(5)[0], matrix[rows + [-1]])
    assert truth_table(first) == TruthTable(5, 0x9F767C45)
    assert truth_table(second) == TruthTable(5, 0x1234ABCD)


def _fourier_snapshot(circuit, point):
    low = circuit._lowered
    fwd = forward_on_cube(circuit)
    return (
        circuit, repr(circuit), json.dumps(circuit_to_json(circuit), sort_keys=True),
        truth_table(circuit), evaluate(circuit, point),
        fwd.output_pre_num.dtype, fwd.output_pre_num.tolist(), fwd.output_pre_den,
        low.bound, low.output_den, low.products,
        [(matrix.dtype, matrix.tolist(), scale) for matrix, scale, *_ in low.layers],
    )


def test_fourier_route_is_the_same_above_the_cached_arities(monkeypatch, rng):
    tables = [TruthTable(n, rng.getrandbits(1 << n)) for n in range(9)]
    for n in (1, 4, 7):
        tables += [
            TruthTable(n, 0),                                        # constant
            TruthTable(n, sum(1 << i for i in range(1 << n) if i & 1)),  # dictator
            TruthTable(n, sum(1 << i for i in range(1 << n) if i.bit_count() & 1)),
        ]
    point = (Fraction(1, 3), Fraction(-2, 5), 2, -1, Fraction(3, 7), 0, 1, Fraction(1, 2))
    cached = [_fourier_snapshot(universal_fourier(t), point[:t.arity]) for t in tables]
    # the per-block path, which builds each table's blocks on their own
    monkeypatch.setattr(constructions, "_CACHE_BITS", -1)
    misses = _fourier_layer.cache_info().misses
    for t, want in zip(tables, cached):
        assert _fourier_snapshot(universal_fourier(t), point[:t.arity]) == want
    assert _fourier_layer.cache_info().misses == misses


def test_a_sparse_table_above_the_cached_arities_builds_only_its_blocks():
    n = 13
    dictator = TruthTable(n, int.from_bytes(b"\xaa" * (1 << (n - 3)), "little"))
    misses = _fourier_layer.cache_info().misses
    c = universal_fourier(dictator)
    assert c.widths == (2,)
    assert _fourier_layer.cache_info().misses == misses
    assert truth_table(c) == dictator


# ---------------------------------------------------------------------------
# output rows built as integers, against the dict-built forms they replace

def _reference_spectrum(table):
    """2^n times the Fourier coefficients, by the in-place butterflies on a
    list of Python ints."""
    size = 1 << table.arity
    vals = [table.value(i) for i in range(size)]
    h = 1
    while h < size:
        for start in range(0, size, 2 * h):
            for j in range(start, start + h):
                vals[j], vals[j + h] = vals[j] + vals[j + h], vals[j] - vals[j + h]
        h *= 2
    return vals


def _reference_output(route, table):
    """The route's output form as a dict of Fractions, built weight by weight."""
    n = table.arity
    if route is universal_vertex_indicators:
        return AffineForm({i: Fraction(table.value(i)) for i in range(1 << n)}, Fraction(0))
    spectrum = _reference_spectrum(table)
    weights = []
    for s in range(1, 1 << n):
        if spectrum[s]:
            k = s.bit_count()
            # the ladder's slope changes, hinge by hinge
            slopes = [0] + [(-1) ** p for p in range(k)] + [0]
            for h in range(k + 1):
                weights.append(Fraction(-2 * spectrum[s] * (slopes[h + 1] - slopes[h]), 1 << n))
    return AffineForm(dict(enumerate(weights)), Fraction(sum(spectrum), 1 << n))


def _assert_same_as_reference(got, want, cube):
    """``got`` and ``want`` differ only in how their output weights are held."""
    assert got == want and want == got
    assert got.output_gate.form == want.output_gate.form
    assert want.output_gate.form == got.output_gate.form
    assert repr(got) == repr(want)
    assert list(got.output_gate.form.weights) == list(want.output_gate.form.weights)
    assert dumps(circuit_to_json(got)) == dumps(circuit_to_json(want))
    width = got.widths[-1] if got.layers else got.input_count
    row = got.output_gate.form._integer_row(width)
    assert row == want.output_gate.form._integer_row(width)
    assert all(type(v) is int for v in row[0])
    low, ref = got._lowered, want._lowered
    for field in ("bound", "output_den", "products", "top"):
        assert getattr(low, field) == getattr(ref, field), field
    for field in ("output", "skip"):
        (row, scale), (ref_row, ref_scale) = getattr(low, field), getattr(ref, field)
        assert (row.dtype, row.tolist(), scale) == (ref_row.dtype, ref_row.tolist(), ref_scale), field
    if cube:
        fwd, ref_fwd = forward_on_cube(got), forward_on_cube(want)
        assert fwd.output_pre_num.tolist() == ref_fwd.output_pre_num.tolist()
        assert fwd.output_pre_den == ref_fwd.output_pre_den


def _junta(n, k, rng):
    """A random table of the first k coordinates, as a table of arity n."""
    values = [rng.getrandbits(1) for _ in range(1 << k)]
    return TruthTable(n, sum(values[i % (1 << k)] << i for i in range(1 << n)))


@pytest.mark.parametrize("route", [universal_vertex_indicators, universal_fourier])
def test_routes_match_their_dict_built_output_forms(monkeypatch, route):
    rng = random.Random(2207)
    tables = [TruthTable(n, rng.getrandbits(1 << n)) for n in range(1, 11)]
    tables += [TruthTable(n, 0) for n in (1, 5)]
    # above the cached arities; a junta keeps the Fourier circuit small
    tables.append(_junta(13, 6, rng))
    for per_block in (False, True):
        if per_block:
            # the same tables again on the per-block path; n = 13 is there already
            monkeypatch.setattr(constructions, "_CACHE_BITS", -1)
            tables.pop()
        for t in tables:
            got = route(t)
            want = Circuit(t.arity, got.layers, Gate(GateKind.SUM, _reference_output(route, t)))
            if got.layers:
                assert type(got.output_gate.form.weights) is _RowWeights
            _assert_same_as_reference(got, want, cube=got.size * (1 << t.arity) <= 1 << 23)
            assert truth_table(got) == t


def test_row_weights_read_as_the_dict_they_stand_for():
    # numerators 2, -6, 4 over 8 reduce to 1, -3, 2 over 4
    row = _RowWeights([1, 4, 6], np.array([2, -6, 4]), 8)
    plain = {1: Fraction(1, 4), 4: Fraction(-3, 4), 6: Fraction(1, 2)}
    assert row.scale == 4 and row.numerators.tolist() == [1, -3, 2]
    assert row == plain and plain == row
    assert repr(row) == repr(plain) and len(row) == 3 and list(row) == [1, 4, 6]
    assert list(row.items()) == list(plain.items())
    assert list(row.values()) == list(plain.values())
    assert row[4] == row[Fraction(4)] == Fraction(-3, 4) and row[True] == Fraction(1, 4)
    assert 6 in row and 5 not in row and "x1" not in row and row.get(0) is None
    with pytest.raises(KeyError):
        row[7]
    # a bias whose denominator the scale does not divide scales the row
    for bias in (Fraction(0), Fraction(1, 3), Fraction(-5, 8)):
        assert AffineForm(row, bias)._integer_row(8) == AffineForm(plain, bias)._integer_row(8)
        assert AffineForm(row, bias).value(range(8)) == AffineForm(plain, bias).value(range(8))
    assert _RowWeights(range(0), np.array([], dtype=np.int64), 16) == {}
    # the read check bounds the ascending positions by the first and last
    out = Gate(GateKind.SUM, AffineForm(row, Fraction(0)))
    with pytest.raises(WireError, match=r"the output gate: \[6\] not among the 6 positions"):
        Circuit(6, (), out)
    with pytest.raises(WireError, match=r"the output gate: \[-1\]"):
        Circuit(5, (), Gate(GateKind.SUM, AffineForm(_RowWeights([-1, 2], np.array([1, 1]), 1))))
    assert Circuit(7, (), out) == Circuit(7, (), Gate(GateKind.SUM, AffineForm(plain)))


def test_walsh_hadamard_gives_python_ints_and_parseval_holds():
    rng = random.Random(2208)
    for n in range(11):
        exp = walsh_hadamard(TruthTable(n, rng.getrandbits(1 << n)))
        for s, c in exp.coefficients.items():
            assert type(s) is int and type(c.numerator) is int and type(c.denominator) is int
        assert sum(c * c for c in exp.coefficients.values()) == 1
