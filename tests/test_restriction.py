"""Restrictions: gate classification, circuit collapse, selector claims, survival."""

import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from relucirc import (
    AffineForm,
    ArityError,
    Circuit,
    Gate,
    GateKind,
    Restriction,
    affine,
    andreev_layout,
    andreev_restricted_table,
    apply_restriction,
    evaluate,
    removability,
    sample_andreev_restriction,
    survival_experiment,
)
from relucirc import restriction as restriction_module
from relucirc.hardfuncs import AndreevInput, andreev
from relucirc.restriction import (
    Removability,
    bit_to_sign,
    random_ltf_of_relu,
    sign_to_bit,
)

from conftest import scalar_evaluate


def form_of(weights, bias):
    return affine(
        {i: Fraction(c) for i, c in enumerate(weights) if c},
        Fraction(bias),
    )


def brute_classification(form, rho):
    """Enumerate the free subcube and classify by the value range."""
    free = rho.free()
    values = []
    for assignment in itertools.product((-1, 1), repeat=len(free)):
        point = rho.fill(dict(zip(free, assignment)))
        values.append(
            form.value([Fraction(x) for x in point])
        )
    if max(values) <= 0:
        return Removability.CONSTANT_ZERO
    if min(values) >= 0:
        return Removability.LINEARIZED
    return Removability.SURVIVES


# ---------------------------------------------------------------------------
# removability

def test_zero_lower_bound_counts_as_linearized():
    f = form_of((1, 1, 1), 3)
    assert removability(f, Restriction(3, {})) is Removability.LINEARIZED


def test_negative_upper_bound_is_constant_zero():
    f = form_of((1, 1), -3)
    assert removability(f, Restriction(2, {})) is Removability.CONSTANT_ZERO


def test_straddling_zero_survives():
    f = form_of((2, -1), 0)
    assert removability(f, Restriction(2, {})) is Removability.SURVIVES


def test_classification_agrees_with_subcube_enumeration():
    rng = random.Random(41)
    for _ in range(1500):
        n = rng.randint(1, 12)
        f = affine(
            {i: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
             for i in range(n) if rng.random() < 0.8},
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        )
        fixed = {i: rng.choice((-1, 1)) for i in range(1, n + 1) if rng.random() < 0.4}
        rho = Restriction(n, fixed)
        assert removability(f, rho) is brute_classification(f, rho)


def test_restriction_validates_its_assignment():
    with pytest.raises(ArityError):
        Restriction(3, {4: 1})
    with pytest.raises(ArityError):
        Restriction(3, {1: 0})


# ---------------------------------------------------------------------------
# apply_restriction

def slice_matches(circuit, rho, report):
    """Original circuit at rho.fill == restricted circuit on the free cube."""
    free = rho.free()
    restricted = report.restricted
    assert restricted.input_count == len(free)
    for assignment in itertools.product((-1, 1), repeat=len(free)):
        full = rho.fill(dict(zip(free, assignment)))
        if scalar_evaluate(circuit, full) != scalar_evaluate(restricted, assignment):
            return False
    return True


def test_single_linearized_gate_leaves_no_relus():
    gates = (Gate(GateKind.RELU, form_of((1, 1, 1), 3)),)
    out = Gate(GateKind.LTF, affine({0: Fraction(1)}, -2))
    c = Circuit(3, (gates,), out)
    rho = Restriction(3, {})
    report = apply_restriction(c, rho)
    assert report.linearized == (0,)
    assert report.restricted.relu_count == 0
    assert slice_matches(c, rho, report)


def test_all_surviving_gates_keep_the_size():
    gates = (
        Gate(GateKind.RELU, form_of((2, -1), 0)),
        Gate(GateKind.RELU, form_of((-1, 2), 0)),
    )
    out = Gate(
        GateKind.LTF,
        affine({0: Fraction(1), 1: Fraction(-1)}, 0),
    )
    c = Circuit(2, (gates,), out)
    rho = Restriction(2, {})
    report = apply_restriction(c, rho)
    assert report.survivors == (0, 1)
    assert report.restricted.size == c.size
    assert slice_matches(c, rho, report)


def test_report_positions_partition_the_bottom_layer():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 8)
        c = random_ltf_of_relu(n, rng.randint(1, 5), 3, rng)
        fixed = {i: rng.choice((-1, 1)) for i in range(1, n + 1)
                 if rng.random() < 0.5}
        report = apply_restriction(c, Restriction(n, fixed))
        positions = sorted(report.removed_as_zero + report.linearized + report.survivors)
        assert positions == list(range(len(c.layers[0])))


def test_depth2_slice_equality_on_random_circuits():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(2, 8)
        c = random_ltf_of_relu(n, rng.randint(1, 6), 4, rng)
        fixed = dict(
            (i, rng.choice((-1, 1)))
            for i in rng.sample(range(1, n + 1), n // 2)
        )
        rho = Restriction(n, fixed)
        assert slice_matches(c, rho, apply_restriction(c, rho))


def test_deeper_layers_fold_but_only_the_bottom_collapses(rng):
    from conftest import random_circuit
    for _ in range(80):
        n = rng.randint(2, 6)
        c = random_circuit(rng, n, rng.randint(3, 4), 3, rational=False,
                           skip_ok=False, bottom_relu_only=True)
        fixed = {i: rng.choice((-1, 1)) for i in range(1, n + 1)
                 if rng.random() < 0.6}
        rho = Restriction(n, fixed)
        assert slice_matches(c, rho, apply_restriction(c, rho))


def test_layers_above_the_second_keep_their_lowering(rng):
    from conftest import random_circuit
    c = random_circuit(rng, 6, 4, 3, skip_ok=False, bottom_relu_only=True)
    c._lowered.arrays(np.int64)
    restricted = apply_restriction(c, Restriction(6, {1: 1, 4: -1})).restricted
    assert restricted.layers[2] is c.layers[2]
    assert restricted._lowered.layers[2] is c._lowered.layers[2]
    # the int64 kernel reads the exact int64 matrix itself, with no copy
    matrix = c._lowered.layers[2][0]
    assert matrix.dtype == np.int64
    assert restricted._lowered.arrays(np.int64)[0][2][0] is matrix


@pytest.mark.parametrize("weights, bias, fixed, want_weights, want_bias", [
    # fixed coordinates fold into the bias; free ones keep their weights
    ((1, 2, 3), 0, {2: -1}, {0: 1, 1: 3}, -2),
    # fixing everything leaves a constant
    ((1, 2), 5, {1: 1, 2: -1}, {}, 4),
    # with nothing fixed the form is unchanged
    ((1, -2), Fraction(1, 3), {}, {0: 1, 1: -2}, Fraction(1, 3)),
])
def test_kept_bottom_gates_carry_their_folded_forms(
    weights, bias, fixed, want_weights, want_bias
):
    # in a depth-3 circuit every gate not forced to zero stays in place
    n = len(weights)
    bottom = (Gate(GateKind.RELU, form_of(weights, bias)),)
    second = (Gate(GateKind.RELU, affine({0: 1})),)
    c = Circuit(n, (bottom, second), Gate(GateKind.SUM, affine({0: 1})))
    (gate,) = apply_restriction(c, Restriction(n, fixed)).restricted.layers[0]
    assert gate.form == AffineForm(want_weights, want_bias)


def test_weights_past_int64_collapse_exactly():
    big = 1 << 70
    gates = (
        Gate(GateKind.RELU, form_of((big, big + 1, -big), -1)),
        Gate(GateKind.RELU, form_of((1, -big, big), big)),
        Gate(GateKind.RELU, form_of((big, 1, 1), -big)),
    )
    c = Circuit(3, (gates,), Gate(GateKind.SUM, affine({0: 1, 1: -1, 2: 3})))
    for fixed in ({1: 1}, {1: -1, 2: 1}, {3: -1}, {1: 1, 2: 1, 3: 1}):
        rho = Restriction(3, fixed)
        report = apply_restriction(c, rho)
        assert slice_matches(c, rho, report)
        got = dict.fromkeys(report.removed_as_zero, Removability.CONSTANT_ZERO)
        got.update(dict.fromkeys(report.linearized, Removability.LINEARIZED))
        got.update(dict.fromkeys(report.survivors, Removability.SURVIVES))
        for j, g in enumerate(gates):
            assert got[j] is brute_classification(g.form, rho)
            assert removability(g.form, rho) is got[j]


def test_only_the_depth_2_output_drops_explicit_zero_weights():
    # both bottom gates survive the empty restriction; the readers hold an
    # explicit zero weight on the first, as a document may
    gates = (Gate(GateKind.RELU, form_of((1, 1), 0)), Gate(GateKind.RELU, form_of((1, -1), 0)))
    reader = AffineForm({0: Fraction(0), 1: Fraction(1)}, Fraction(0))
    rho = Restriction(2, {})
    shallow = apply_restriction(Circuit(2, (gates,), Gate(GateKind.SUM, reader)), rho)
    assert shallow.survivors == (0, 1)
    assert dict(shallow.restricted.output_gate.form.weights) == {1: 1}
    deep = Circuit(2, (gates, (Gate(GateKind.RELU, reader),)), Gate(GateKind.SUM, affine({0: 1})))
    (second,) = apply_restriction(deep, rho).restricted.layers[1]
    assert dict(second.form.weights) == {0: 0, 1: 1}


def test_restriction_does_not_import_serialize():
    tree = ast.parse(Path(restriction_module.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert "serialize" not in (node.module or "").split(".")
            assert "serialize" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert all("serialize" not in alias.name.split(".") for alias in node.names)


def test_fixing_everything_yields_an_input_free_circuit():
    rng = random.Random(3)
    c = random_ltf_of_relu(4, 3, 2, rng)
    rho = Restriction(4, {1: 1, 2: -1, 3: 1, 4: -1})
    report = apply_restriction(c, rho)
    assert report.restricted.input_count == 0
    assert scalar_evaluate(report.restricted, ()) == scalar_evaluate(
        c, (1, -1, 1, -1)
    )


# ---------------------------------------------------------------------------
# the selector restriction family

def test_bit_sign_conventions():
    assert bit_to_sign(0) == 1 and bit_to_sign(1) == -1
    assert sign_to_bit(1) == 0 and sign_to_bit(-1) == 1


def test_one_free_coordinate_per_matrix_row():
    for n in (8, 16, 32):
        half, rows, cols = andreev_layout(n)
        rho = sample_andreev_restriction(n, (0,) * half, seed=5)
        free = rho.free()
        assert len(free) == rows
        for i, coord in enumerate(sorted(free)):
            row_lo = half + i * cols + 1
            assert row_lo <= coord <= row_lo + cols - 1


def test_x_block_is_pinned_to_x_star():
    x_star = (1, 0, 1, 1)
    rho = sample_andreev_restriction(8, x_star, seed=11)
    for i, bit in enumerate(x_star, start=1):
        assert rho.fixed[i] == bit_to_sign(bit)


def test_same_seed_same_restriction():
    a = sample_andreev_restriction(16, (1, 0) * 4, seed=123)
    b = sample_andreev_restriction(16, (1, 0) * 4, seed=123)
    assert a == b
    c = sample_andreev_restriction(16, (1, 0) * 4, seed=124)
    assert a != c


def restricted_table_by_enumeration(rho, n):
    """Evaluate the selector over the free cube, indexed by row parities."""
    half, rows, cols = andreev_layout(n)
    free = sorted(rho.free())
    out = {}
    for assignment in itertools.product((0, 1), repeat=len(free)):
        signs = rho.fill(
            {c: bit_to_sign(b) for c, b in zip(free, assignment)}
        )
        bits = [sign_to_bit(s) for s in signs]
        inp = AndreevInput.from_bits(n, bits)
        parities = 0
        for i in range(rows):
            parities = 2 * parities + sum(inp.rows[i]) % 2
        out[parities] = andreev(inp)
    return tuple(out[i] for i in range(1 << rows))


def test_restricted_selector_table_equals_x_star():
    rng = random.Random(2024)
    for n in (8, 16):
        half, rows, _ = andreev_layout(n)
        for _ in range(40):
            x_star = tuple(rng.randint(0, 1) for _ in range(half))
            rho = sample_andreev_restriction(n, x_star, seed=rng.randint(0, 10**9))
            table = andreev_restricted_table(rho, n)
            assert table == x_star
            assert table == restricted_table_by_enumeration(rho, n)


# ---------------------------------------------------------------------------
# survival statistics

def test_always_dead_gate_is_removed_under_every_restriction():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(1, 10)
        w = [rng.randint(-4, 4) for _ in range(n)]
        b = -(sum(abs(c) for c in w) + rng.randint(1, 5))
        f = form_of(w, b)
        fixed = {i: rng.choice((-1, 1)) for i in range(1, n + 1)
                 if rng.random() < 0.5}
        assert removability(f, Restriction(n, fixed)) is Removability.CONSTANT_ZERO


def test_survival_rows_are_sane_and_seeded():
    rows = survival_experiment([16], gate_count=8, bound=3, trials=200, seed=7)
    (row,) = rows
    assert row.n == 16 and row.gate_count == 8 and row.bound == 3
    assert row.trials == 200 and row.seed == 7
    assert 0.0 <= row.mean_survival <= 1.0
    assert row.ci95_lo <= row.mean_survival <= row.ci95_hi


def test_survival_experiment_is_deterministic():
    a = survival_experiment([8, 16], 6, 2, trials=100, seed=42)
    b = survival_experiment([8, 16], 6, 2, trials=100, seed=42)
    assert a == b


def scalar_survival_fracs(n, gates, bound, trials, seed):
    """Each trial's surviving fraction, from the sweep's stream on Python ints:
    one free column per matrix row, then the weights, the biases and the signs."""
    half = n // 2
    rows = half.bit_length() - 1
    cols = n // (2 * rows)
    fracs = []
    for t in range(trials):
        rng = np.random.default_rng([seed, n, t])
        free = [False] * n
        for i in range(rows):
            free[half + i * cols + int(rng.integers(cols))] = True
        w = rng.integers(-bound, bound + 1, size=(gates, n)).tolist()
        b = rng.integers(-bound, bound + 1, size=gates).tolist()
        signs = (rng.integers(0, 2, size=n) * 2 - 1).tolist()
        alive = 0
        for row_w, bias in zip(w, b):
            folded = bias + sum(c * x for c, x, f in zip(row_w, signs, free) if not f)
            mass = sum(abs(c) for c, f in zip(row_w, free) if f)
            alive += abs(folded) < mass
        fracs.append(alive / gates)
    return fracs


def test_survival_is_exact_past_int64():
    # (n + 1) W >= 2^62, so folded biases would wrap in int64
    n, gates, trials, bound = 1024, 32, 20, 1 << 61
    (row,) = survival_experiment([n], gates, bound, trials, seed=0)
    assert row.mean_survival == float(np.mean(scalar_survival_fracs(n, gates, bound, trials, 0)))


@pytest.mark.parametrize("n", [16, 64])
def test_survival_matches_the_scalar_oracle_on_int64(n):
    gates, trials, bound = 8, 30, 4
    (row,) = survival_experiment([n], gates, bound, trials, seed=2)
    fracs = scalar_survival_fracs(n, gates, bound, trials, 2)
    assert row.mean_survival == float(np.mean(fracs))
    half_width = 1.96 * float(np.std(fracs, ddof=1)) / float(np.sqrt(trials))
    assert (row.ci95_lo, row.ci95_hi) == (row.mean_survival - half_width, row.mean_survival + half_width)
