"""Restrictions: gate classification, circuit collapse, selector claims, survival."""

import itertools
import random
from fractions import Fraction

import pytest

from relucirc import (
    AndreevInput,
    ArityError,
    Circuit,
    Gate,
    GateKind,
    Removability,
    Restriction,
    WeightDistribution,
    affine,
    andreev,
    andreev_layout,
    andreev_restricted_table,
    apply_restriction,
    bit_to_sign,
    evaluate,
    fold,
    removability,
    sample_andreev_restriction,
    sign_to_bit,
    survival_experiment,
    vertex,
)
from relucirc.restriction import random_ltf_of_relu

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
# fold

def test_fold_absorbs_fixed_coordinates():
    f = form_of((1, 2, 3), 0)
    folded = fold(f, Restriction(3, {2: -1}))
    assert folded.weights == {0: 1, 2: 3}
    assert folded.bias == -2


def test_fold_everything_leaves_a_constant():
    f = form_of((1, 2), 5)
    folded = fold(f, Restriction(2, {1: 1, 2: -1}))
    assert folded.weights == {}
    assert folded.bias == 4


def test_fold_with_nothing_fixed_is_identity():
    f = form_of((1, -2), Fraction(1, 3))
    assert fold(f, Restriction(2, {})) == f


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
    assert report.linearized == ("g1.1",)
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
    assert report.survivors == ("g1.1", "g1.2")
    assert report.restricted.size == c.size
    assert slice_matches(c, rho, report)


def test_report_ids_partition_the_bottom_layer():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 8)
        c = random_ltf_of_relu(n, rng.randint(1, 5), 3, rng)
        fixed = {i: rng.choice((-1, 1)) for i in range(1, n + 1)
                 if rng.random() < 0.5}
        report = apply_restriction(c, Restriction(n, fixed))
        ids = sorted(report.removed_as_zero + report.linearized + report.survivors)
        assert ids == [f"g1.{j + 1}" for j in range(len(c.layers[0]))]


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
    dist = WeightDistribution(bound=3)
    rows = survival_experiment([16], gate_count=8, dist=dist, trials=200, seed=7)
    (row,) = rows
    assert row.n == 16 and row.gate_count == 8 and row.bound == 3
    assert row.trials == 200 and row.seed == 7
    assert 0.0 <= row.mean_survival <= 1.0
    assert row.ci95_lo <= row.mean_survival <= row.ci95_hi


def test_survival_experiment_is_deterministic():
    dist = WeightDistribution(bound=2)
    a = survival_experiment([8, 16], 6, dist, trials=100, seed=42)
    b = survival_experiment([8, 16], 6, dist, trials=100, seed=42)
    assert a == b


def test_weight_distribution_validates():
    with pytest.raises(ArityError):
        WeightDistribution(bound=0)
    with pytest.raises(ArityError):
        WeightDistribution(bound=2, name="gaussian")
