"""Kink lines of planar ReLU sums and the max{0,x1,x2} refutation machinery."""

import random
from fractions import Fraction

import numpy as np
import pytest

from relucirc import (
    ArityError,
    Circuit,
    Gate,
    GateKind,
    affine,
    canonical_line,
    dump_pwl,
    evaluate,
    first_grid_mismatch,
    grid_max_error,
    load_pwl,
    max0xy_depth2,
    max0xy_one_sided,
    max0xy_smooth_at,
    max0xy_value,
    nondiff_locus,
    pwl_from_depth2,
    pwl_from_json,
    pwl_sum,
    pwl_to_json,
    refutation_to_json,
    refute_max0xy,
    verify_depth2_max,
)
from relucirc import pwl
from relucirc.pwl import grid_points

from conftest import (
    random_circuit,
    scalar_first_grid_mismatch,
    scalar_grid,
    scalar_grid_max_error,
)


def finite_difference_slope(f, p, v):
    """One-sided derivative by shrinking exact rational steps.

    A finite sum of ReLUs is exactly linear along a short enough ray, so the
    difference quotient stabilizes; three consecutive equal values is taken
    as convergence.
    """
    eps = Fraction(1)
    seen = []
    for _ in range(64):
        q = (f.value((p[0] + eps * v[0], p[1] + eps * v[1])) - f.value(p)) / eps
        seen.append(q)
        if len(seen) >= 3 and seen[-1] == seen[-2] == seen[-3]:
            return seen[-1]
        eps /= 2
    raise AssertionError("difference quotient did not stabilize")


def random_pwl(rng, max_terms=6):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        a = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        terms.append((c, a, b))
    return pwl_sum(terms)


# ---------------------------------------------------------------------------
# canonical lines

def test_canonical_line_clears_denominators():
    line, lam = canonical_line((2, 4), 6)
    assert line.normal == (1, 2)
    assert line.offset == 3
    assert lam == 2


def test_canonical_line_fixes_the_orientation():
    line, lam = canonical_line((-1, -2), -3)
    assert line.normal == (1, 2)
    assert line.offset == 3
    assert lam == -1
    vert, lam2 = canonical_line((0, Fraction(-1, 2)), 1)
    assert vert.normal == (0, 1)
    assert vert.offset == -2
    assert lam2 == Fraction(-1, 2)


def test_canonical_line_contains_its_base_point():
    line, _ = canonical_line((3, -5), Fraction(7, 2))
    assert line.contains(line.base_point())


# ---------------------------------------------------------------------------
# the kink locus

def test_single_relu_locus():
    f = pwl_sum([(1, (1, 0), 0)])
    locus = nondiff_locus(f)
    assert len(locus.lines) == 1
    line = locus.lines[0]
    assert line.line.normal == (1, 0) and line.line.offset == 0
    assert line.jump == (1, 0)


def test_cancelling_terms_leave_no_locus():
    f = pwl_sum([(1, (1, 0), 0), (-1, (1, 0), 0)])
    assert nondiff_locus(f).lines == ()


def test_absolute_value_merges_orientations():
    f = pwl_sum([(1, (1, 0), 0), (1, (-1, 0), 0)])
    locus = nondiff_locus(f)
    assert len(locus.lines) == 1
    assert locus.lines[0].jump == (2, 0)


def test_constant_terms_produce_no_lines():
    f = pwl_sum([(5, (0, 0), 3), (1, (1, 1), -2)])
    assert len(nondiff_locus(f).lines) == 1


def test_locus_is_invariant_under_term_rewrites(rng):
    for _ in range(60):
        f = random_pwl(rng)
        shuffled = list(f.terms)
        rng.shuffle(shuffled)
        g = pwl_sum([(t.coeff, t.normal, t.bias) for t in shuffled])
        # (c, a, b) -> (c/2, 2a, 2b) keeps the function and the locus
        h = pwl_sum(
            [(t.coeff / 2, (2 * t.normal[0], 2 * t.normal[1]), 2 * t.bias)
             for t in f.terms]
        )
        assert nondiff_locus(g).lines == nondiff_locus(f).lines
        assert nondiff_locus(h).lines == nondiff_locus(f).lines


def test_locus_soundness_on_random_instances(rng):
    # on every locus line the sided slopes disagree; on every candidate line
    # that was excluded they agree
    for _ in range(200):
        f = random_pwl(rng)
        locus = nondiff_locus(f)
        kept = {loc.line for loc in locus.lines}
        candidates = {}
        for t in f.terms:
            if t.normal == (0, 0):
                continue
            line, _ = canonical_line(t.normal, t.bias)
            candidates[line] = True
        for line in candidates:
            others = [o for o in candidates if o != line]
            p = pick_smooth_point(line, others)
            v = (Fraction(line.normal[0]), Fraction(line.normal[1]))
            lhs = f.one_sided_derivative(p, v)
            rhs = f.one_sided_derivative(p, (-v[0], -v[1]))
            assert finite_difference_slope(f, p, v) == lhs
            if line in kept:
                assert lhs + rhs != 0
            else:
                assert lhs + rhs == 0


def pick_smooth_point(line, others):
    base = line.base_point()
    d = line.direction()
    for k in range(1, len(others) + 2):
        for s in (1, -1):
            p = (base[0] + s * k * d[0], base[1] + s * k * d[1])
            if all(not o.contains(p) for o in others):
                return p
    raise AssertionError("no clear point found on the line")


# ---------------------------------------------------------------------------
# one-sided derivatives

def test_one_sided_derivative_of_a_single_relu():
    f = pwl_sum([(1, (1, 0), 0)])
    origin = (Fraction(0), Fraction(0))
    assert f.one_sided_derivative(origin, (1, 0)) == 1
    assert f.one_sided_derivative(origin, (-1, 0)) == 0
    inside = (Fraction(2), Fraction(0))
    assert f.one_sided_derivative(inside, (-1, 0)) == -1


def test_one_sided_derivatives_match_difference_quotients(rng):
    for _ in range(80):
        f = random_pwl(rng)
        p = (Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
             Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        v = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        if v == (0, 0):
            continue
        assert f.one_sided_derivative(p, v) == finite_difference_slope(f, p, v)


# ---------------------------------------------------------------------------
# the target function

def test_target_values():
    assert max0xy_value((3, -1)) == 3
    assert max0xy_value((-2, -5)) == 0
    assert max0xy_value((1, 4)) == 4


def test_target_one_sided_derivatives_at_the_origin():
    origin = (Fraction(0), Fraction(0))
    assert max0xy_one_sided(origin, (1, 0)) == 1
    assert max0xy_one_sided(origin, (-1, -1)) == 0
    assert max0xy_one_sided(origin, (1, 1)) == 1


def test_target_smoothness_classification():
    assert max0xy_smooth_at((1, 4))
    assert max0xy_smooth_at((-1, -2))
    assert not max0xy_smooth_at((0, 0))
    assert not max0xy_smooth_at((2, 2))
    assert not max0xy_smooth_at((0, -3))
    assert not max0xy_smooth_at((-3, 0))
    # full lines beyond the three rays stay smooth
    assert max0xy_smooth_at((-2, -2))
    assert max0xy_smooth_at((0, 3))
    assert max0xy_smooth_at((4, 0))


# ---------------------------------------------------------------------------
# refutation

def witness_is_independently_valid(f, report):
    w = report.witness
    if w.kind == "value":
        return f.value(w.point) != max0xy_value(w.point)
    v = w.direction
    neg = (-v[0], -v[1])
    lhs = finite_difference_slope(f, w.point, v) + finite_difference_slope(
        f, w.point, neg
    )
    target = lambda: None
    target.value = max0xy_value
    rhs = finite_difference_slope(target, w.point, v) + finite_difference_slope(
        target, w.point, neg
    )
    return lhs != rhs


def test_refuting_a_single_relu():
    f = pwl_sum([(1, (1, 0), 0)])
    report = refute_max0xy(f)
    w = report.witness
    assert w.kind == "differentiability"
    assert w.point[0] == 0 and w.point[1] > 0  # on x1 = 0 where the target is smooth
    assert w.f_result != w.target_result
    assert witness_is_independently_valid(f, report)


def test_refuting_the_zero_function():
    f = pwl_sum([])
    report = refute_max0xy(f)
    w = report.witness
    assert w.kind == "value"
    assert w.point == (1, 0)
    assert abs(w.f_result - w.target_result) == 1
    assert report.grid_max_error == 10


def test_refuting_max_of_two():
    # (x1 + x2 + |x1 - x2|) / 2 = max{x1, x2} kinks on the whole line x1 = x2
    f = pwl_sum([
        (Fraction(1, 2), (1, -1), 0),
        (Fraction(1, 2), (-1, 1), 0),
        (Fraction(1, 2), (1, 1), 0),   # linear part as a cancelling pair
        (Fraction(-1, 2), (-1, -1), 0),
    ])
    for p in ((3, 1), (-2, 5), (-4, -4)):
        assert f.value(p) == max(p[0], p[1])
    report = refute_max0xy(f)
    w = report.witness
    assert w.kind == "differentiability"
    assert w.point[0] == w.point[1] and w.point[0] < 0  # target ray stops at 0
    assert witness_is_independently_valid(f, report)


def test_refutation_never_claims_representability(rng):
    for _ in range(60):
        f = random_pwl(rng)
        report = refute_max0xy(f)
        assert witness_is_independently_valid(f, report)
        assert report.grid_max_error > 0


def test_affine_functions_fail_at_one_of_four_probes(rng):
    # cancelling pairs make f affine but nonzero
    for _ in range(30):
        a = Fraction(rng.randint(-3, 3))
        b = Fraction(rng.randint(-3, 3))
        c = Fraction(rng.randint(-3, 3))
        f = pwl_sum([(1, (a, b), c), (-1, (-a, -b), -c)])
        report = refute_max0xy(f)
        assert report.witness.kind == "value"
        assert witness_is_independently_valid(f, report)


# ---------------------------------------------------------------------------
# grid checks for the depth-2 circuit

def test_depth2_circuit_matches_on_the_default_grid():
    assert verify_depth2_max(max0xy_depth2())


def test_perturbed_circuit_is_caught():
    c = max0xy_depth2()
    g = c.layers[0][0]
    bumped = Gate(g.kind, affine(dict(g.form.weights), g.form.bias + 1))
    broken = Circuit(
        c.input_count,
        ((bumped,) + c.layers[0][1:],) + c.layers[1:],
        c.output_gate,
        c.skip_wires,
    )
    assert not verify_depth2_max(broken)
    mismatch = first_grid_mismatch(broken, 10, Fraction(1, 2))
    point, got, want = mismatch
    assert got != want
    assert evaluate(broken, point) == got
    assert max0xy_value(point) == want


def test_origin_only_grid_passes():
    assert verify_depth2_max(max0xy_depth2(), grid_radius=0, grid_step=1)


def test_grid_axis_contents():
    assert grid_points(1, Fraction(1, 2)) == [
        -1, Fraction(-1, 2), 0, Fraction(1, 2), 1
    ]
    assert len(grid_points(10, Fraction(1, 2))) == 41
    assert grid_points(0, 1) == [0]
    with pytest.raises(ArityError):
        grid_points(1, 0)
    with pytest.raises(ArityError):
        grid_points(-1, 1)


def test_grid_error_values():
    assert grid_max_error(pwl_sum([]), 0, 1) == 0
    assert grid_max_error(pwl_sum([]), 1, 1) == 1
    assert grid_max_error(pwl_sum([(1, (1, 0), 0)]), 1, Fraction(1, 2)) == 1


# ---------------------------------------------------------------------------
# the integer grid scans against the scalar oracles


@pytest.fixture
def scans(monkeypatch):
    """One record per grid scan: whether its slabs held Python-int object
    arrays, and how many slabs it read."""
    records = []
    slabs = pwl._grid_slabs

    def spy(count, use_object):
        record = {"object": use_object, "slabs": 0}
        records.append(record)
        for slab in slabs(count, use_object):
            record["slabs"] += 1
            yield slab

    monkeypatch.setattr(pwl, "_grid_slabs", spy)
    return records


def test_grid_max_error_matches_the_scalar_oracle(rng, scans):
    def q(span, den):
        return Fraction(rng.randint(-span, span), rng.randint(1, den))

    for trial in range(100):
        terms = [
            (q(4, 3), (q(3, 2), q(3, 2)), q(4, 5)) for _ in range(rng.randint(0, 5))
        ]
        huge = trial % 4 == 3
        if huge:
            # one live term with a coefficient, normal or bias near 10^20
            big = Fraction(rng.choice((-1, 1)) * (10**20 + rng.randint(0, 99)), rng.randint(1, 3))
            c, a, b = Fraction(rng.randint(1, 4), rng.randint(1, 3)), (q(3, 2), q(3, 2)), q(4, 5)
            slot = rng.randrange(3)
            terms.insert(
                rng.randint(0, len(terms)),
                (big if slot == 0 else c, (big, a[1]) if slot == 1 else a, big if slot == 2 else b),
            )
        f = pwl_sum(terms)
        radius = Fraction(rng.randint(0, 4), rng.randint(1, 2))
        step = Fraction(rng.randint(1, 3), rng.randint(1, 4))
        assert grid_max_error(f, radius, step) == scalar_grid_max_error(f, radius, step)
        assert scans[-1]["object"] is huge


def _max_layers(scale=None):
    """max0xy_depth2's gates as editable (kind, weights, bias) rows, and its
    output weights and bias.  With scale = (k, j, s), hidden gate j of layer
    k (0-based) is multiplied by s > 0 and its readers' weights divided back,
    which keeps the function."""
    c = max0xy_depth2()
    layers = [[(g.kind, dict(g.form.weights), g.form.bias) for g in layer] for layer in c.layers]
    out_w, out_b = dict(c.output_gate.form.weights), c.output_gate.form.bias
    if scale is not None:
        k, j, s = scale
        kind, w, b = layers[k][j]
        layers[k][j] = (kind, {x: v * s for x, v in w.items()}, b * s)
        for reader in (out_w,) if k == 1 else (w for _, w, _ in layers[1]):
            if j in reader:
                reader[j] /= s
    return layers, out_w, out_b


def _max_circuit(layers, out_kind, out_w, out_b):
    return Circuit(
        2,
        tuple(tuple(Gate(kind, affine(w, b)) for kind, w, b in layer) for layer in layers),
        Gate(out_kind, affine(out_w, out_b)),
        max0xy_depth2().skip_wires,
    )


def _max_circuit_variant(rng, out_kind, huge):
    """max0xy_depth2 (skip wires included) under an `out_kind` output gate.

    With `huge`, one hidden gate is scaled by about 10^20, which forces
    object arrays.  Half the time one hidden gate is then nudged: its bias
    moves, or it turns into an LTF gate.  A RELU output keeps max{0, x1, x2},
    which is >= 0.
    """
    scale = None
    if huge:
        scale = (rng.randrange(2), rng.randrange(3), Fraction(10**20 + rng.randint(1, 99), rng.randint(1, 3)))
    layers, out_w, out_b = _max_layers(scale)
    if rng.random() < 0.5:
        k, j = rng.randrange(2), rng.randrange(3)
        kind, w, b = layers[k][j]
        if rng.random() < 0.5:
            layers[k][j] = (GateKind.LTF, w, b)
        else:
            layers[k][j] = (kind, w, b + Fraction(rng.choice((-1, 1)), rng.randint(1, 9)))
    return _max_circuit(layers, out_kind, out_w, out_b)


def test_first_grid_mismatch_matches_the_scalar_oracle(rng, scans):
    seen = set()
    for trial in range(96):
        out_kind = (GateKind.SUM, GateKind.RELU, GateKind.LTF)[trial % 3]
        huge = trial % 6 >= 3
        if trial % 8 == 7:
            c = random_circuit(
                rng, 2, rng.randint(1, 3), 3, out_kind=out_kind, span=10**19 if huge else 9
            )
        else:
            c = _max_circuit_variant(rng, out_kind, huge)
        radius = rng.randint(1, 3)
        step = Fraction(rng.choice((1, 2)), rng.randint(1, 3))
        got = first_grid_mismatch(c, radius, step)
        assert got == scalar_first_grid_mismatch(c, radius, step)
        assert scans[-1]["object"] is huge
        first = (-scalar_grid(radius, step)[-1],) * 2
        outcome = "none" if got is None else "first" if got[0] == first else "later"
        seen.add((out_kind, huge, outcome))
    for huge in (False, True):
        for kind in (GateKind.SUM, GateKind.RELU):
            assert {(kind, huge, "none"), (kind, huge, "later")} <= seen
        # an LTF output is +-1 and the target is 0 at (-r, -r)
        assert (GateKind.LTF, huge, "first") in seen


def test_the_int64_bound_counts_the_grid_step(scans):
    # small coefficients, but a step whose numerator and denominator are
    # near 2^60 puts the grid coordinates' numerators near 2^61
    fine, coarse = Fraction(2**60 + 1, 2**60), Fraction(1, 2)
    f = pwl_sum([(Fraction(3, 2), (1, -2), Fraction(1, 3)), (-1, (0, 1), 2)])
    layers, out_w, out_b = _max_layers()
    kind, w, b = layers[1][0]
    layers[1][0] = (kind, w, b - Fraction(1, 5))
    nudged = _max_circuit(layers, GateKind.SUM, out_w, out_b)
    for step in (fine, coarse):
        assert grid_max_error(f, 3, step) == scalar_grid_max_error(f, 3, step)
        for c in (max0xy_depth2(), nudged):
            assert first_grid_mismatch(c, 3, step) == scalar_first_grid_mismatch(c, 3, step)
    assert [r["object"] for r in scans] == [True] * 3 + [False] * 3
    assert verify_depth2_max(max0xy_depth2(), 3, fine)
    assert not verify_depth2_max(nudged, 3, fine)
    # no terms: the target alone passes 2^63 at k = 4, with a step numerator
    # just above 2^61
    step = Fraction(2**61 + 1, 2**61)
    assert grid_max_error(pwl_sum([]), 5, step) == 4 * step
    assert scans[-1]["object"]


def test_scans_of_a_grid_wider_than_one_slab(scans):
    radius, step = 300, Fraction(1, 2)
    side = 2 * 600 + 1   # radius / step = 600
    slabs = (side * side + 2**18 - 1) // 2**18
    assert slabs == 6
    # the slabs list every point once, in row-major order
    k1, k2 = (np.concatenate(ks) for ks in zip(*pwl._grid_slabs(600, False)))
    axis = np.arange(-600, 601)
    assert np.array_equal(k1, np.repeat(axis, side))
    assert np.array_equal(k2, np.tile(axis, side))
    assert grid_max_error(pwl_sum([]), radius, step) == radius
    assert verify_depth2_max(max0xy_depth2(), radius, step)
    assert [r["slabs"] for r in scans] == [slabs] * 3

    # a fourth second-layer gate ReLU(ReLU(x1) - 250), read with weight 1/3,
    # changes the output only where x1 > 250
    c = max0xy_depth2()
    extra = Gate(GateKind.RELU, affine({0: 1}, -250))
    out = c.output_gate.form
    broken = Circuit(
        2,
        (c.layers[0], c.layers[1] + (extra,)),
        Gate(GateKind.SUM, affine({**out.weights, 3: Fraction(1, 3)}, out.bias)),
        c.skip_wires,
    )
    point = (Fraction(501, 2), Fraction(-300))
    assert first_grid_mismatch(broken, radius, step) == (
        point, Fraction(501, 2) + Fraction(1, 6), Fraction(501, 2)
    )
    # its flat index (501 + 600) * side lies in the last slab
    assert (501 + 600) * side // 2**18 == slabs - 1
    assert scans[-1] == {"object": False, "slabs": slabs}


# ---------------------------------------------------------------------------
# one-hidden-layer circuits as term sums

def test_sum_circuits_convert_to_term_sums(rng):
    for _ in range(40):
        width = rng.randint(1, 4)
        gates = tuple(
            Gate(GateKind.RELU, affine(
                {0: Fraction(rng.randint(-3, 3)),
                 1: Fraction(rng.randint(-3, 3))},
                Fraction(rng.randint(-3, 3))))
            for _ in range(width)
        )
        out_w = {j: Fraction(rng.randint(-3, 3))
                 for j in range(width)}
        skip = affine(
            {0: Fraction(rng.randint(-2, 2)),
             1: Fraction(rng.randint(-2, 2))},
            Fraction(rng.randint(-2, 2)),
        ) if rng.random() < 0.5 else None
        c = Circuit(2, (gates,), Gate(GateKind.SUM, affine(out_w, 0)), skip)
        f = pwl_from_depth2(c)
        for _ in range(12):
            p = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                 Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            assert f.value(p) == evaluate(c, p)


# ---------------------------------------------------------------------------
# serialization

def test_pwl_json_round_trip(rng):
    for _ in range(25):
        f = random_pwl(rng)
        assert pwl_from_json(pwl_to_json(f)) == f


def test_pwl_file_round_trip(tmp_path, rng):
    f = random_pwl(rng)
    path = tmp_path / "f.json"
    dump_pwl(f, str(path))
    assert load_pwl(str(path)) == f


def test_refutation_report_shape():
    f = pwl_sum([(1, (1, 0), 0)])
    doc = refutation_to_json(refute_max0xy(f))
    assert set(doc) == {"locusLines", "witness", "gridMaxError"}
    (line,) = doc["locusLines"]
    assert set(line) == {"normal", "offset", "jump"}
    assert line["normal"] == [1, 0]
    assert set(doc["witness"]) == {
        "kind", "point", "direction", "fResult", "targetResult"
    }
    assert doc["witness"]["kind"] == "differentiability"
