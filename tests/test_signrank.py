"""Sign matrices: orderings, cones, block structure, exact rank, spectral bound."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relucirc import (
    ArityError,
    Circuit,
    ComposedParams,
    ContractError,
    Gate,
    GateKind,
    InvariantViolationError,
    RationalMatrix,
    ResourceCapError,
    SignMatrix,
    SpectralNormDiverged,
    VertexOrdering,
    affine,
    arkadev_nikhil,
    block_partition,
    cone_membership,
    evaluate,
    exact_rank,
    float_singular_values,
    forster_lower_bound,
    inner_product_matrix,
    inner_product_sign,
    pre_sign_matrix,
    random_cone_circuit,
    sign_matrix,
    sign_pattern,
    sign_rank_is_one,
    spectral_norm,
    superincreasing_vectors,
    top_decomposition,
    verify_block_bound,
    vertex,
)


def rational(entries):
    return RationalMatrix(
        tuple(tuple(Fraction(e) for e in row) for row in entries)
    )


def signs(entries):
    return SignMatrix(tuple(tuple(int(e) for e in row) for row in entries))


# ---------------------------------------------------------------------------
# orderings

def test_standard_ordering_reverses_the_indices():
    assert VertexOrdering.standard(3).order == (7, 6, 5, 4, 3, 2, 1, 0)


def test_standard_ordering_makes_the_objective_increase():
    m = 4
    sigma = VertexOrdering.standard(m)
    r = [1 << i for i in range(m)]
    dots = [sum(r[i] * vertex(m, idx)[i] for i in range(m)) for idx in sigma.order]
    assert dots == sorted(dots)
    assert len(set(dots)) == len(dots)


def test_objective_with_ties_is_rejected():
    with pytest.raises(ContractError):
        VertexOrdering.from_objective(2, (0, 0))
    with pytest.raises(ContractError):
        VertexOrdering.from_objective(2, (1, 1))


def test_orderings_must_be_permutations():
    with pytest.raises(ArityError):
        VertexOrdering(1, (0, 0))


# ---------------------------------------------------------------------------
# sign matrices of two-party functions

def test_concatenated_parity_matrix_m1():
    M = sign_matrix(lambda x, y: x[0] * y[0], 1)
    assert M.entries == ((1, -1), (-1, 1))


def test_constant_function_gives_all_ones():
    M = sign_matrix(lambda x, y: 1, 2)
    assert all(e == 1 for row in M.entries for e in row)


def test_composed_function_matrix_matches_pointwise():
    p = ComposedParams(2, 1)
    M = sign_matrix(lambda x, y: arkadev_nikhil(p, x, y), 2)
    for i in range(4):
        for j in range(4):
            assert M.entries[i][j] == arkadev_nikhil(p, vertex(2, i), vertex(2, j))


def test_sign_matrix_respects_orderings():
    sigma = VertexOrdering.standard(1)
    M = sign_matrix(lambda x, y: x[0] * y[0], 1, row_order=sigma, col_order=sigma)
    # rows and columns both reversed; the pattern is preserved here
    assert M.entries == ((1, -1), (-1, 1))
    N = sign_matrix(lambda x, y: x[0], 1, row_order=sigma)
    assert N.entries == ((-1, -1), (1, 1))


def test_sign_matrix_obeys_the_matrix_cap():
    with pytest.raises(ResourceCapError):
        sign_matrix(lambda x, y: 1, 13)
    with pytest.raises(ResourceCapError):
        inner_product_matrix(13)


def test_inner_product_matrix_small_case():
    M = inner_product_matrix(1)
    assert M.entries == ((1, 1), (1, -1))
    assert inner_product_sign((1, -1), (1, 1)) == 1
    assert inner_product_sign((-1,), (-1,)) == -1


# ---------------------------------------------------------------------------
# pre-sign matrices

def cone_test_circuit(m, seed, widths=(2,), bound=3):
    return random_cone_circuit(m, widths, bound=bound, rng=random.Random(seed))


def test_constant_bias_circuit_gives_all_ones_rank_one():
    c = Circuit(2, (), Gate(GateKind.LTF, affine({}, 1)))
    M = pre_sign_matrix(c, 1)
    assert all(e == 1 for row in M.entries for e in row)
    assert exact_rank(M) == 1


def test_sign_of_pre_sign_matches_the_truth_table():
    for seed in range(12):
        m = 2 + seed % 3
        c = cone_test_circuit(m, seed)
        pre = pre_sign_matrix(c, m)
        M = sign_pattern(pre)
        for i in range(1 << m):
            x = vertex(m, i)
            for j in range(1 << m):
                y = vertex(m, j)
                assert M.entries[i][j] == evaluate(c, x + y)


def test_pre_sign_is_linear_under_circuit_merge():
    def depth2(m, seed):
        rng = random.Random(seed)
        gates = tuple(
            Gate(GateKind.RELU, affine(
                {i: Fraction(rng.randint(-3, 3))
                 for i in range(2 * m)},
                rng.randint(-2, 2)))
            for _ in range(2)
        )
        out = Gate(GateKind.LTF, affine(
            {j: Fraction(rng.randint(-3, 3)) for j in range(2)},
            rng.randint(-2, 2)))
        return Circuit(2 * m, (gates,), out)

    m = 2
    a, b = depth2(m, 1), depth2(m, 2)
    merged_gates = a.layers[0] + b.layers[0]
    merged_out_w = dict(a.output_gate.form.weights)
    for j, g in enumerate(b.layers[0]):
        merged_out_w[len(a.layers[0]) + j] = b.output_gate.form.weights[j]
    merged = Circuit(
        2 * m,
        (merged_gates,),
        Gate(GateKind.LTF, affine(
            merged_out_w, a.output_gate.form.bias + b.output_gate.form.bias)),
    )
    Ma = pre_sign_matrix(a, m)
    Mb = pre_sign_matrix(b, m)
    Mm = pre_sign_matrix(merged, m)
    for i in range(1 << m):
        for j in range(1 << m):
            assert Mm.entries[i][j] == Ma.entries[i][j] + Mb.entries[i][j]


def test_pre_sign_rejects_wrong_arity():
    c = Circuit(3, (), Gate(GateKind.LTF, affine({}, 1)))
    with pytest.raises(Exception):
        pre_sign_matrix(c, 2)


def test_top_decomposition_reassembles_the_matrix():
    for seed in (3, 7, 11):
        m = 3
        c = cone_test_circuit(m, seed, widths=(3, 2))
        beta, alphas, mats = top_decomposition(c, m)
        pre = pre_sign_matrix(c, m)
        side = 1 << m
        for i in range(side):
            for j in range(side):
                acc = beta
                for a, F in zip(alphas, mats):
                    acc += a * F.entries[i][j]
                assert acc == pre.entries[i][j]


# ---------------------------------------------------------------------------
# cones

def test_generating_objective_is_in_its_own_cone():
    sigma = VertexOrdering.standard(3)
    assert cone_membership((1, 2, 4), sigma)


def test_zero_vector_is_in_every_cone():
    assert cone_membership((0, 0, 0), VertexOrdering.standard(3))
    assert cone_membership((0, 0, 0), VertexOrdering.identity(3))


def test_reversed_weights_leave_the_cone():
    assert not cone_membership((4, 2, 1), VertexOrdering.standard(3))


def test_superincreasing_family_is_within_bounds():
    fam = superincreasing_vectors(3, 4)
    assert (1, 2, 4) in fam
    assert (1, 0, 0) not in fam  # a zero after a positive entry breaks the order
    for a in fam:
        total = 0
        for c in a:
            assert total <= c <= 4
            total += c


@given(st.integers(2, 8), st.data())
@settings(max_examples=120, deadline=None)
def test_superincreasing_vectors_live_in_the_standard_cone(m, data):
    # a_i >= a_1 + ... + a_{i-1} at every position
    a = []
    total = 0
    for _ in range(m):
        c = data.draw(st.integers(total, total + 3))
        a.append(c)
        total += c
    assert cone_membership(a, VertexOrdering.standard(m))


# ---------------------------------------------------------------------------
# block structure

def test_all_ones_matrix_is_one_block():
    p = block_partition(rational([[1] * 4] * 4))
    assert p.row_blocks == 1 and p.col_blocks == 1


def test_single_gate_blocks_match_the_dot_product_values():
    # ReLU((x1 + 2 x2) + (y1 + 2 y2)) has 4 distinct x-half dot products
    w = {
        0: Fraction(1), 1: Fraction(2),
        2: Fraction(1), 3: Fraction(2),
    }
    c = Circuit(
        4,
        ((Gate(GateKind.RELU, affine(w, 0)),),),
        Gate(GateKind.LTF, affine({0: Fraction(1)}, 0)),
    )
    sigma = VertexOrdering.standard(2)
    M = pre_sign_matrix(c, 2, sigma, sigma)
    p = block_partition(M)
    assert p.row_blocks <= 4 and p.col_blocks <= 4


def test_identity_pattern_has_maximal_blocks():
    side = 8
    eye = [[1 if i == j else -1 for j in range(side)] for i in range(side)]
    p = block_partition(signs(eye))
    assert p.row_blocks == side and p.col_blocks == side


def test_block_partition_boundaries_partition_the_axis():
    M = rational([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]])
    p = block_partition(M)
    assert p.row_starts == (0, 2)
    assert p.col_starts == (0, 2)
    assert p.row_blocks == 2 and p.col_blocks == 2


# ---------------------------------------------------------------------------
# the block bound

def test_depth2_block_bound_value():
    sigma = VertexOrdering.standard(3)
    c = cone_test_circuit(3, 5, widths=(2,), bound=2)
    report = verify_block_bound(c, 3, 2, sigma, sigma)
    assert report["bound"] == 2 * 3 * 2 * 2 + 1 == 25
    assert report["rowBlocks"] <= 25 and report["colBlocks"] <= 25
    assert report["exactRank"] <= min(report["rowBlocks"], report["colBlocks"])
    assert report["widths"] == [2]


def test_single_gate_block_bound():
    sigma = VertexOrdering.standard(2)
    w = {i: Fraction(c) for i, c in enumerate((1, 2, 1, 2))}
    c = Circuit(
        4,
        ((Gate(GateKind.RELU, affine(w, 1)),),),
        Gate(GateKind.LTF, affine({0: Fraction(1)}, 0)),
    )
    report = verify_block_bound(c, 2, 2, sigma, sigma)
    assert report["rowBlocks"] <= 2 * 2 * 2 + 1


def test_cone_violation_names_the_gate():
    sigma = VertexOrdering.standard(3)
    w = {i: Fraction(c) for i, c in enumerate((3, 2, 1, 1, 2, 3))}
    c = Circuit(
        6,
        ((Gate(GateKind.RELU, affine(w, 0)),),),
        Gate(GateKind.LTF, affine({0: Fraction(1)}, 0)),
    )
    with pytest.raises(ContractError, match="g1.1"):
        verify_block_bound(c, 3, 3, sigma, sigma)


def test_fractional_bottom_weights_are_rejected():
    sigma = VertexOrdering.standard(1)
    w = {0: Fraction(1, 2)}
    c = Circuit(
        2,
        ((Gate(GateKind.RELU, affine(w, 0)),),),
        Gate(GateKind.LTF, affine({0: Fraction(1)}, 0)),
    )
    with pytest.raises(ContractError):
        verify_block_bound(c, 1, 2, sigma, sigma)


# ---------------------------------------------------------------------------
# exact rank

def test_rank_of_all_ones_is_one():
    assert exact_rank(rational([[1] * 8] * 8)) == 1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_inner_product_matrix_has_full_rank(m):
    assert exact_rank(inner_product_matrix(m)) == 1 << m


def test_rank_agrees_with_floating_point_on_small_integers():
    rng = random.Random(77)
    for _ in range(40):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        M = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        assert exact_rank(M) == np.linalg.matrix_rank(np.array(M, dtype=float))


def test_rank_is_invariant_under_row_scaling():
    rng = random.Random(5)
    base = [[Fraction(rng.randint(-4, 4)) for _ in range(5)] for _ in range(5)]
    scaled = [
        [e * Fraction(rng.randint(1, 9), rng.randint(1, 9)) for e in row]
        for row in base
    ]
    assert exact_rank(rational(base)) == exact_rank(rational(scaled))


def test_rank_subadditivity_over_the_decomposition():
    for seed in range(8):
        m = 2 + seed % 3
        c = cone_test_circuit(m, 100 + seed, widths=(3,))
        beta, alphas, mats = top_decomposition(c, m)
        total = pre_sign_matrix(c, m)
        assert exact_rank(total) <= 1 + sum(exact_rank(F) for F in mats)


# ---------------------------------------------------------------------------
# spectral norm and the lower bound

def test_hadamard_spectral_identity():
    for m in (2, 3, 4):
        M = inner_product_matrix(m)
        side = 1 << m
        # exact check: M M^T = 2^m I
        for i in range(side):
            for j in range(side):
                dot = sum(M.entries[i][k] * M.entries[j][k] for k in range(side))
                assert dot == (side if i == j else 0)
        assert abs(spectral_norm(M) - 2 ** (m / 2)) <= 1e-6 * 2 ** (m / 2)
        assert abs(forster_lower_bound(M) - 2 ** (m / 2)) <= 1e-6


def test_all_ones_bound_is_one():
    M = signs([[1] * 4] * 4)
    assert abs(forster_lower_bound(M) - 1.0) <= 1e-9


def test_bound_never_exceeds_the_exact_rank():
    rng = random.Random(31)
    for _ in range(25):
        side = rng.choice((2, 4, 8))
        M = signs(
            [[rng.choice((-1, 1)) for _ in range(side)] for _ in range(side)]
        )
        assert forster_lower_bound(M) <= exact_rank(M) + 1e-6


def test_spectral_norm_matches_float_svd():
    rng = random.Random(13)
    for _ in range(20):
        rows = rng.randint(2, 6)
        cols = rng.randint(2, 6)
        M = rational(
            [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        )
        top = float_singular_values(M)[0]
        if top == 0:
            continue
        assert abs(spectral_norm(M) - top) <= 1e-6 * top


def test_non_convergence_carries_the_last_estimate():
    M = rational([[1, 2], [3, 4]])
    with pytest.raises(SpectralNormDiverged) as err:
        spectral_norm(M, tol=0.0, max_iter=1)
    assert err.value.last_estimate > 0
    assert isinstance(err.value, InvariantViolationError)


def test_composed_function_bounds_regression():
    # frozen desk-scale values; the bound is not monotone in the block width
    got = []
    for k, b in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        p = ComposedParams(k, b)
        M = sign_matrix(lambda x, y: arkadev_nikhil(p, x, y), k * b)
        got.append(forster_lower_bound(M))
    want = [2.0, 1.6, 1.28, 4 / 3, 32 / 19]
    assert all(abs(g - w) <= 1e-6 for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# the rank-one detector

def brute_sign_rank_one(entries):
    rows = len(entries)
    cols = len(entries[0])
    for u in itertools.product((-1, 1), repeat=rows):
        for v in itertools.product((-1, 1), repeat=cols):
            if all(
                entries[i][j] == u[i] * v[j]
                for i in range(rows)
                for j in range(cols)
            ):
                return True
    return False


def test_all_ones_is_sign_rank_one():
    assert sign_rank_is_one(signs([[1, 1], [1, 1]]))


def test_two_by_two_hadamard_is_not():
    assert not sign_rank_is_one(signs([[1, 1], [1, -1]]))


def test_detector_matches_brute_force_on_all_3x3_matrices():
    for mask in range(512):
        entries = tuple(
            tuple(1 if (mask >> (3 * i + j)) & 1 else -1 for j in range(3))
            for i in range(3)
        )
        assert sign_rank_is_one(signs(entries)) == brute_sign_rank_one(entries)


# ---------------------------------------------------------------------------
# container validation

def test_sign_matrix_rejects_zeros_and_ragged_rows():
    with pytest.raises(ArityError):
        SignMatrix(((1, 0), (1, 1)))
    with pytest.raises(ArityError):
        SignMatrix(((1, 1), (1,)))


def test_random_cone_circuits_pass_their_own_check():
    sigma_r = VertexOrdering.standard(4)
    sigma_c = VertexOrdering.standard(4)
    for seed in range(10):
        c = random_cone_circuit(4, (3, 2), 3, random.Random(seed))
        report = verify_block_bound(c, 4, 3, sigma_r, sigma_c)
        assert report["exactRank"] <= min(report["rowBlocks"], report["colBlocks"])
