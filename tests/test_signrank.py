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
    ContractError,
    Gate,
    GateKind,
    InvariantViolationError,
    ResourceCapError,
    SignMatrix,
    SpectralNormDiverged,
    VertexOrdering,
    affine,
    evaluate,
    exact_rank,
    forster_lower_bound,
    inner_product_matrix,
    pre_sign_matrix,
    random_cone_circuit,
    sign_pattern,
    sign_rank_is_one,
    top_decomposition,
    verify_block_bound,
)
from relucirc import signrank
from relucirc.circuit import vertex
from relucirc.hardfuncs import ComposedParams, arkadev_nikhil, composed_function
from relucirc.signrank import (
    RationalMatrix,
    block_partition,
    cone_membership,
    inner_product_sign,
    sign_matrix,
    spectral_norm,
    superincreasing_vectors,
)

from conftest import scalar_rank


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


def test_top_decomposition_keeps_the_matrix_cap():
    c = random_cone_circuit(2, (2,), 1, random.Random(0))
    for read in (pre_sign_matrix, top_decomposition):
        with pytest.raises(ResourceCapError, match="m = 2 exceeds matrix cap"):
            read(c, 2, cap=1)
        read(c, 2, cap=2)


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


P = (1 << 31) - 1  # the prime exact_rank eliminates modulo


@pytest.fixture
def bareiss(monkeypatch):
    """Shapes of the deduplicated matrices handed to the Bareiss fallback."""
    shapes = []
    fallback = signrank._bareiss_rank

    def spy(arr):
        shapes.append(arr.shape)
        return fallback(arr)

    monkeypatch.setattr(signrank, "_bareiss_rank", spy)
    return shapes


@pytest.mark.parametrize("entries, rank", [
    ([[1, 0], [0, P]], 2),
    ([[P, 2 * P], [3 * P, 5 * P]], 2),
    ([[1, 2, 3], [2, 4, 6 + P], [0, 1, 0]], 3),
    ([[P, 0, 0], [0, P, 0], [P, P, 0]], 2),
])
def test_rank_lost_modulo_the_prime_falls_back_to_bareiss(bareiss, monkeypatch, entries, rank):
    # [[P, 2P], [3P, 5P]] has full rank and a certificate would decide it
    monkeypatch.setattr(signrank, "_full_rank_certified", lambda num: False)
    assert scalar_rank(entries) == rank
    assert exact_rank(rational(entries)) == rank
    assert bareiss, "the modular rank fell short, so Bareiss must decide"


def test_full_modular_rank_skips_bareiss(bareiss):
    assert exact_rank(inner_product_matrix(5)) == 32
    assert exact_rank(rational([[1, 2], [3, 4], [5, 6]])) == 2
    # duplicate rows and columns go on the object path too, leaving a 2x2
    a = 10**30 + 1
    assert exact_rank(rational([[a, 0, 0], [a, 0, 0], [0, a, a]])) == 2
    assert exact_rank(rational([[1, 1, 2], [1, 1, 2], [2, 2, 1]])) == 2
    assert bareiss == []


@pytest.fixture
def later_stages(monkeypatch):
    """Names of the stages after the certificate that exact_rank reached."""
    reached = []
    for name in ("_rank_mod_prime", "_bareiss_rank"):
        def spy(arr, name=name, stage=getattr(signrank, name)):
            reached.append(name)
            return stage(arr)

        monkeypatch.setattr(signrank, name, spy)
    return reached


@pytest.mark.parametrize("m", [5, 6, 7])
def test_the_certificate_decides_the_benchmark_inner_products(later_stages, m):
    assert exact_rank(inner_product_matrix(m)) == 1 << m
    assert later_stages == []


def test_the_certificate_is_sound_on_products_of_random_factors():
    rng = np.random.default_rng(0xCE47)
    outcomes = set()
    for trial in range(300):
        short, extra = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        rows, cols = [(short, short), (short, short + extra), (short + extra, short)][trial % 3]
        rank = int(rng.integers(0, short + 1))
        product = rng.integers(-9, 10, size=(rows, rank)) @ rng.integers(-9, 10, size=(rank, cols))
        # integer row and column scalings keep the rank; entries reach about 2^40
        product <<= rng.integers(0, 15, size=(rows, 1))
        product <<= rng.integers(0, 15, size=(1, cols))
        want = scalar_rank(product.tolist())
        certified = bool(product.any()) and signrank._full_rank_certified(product)
        assert not certified or want == short, product
        assert exact_rank(product.tolist()) == want
        outcomes.add((want == short, certified))
    assert outcomes == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("v", [(1 << 53) - 1, 1 << 53, (1 << 62) - 1])
def test_the_certificate_declines_entries_past_an_exact_product(v):
    for entries in ([[v, 1], [1, 0]], [[v, v - 1], [v - 1, v - 2]], [[v, v], [1, 1]]):
        num = np.array(entries, dtype=np.int64)
        assert not signrank._full_rank_certified(num)
        assert exact_rank(entries) == scalar_rank(entries)


K = 1 << 26


@pytest.mark.parametrize("entries, rank", [
    ([[1, 0], [0, P]], 2),  # the rounded inverse loses 1/P
    ([[K, K + 1], [K - 1, K]], 2),  # determinant 1, entries of the inverse near 2^26
    ([[1 << 40, 3 << 40], [1 << 41, 6 << 40]], 1),  # rank-deficient
    ([[K, K + 1, 1], [2 * K, 2 * K + 2, 2], [1, 1, 1 << 30]], 2),  # rank-deficient
    ([[1 << 50, 1], [1 << 50, 1], [1, 1 << 50]], 2),  # q = 1: X' holds only -1, 0 and 1
])
def test_the_certificate_falls_through_without_a_proof(entries, rank):
    assert not signrank._full_rank_certified(np.array(entries, dtype=np.int64))
    assert not signrank._full_rank_certified(np.array(entries, dtype=np.int64).T)
    assert scalar_rank(entries) == rank
    assert exact_rank(entries) == rank


def test_the_certificate_declines_object_arrays():
    assert not signrank._full_rank_certified(np.array([[1, 0], [0, 1]], dtype=object))
    huge = rational([[10**30, 0], [0, 10**30]])
    assert huge.num.dtype == object and not signrank._full_rank_certified(huge.num)
    assert exact_rank(huge) == 2


def test_the_certificate_decides_a_full_rank_matrix_past_the_prime(later_stages):
    entries = [[P, 2 * P], [3 * P, 5 * P]]
    assert signrank._full_rank_certified(np.array(entries, dtype=np.int64))
    assert exact_rank(entries) == 2 and later_stages == []


def test_lowest_terms_keeps_int64_below_two_to_the_62():
    lowest_terms = signrank._lowest_terms
    big = np.array([[1 << 62, 0], [-(1 << 62), 1]], dtype=np.int64)
    num, den = lowest_terms(big, 1)
    assert num.dtype == object and den == 1
    num, den = lowest_terms(big, 3)
    assert num.dtype == object and den == 3
    num, den = lowest_terms(np.array([[1 << 62, 4 << 62]], dtype=object), 3 << 62)
    assert num.dtype == np.int64 and num.tolist() == [[1, 4]] and den == 3
    num, den = lowest_terms(np.array([[(1 << 62) - 1]], dtype=object), 5)
    assert num.dtype == np.int64 and den == 5
    num, den = lowest_terms(np.zeros((2, 3), dtype=np.int64), 12)
    assert num.dtype == np.int64 and not num.any() and den == 1
    num, den = lowest_terms(np.array([[6, -4], [2, 0]], dtype=np.int64), 10)
    assert num.tolist() == [[3, -2], [1, 0]] and den == 5


def test_cone_matrices_reach_bareiss_deduplicated(bareiss):
    c = cone_test_circuit(4, 7, widths=(2, 2))
    sigma = VertexOrdering.standard(4)
    pre = pre_sign_matrix(c, 4, sigma, sigma)
    parts = block_partition(pre)
    assert exact_rank(pre) == scalar_rank(pre.entries)
    for rows, cols in bareiss:
        assert rows <= parts.row_blocks and cols <= parts.col_blocks


def test_huge_entries_take_the_object_path(bareiss):
    rng = random.Random(2)
    left = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(6)]
    right = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(2)]
    product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    rank = scalar_rank(product)
    assert rank == 2
    for den in (1, 7):
        scaled = rational([[Fraction(v * 10**30, den) for v in row] for row in product])
        assert scaled.num.dtype == object and scaled.den == den
        assert exact_rank(scaled) == rank
    assert bareiss, "a low-rank matrix is decided by Bareiss"
    near = rational([[1, 1 << 62], [1, (1 << 62) - 1]])
    assert near.num.dtype == object and exact_rank(near) == 2
    assert rational([[1, (1 << 62) - 1]]).num.dtype == np.int64


@pytest.mark.parametrize("matrix", [
    RationalMatrix(()),
    RationalMatrix(((), ())),
    SignMatrix(()),
    [],
    [[0, 0, 0], [0, 0, 0]],
    rational([[0] * 4] * 3),
    RationalMatrix(((Fraction(0), Fraction(0, 5)),)),
])
def test_empty_and_zero_matrices_have_rank_zero(matrix):
    assert exact_rank(matrix) == 0


def test_rank_of_products_of_random_factors(bareiss):
    rng = random.Random(0x5EED)
    for trial in range(60):
        rank = rng.randint(0, 6)
        rows, cols = rng.randint(rank, 9), rng.randint(rank, 9)
        # each factor holds an identity block, so it has full rank
        left = [[int(i == j) for j in range(rank)] for i in range(rank)]
        left += [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rows - rank)]
        right = [[int(i == j) for i in range(rank)] for j in range(rank)]
        right += [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(cols - rank)]
        rng.shuffle(left)
        rng.shuffle(right)
        scale = 10**25 if trial % 5 == 0 else 1
        product = [
            [scale * sum(a * b for a, b in zip(row, col)) for col in right] for row in left
        ]
        if trial % 3 == 0:  # row scaling keeps the rank
            product = [[Fraction(v, d) for v in row] for row, d in
                       zip(product, [rng.randint(1, 6) for _ in product])]
        assert exact_rank(product) == rank
        assert exact_rank(rational(product)) == rank
        transposed = [list(col) for col in zip(*product)]
        assert exact_rank(transposed) == rank
    assert bareiss, "some products must be rank-deficient after deduplication"


def test_rank_matches_the_scalar_oracle_near_the_prime():
    rng = random.Random(41)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        pool = (0, 1, -1, P, -P, 2 * P, P + 1, P - 1)
        M = [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]
        assert exact_rank(M) == scalar_rank(M)


def _plain_values(matrix, kind):
    return all(type(v) is kind for row in matrix.entries for v in row)


def test_entries_hold_python_fractions_and_ints():
    c = cone_test_circuit(3, 12, widths=(2, 2))
    pre = pre_sign_matrix(c, 3)
    assert _plain_values(pre, Fraction)
    assert _plain_values(sign_pattern(pre), int)
    assert _plain_values(inner_product_matrix(3), int)
    flat = cone_test_circuit(2, 4, widths=(3,))
    _, _, mats = top_decomposition(flat, 2)
    assert all(_plain_values(F, Fraction) for F in mats)
    huge = RationalMatrix(((Fraction(10**30, 7), Fraction(1)),))
    assert huge.num.dtype == object and _plain_values(huge, Fraction)
    assert _plain_values(SignMatrix(((True, -1), (Fraction(1), 1))), int)


def test_equality_and_hashing_follow_the_entries():
    c = cone_test_circuit(3, 12, widths=(2, 2))
    pre = pre_sign_matrix(c, 3)
    copy = RationalMatrix(pre.entries)
    assert copy == pre and hash(copy) == hash(pre) and copy.shape == pre.shape == (8, 8)
    assert SignMatrix(sign_pattern(pre).entries) == sign_pattern(pre)
    half = rational([[Fraction(1, 2), 1]])
    assert half == RationalMatrix(((Fraction(2, 4), Fraction(3, 3)),))
    assert half != rational([[Fraction(1, 2), 2]])
    assert half != rational([[Fraction(1, 2)], [1]])
    assert signs([[1, -1]]) != rational([[1, -1]])
    assert rational([[1, -1]]).entries == signs([[1, -1]]).entries
    assert RationalMatrix(((), ())).shape == (2, 0) and SignMatrix(()).shape == (0, 0)
    assert len({half, RationalMatrix(((Fraction(1, 2), Fraction(1)),))}) == 1


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
        top = np.linalg.svd(M.num / M.den, compute_uv=False)[0]
        if top == 0:
            continue
        assert abs(spectral_norm(M) - top) <= 1e-6 * top


def test_non_convergence_carries_the_last_estimate():
    M = rational([[1, 2], [3, 4]])
    with pytest.raises(SpectralNormDiverged) as err:
        spectral_norm(M, tol=0.0, max_iter=1)
    assert err.value.last_estimate > 0
    assert isinstance(err.value, InvariantViolationError)


@pytest.mark.parametrize("k, b", [(2, 3), (3, 3), (2, 2), (1, 4), (1, 1)])
def test_arkadev_nikhil_matrix_matches_pointwise_tabulation(k, b):
    p = ComposedParams(k, b)
    want = sign_matrix(composed_function(p), k * b)
    got = signrank.arkadev_nikhil_matrix(p)
    assert got == want and got.num.dtype == want.num.dtype


def test_arkadev_nikhil_matrix_cap():
    with pytest.raises(ResourceCapError):
        signrank.arkadev_nikhil_matrix(ComposedParams(3, 2), cap=5)


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
        SignMatrix(((1, [1]), (1, 1)))
    with pytest.raises(ArityError):
        SignMatrix(((1, 1), (1,)))


def test_random_cone_circuits_pass_their_own_check():
    sigma_r = VertexOrdering.standard(4)
    sigma_c = VertexOrdering.standard(4)
    for seed in range(10):
        c = random_cone_circuit(4, (3, 2), 3, random.Random(seed))
        report = verify_block_bound(c, 4, 3, sigma_r, sigma_c)
        assert report["exactRank"] <= min(report["rowBlocks"], report["colBlocks"])
