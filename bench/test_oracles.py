"""Tests of the benchmark's oracles against brute force and closed forms.

    python3 -m pytest -q bench/test_oracles.py
"""
import itertools
import random
from fractions import Fraction

import pytest

import oracles
from oracles import CheckFailed, DocCircuit


def _gate(kind, weights, bias="0/1"):
    return {"kind": kind, "weights": weights, "bias": bias}


# max{0, x1, x2} at depth 2, written out by hand
MAX_DOC = {
    "inputCount": 2,
    "layers": [
        [_gate("RELU", {"x1": "1"}), _gate("RELU", {"x1": "-1"}), _gate("RELU", {"x2": "1"})],
        [
            _gate("RELU", {"g1.1": "1", "g1.2": "-1", "g1.3": "-1"}),
            _gate("RELU", {"g1.1": "-1", "g1.2": "1", "g1.3": "1"}),
            _gate("RELU", {"g1.3": "1"}),
        ],
    ],
    "outputGate": _gate("SUM", {"g2.1": "1/2", "g2.2": "1/2", "g2.3": "1/2"}),
    "skipWires": {"weights": {"x1": "1/2"}, "bias": "0/1"},
}


def test_doc_circuit_computes_max_of_three():
    circuit = DocCircuit(MAX_DOC)
    for p in itertools.product([Fraction(k, 2) for k in range(-6, 7)], repeat=2):
        assert circuit.value(p) == oracles.max0(p)


def test_doc_circuit_parity_ladder_and_ltf_output():
    # ReLU(s) - 2 ReLU(s - 1) + 2 ReLU(s - 2) - ..., s = x1 + x2 + x3 on 0/1 inputs
    k = 3
    ones = {f"x{i + 1}": "1" for i in range(k)}
    doc = {
        "inputCount": k,
        "layers": [[_gate("RELU", ones, str(-h)) for h in range(k + 1)]],
        "outputGate": _gate("SUM", {"g1.1": "1", "g1.2": "-2", "g1.3": "2", "g1.4": "-1"}),
        "skipWires": None,
    }
    circuit = DocCircuit(doc)
    for bits in itertools.product((0, 1), repeat=k):
        assert circuit.value(bits) == sum(bits) % 2
    doc["outputGate"]["kind"] = "LTF"
    doc["outputGate"]["bias"] = "-1/2"
    for bits in itertools.product((0, 1), repeat=k):
        assert DocCircuit(doc).value(bits) == (1 if sum(bits) % 2 else -1)


def test_doc_circuit_rejects_wrong_arity():
    with pytest.raises(CheckFailed):
        DocCircuit(MAX_DOC).value((1,))


def test_spectrum_matches_direct_summation():
    rng = random.Random(7)
    for n in range(0, 6):
        bits = rng.getrandbits(1 << n)
        f = [oracles.table_value(bits, x) for x in range(1 << n)]
        want = [
            sum(f[x] * (-1) ** bin(s & x).count("1") for x in range(1 << n))
            for s in range(1 << n)
        ]
        assert oracles.spectrum(n, bits) == want


def test_fourier_budget_of_parity_and_dictator():
    n = 5
    parity = sum(1 << x for x in range(1 << n) if bin(x).count("1") % 2)
    assert oracles.fourier_budget(n, parity) == n + 1
    dictator = sum(1 << x for x in range(1 << n) if x & 1)
    assert oracles.fourier_budget(n, dictator) == 2


def test_vertex_convention_and_standard_order():
    assert oracles.vertex(3, 0) == (1, 1, 1)
    assert oracles.vertex(3, 5) == (-1, 1, -1)
    # <(1, 2), x> ascending: (-1,-1), (1,-1), (-1,1), (1,1)
    assert oracles.standard_order(2) == [3, 2, 1, 0]


def test_rational_rank_on_known_matrices():
    assert oracles.rational_rank([[1, 2], [2, 4]]) == 1
    assert oracles.rational_rank([[0, 0], [0, 0]]) == 0
    assert oracles.rational_rank([[Fraction(1, 2), Fraction(1, 3)], [1, Fraction(2, 3)]]) == 1
    rng = random.Random(11)
    for r in range(1, 6):
        u = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(8)]
        v = [[rng.randint(-5, 5) for _ in range(9)] for _ in range(r)]
        product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*v)] for row in u]
        assert oracles.rational_rank(product) <= r
        assert oracles.rational_rank(product) == _fraction_rank(product)


def _fraction_rank(rows):
    a = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(a[0])):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            factor = a[i][col] / a[rank][col]
            a[i] = [x - factor * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_inner_product_closed_forms(m):
    size = 1 << m
    matrix = [[oracles.inner_product_sign(i, j) for j in range(size)] for i in range(size)]
    assert oracles.rational_rank(matrix) == size
    # a Hadamard matrix has every singular value sqrt(2^m)
    assert oracles.top_singular_value(matrix) == pytest.approx(2 ** (m / 2))


def test_block_counts():
    entries = [[1, 1, 2], [1, 1, 2], [3, 3, 3]]
    assert oracles.block_counts(entries) == (2, 2)
    assert oracles.block_counts([[5]]) == (1, 1)


def test_sided_slope_of_the_target():
    p = (Fraction(0), Fraction(0))
    assert oracles.sided_slope(oracles.max0, p, (1, 0)) == 1
    assert oracles.sided_slope(oracles.max0, p, (-1, 0)) == 0
    assert oracles.sided_slope(oracles.max0, (Fraction(2), Fraction(2)), (1, -1)) == 1


def test_grid_max_error_of_a_single_relu():
    # f = ReLU(x1) misses max{0, x1, x2} by up to 10, at x1 <= 0 and x2 = 10
    triples = [(Fraction(1), (Fraction(1), Fraction(0)), Fraction(0))]
    assert oracles.grid_max_error(triples, Fraction(10), Fraction(1, 2)) == 10
    assert oracles.pwl_value(triples, (Fraction(3), Fraction(-1))) == 3


def test_classify_bottom_uses_interval_bounds():
    doc = {
        "inputCount": 3,
        "layers": [[
            _gate("RELU", {"x1": "1", "x2": "1"}, "-3"),   # x1 = 1: -2 + [-1, 1] <= 0
            _gate("RELU", {"x1": "2", "x3": "1"}, "1"),    # x1 = 1:  3 + [-1, 1] >= 0
            _gate("RELU", {"x2": "1", "x3": "1"}, "0"),    # [-2, 2] straddles 0
        ]],
        "outputGate": _gate("LTF", {"g1.1": "1"}),
        "skipWires": None,
    }
    assert oracles.classify_bottom(DocCircuit(doc), {1: 1}) == {
        "removed": ["g1.1"], "linearized": ["g1.2"], "survivors": ["g1.3"],
    }
