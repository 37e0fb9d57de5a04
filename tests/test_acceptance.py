"""Acceptance gate: one timed end-to-end check per headline guarantee.

Each test prints a single `ACCEPTANCE nn slug: PASS/FAIL` line (visible even
under normal capture) and fails if its check or its runtime budget fails.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from relucirc import (
    Gate,
    GateKind,
    Restriction,
    SignMatrix,
    TruthTable,
    VertexOrdering,
    affine,
    andreev_layout,
    andreev_restricted_table,
    apply_restriction,
    evaluate,
    exact_rank,
    forster_lower_bound,
    inner_product_matrix,
    ltf_to_relu,
    max0xy_depth2,
    parity_sum_of_relu,
    pwl_sum,
    random_cone_circuit,
    refute_max0xy,
    removability,
    sample_andreev_restriction,
    sign_rank_is_one,
    survival_experiment,
    top_decomposition,
    truth_table,
    universal_fourier,
    universal_vertex_indicators,
    verify_block_bound,
    verify_depth2_max,
    walsh_hadamard,
)
from relucirc.circuit import cube_matrix, vertex
from relucirc.experiments import parity_table, random_agreement_probe
from relucirc.pwl import max0xy_value
from relucirc.restriction import Removability

from conftest import random_circuit


@pytest.fixture
def announce(capsys):
    def run(num, slug, budget, body):
        start = time.perf_counter()
        failed = False
        try:
            body()
        except BaseException:
            failed = True
            raise
        finally:
            elapsed = time.perf_counter() - start
            ok = not failed and elapsed < budget
            with capsys.disabled():
                print(
                    f"ACCEPTANCE {num:02d} {slug}: {'PASS' if ok else 'FAIL'}"
                    f" ({elapsed:.2f}s, budget {budget:g}s)"
                )
        assert elapsed < budget, f"{slug} ran {elapsed:.2f}s, budget {budget:g}s"

    return run


def test_01_parity_construction(announce):
    def body():
        for k in range(1, 11):
            circuit = parity_sum_of_relu(k)
            assert circuit.relu_count <= k + 1
            for bits in itertools.product((0, 1), repeat=k):
                assert evaluate(circuit, bits) == sum(bits) % 2

    announce(1, "parity-construction", 1.0, body)


def test_02_ltf_two_relu_simulation(announce):
    def body():
        rng = random.Random(0x5EED)
        for _ in range(200):
            n = rng.randint(1, 8)
            weights = {
                i: Fraction(rng.randint(-8, 8)) for i in range(n)
            }
            bias = Fraction(rng.randint(-8, 8))
            gate = Gate(GateKind.LTF, affine(weights, bias))
            circuit = ltf_to_relu(gate, n)
            assert circuit.relu_count <= 2
            got = truth_table(circuit)
            for idx in range(1 << n):
                x = vertex(n, idx)
                s = sum(
                    weights[i] * x[i] for i in range(n)
                ) + bias
                assert got.value(idx) == (1 if s >= 0 else -1)

    announce(2, "ltf-two-relu", 5.0, body)


def test_03_universal_four_bit(announce):
    def body():
        for bits in range(1 << 16):
            table = TruthTable(4, bits)
            direct = universal_vertex_indicators(table)
            assert direct.relu_count <= 16
            assert truth_table(direct).bits == bits
            spectral = universal_fourier(table)
            budget = sum(
                s + 1 for s in walsh_hadamard(table).support_sizes()
            )
            assert spectral.relu_count <= budget
            assert truth_table(spectral).bits == bits

    announce(3, "universal-four-bit", 60.0, body)


def test_04_restriction_collapse(announce):
    def body():
        rng = random.Random(0xC011)
        full = cube_matrix(16)
        for _ in range(10_000):
            free = rng.randint(0, 16)
            fixed_count = rng.randint(0, 4)
            n = free + fixed_count
            if n == 0:
                continue
            w = [rng.randint(-9, 9) for _ in range(n)]
            b = rng.randint(-40, 40)
            fix = {free + i + 1: rng.choice((-1, 1)) for i in range(fixed_count)}
            form = affine(
                {i: Fraction(w[i]) for i in range(n)}, Fraction(b)
            )
            got = removability(form, Restriction(n, fix))
            folded_bias = b + sum(w[i - 1] * v for i, v in fix.items())
            # columns of the cube matrix enumerate the free subcube exactly
            vals = np.array(w[:free], dtype=np.int64) @ full[:free, : 1 << free]
            vals = vals + folded_bias
            if vals.max() <= 0:
                want = Removability.CONSTANT_ZERO
            elif vals.min() >= 0:
                want = Removability.LINEARIZED
            else:
                want = Removability.SURVIVES
            assert got is want

        for _ in range(25):
            n = rng.randint(2, 10)
            circuit = random_circuit(
                rng, n, rng.randint(2, 3), 3, bottom_relu_only=True
            )
            fix = {
                i + 1: rng.choice((-1, 1))
                for i in range(n)
                if rng.random() < 0.5
            }
            report = apply_restriction(circuit, Restriction(n, fix))
            free_ix = [i + 1 for i in range(n) if i + 1 not in fix]
            for idx in range(1 << len(free_ix)):
                point = vertex(len(free_ix), idx)
                fullpoint = [0] * n
                for i, v in fix.items():
                    fullpoint[i - 1] = v
                for pos, i in enumerate(free_ix):
                    fullpoint[i - 1] = point[pos]
                assert evaluate(report.restricted, point) == evaluate(
                    circuit, fullpoint
                )

    announce(4, "restriction-collapse", 60.0, body)


def test_05_selector_restriction(announce):
    def body():
        rng = random.Random(0xA2D)
        for n in (8, 16, 32):
            table_bits = andreev_layout(n)[0]
            for trial in range(100):
                x_star = tuple(rng.randint(0, 1) for _ in range(table_bits))
                rho = sample_andreev_restriction(n, x_star, seed=rng.randint(0, 10**9))
                assert andreev_restricted_table(rho, n) == x_star

    announce(5, "selector-restriction", 30.0, body)


def test_06_block_structure(announce):
    def body():
        rng = random.Random(0xB10C)
        for _ in range(200):
            m = rng.randint(1, 6)
            widths = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
            bound = rng.randint(1, 3)
            circuit = random_cone_circuit(m, widths, bound, rng)
            sigma = VertexOrdering.standard(m)
            report = verify_block_bound(circuit, m, bound, sigma, sigma)
            cap = report["bound"]
            assert report["rowBlocks"] <= cap
            assert report["colBlocks"] <= cap
            assert report["exactRank"] <= min(
                report["rowBlocks"], report["colBlocks"]
            )
            _, _, mats = top_decomposition(circuit, m, sigma, sigma)
            assert report["exactRank"] <= 1 + sum(exact_rank(F) for F in mats)

    announce(6, "block-structure", 300.0, body)


def test_07_spectral_bound_sanity(announce):
    def body():
        for m in range(2, 7):
            matrix = inner_product_matrix(m)
            a = np.array(matrix.entries, dtype=np.int64)
            assert np.array_equal(a @ a.T, (1 << m) * np.eye(1 << m, dtype=np.int64))
            got = forster_lower_bound(matrix)
            assert abs(got - 2 ** (m / 2)) < 1e-6
            rank = exact_rank(matrix)
            assert rank == 1 << m
            assert got <= rank + 1e-6

    announce(7, "spectral-bound-sanity", 10.0, body)


def test_08_rank_one_detector(announce):
    def body():
        for code in range(512):
            entries = tuple(
                tuple(1 if (code >> (3 * i + j)) & 1 == 0 else -1 for j in range(3))
                for i in range(3)
            )
            matrix = SignMatrix(entries)
            brute = any(
                all(
                    entries[i][j] == u[i] * v[j]
                    for i in range(3)
                    for j in range(3)
                )
                for u in itertools.product((1, -1), repeat=3)
                for v in itertools.product((1, -1), repeat=3)
            )
            assert sign_rank_is_one(matrix) == brute

    announce(8, "rank-one-detector", 1.0, body)


def _sided_slope(value, p, v):
    eps = Fraction(1)
    seen = []
    for _ in range(64):
        q = (value((p[0] + eps * v[0], p[1] + eps * v[1])) - value(p)) / eps
        seen.append(q)
        if len(seen) >= 3 and seen[-1] == seen[-2] == seen[-3]:
            return seen[-1]
        eps /= 2
    raise AssertionError("difference quotient did not stabilize")


def test_09_max_of_three_refutation(announce):
    def body():
        assert verify_depth2_max(max0xy_depth2())
        rng = random.Random(0x3A7)
        for _ in range(200):
            terms = [
                (
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))),
                    Fraction(rng.randint(-4, 4), rng.randint(1, 2)),
                )
                for _ in range(rng.randint(1, 6))
            ]
            f = pwl_sum(terms)
            w = refute_max0xy(f).witness
            if w.kind == "value":
                assert f.value(w.point) != max0xy_value(w.point)
            else:
                v = w.direction
                neg = (-v[0], -v[1])
                ours = _sided_slope(f.value, w.point, v) + _sided_slope(
                    f.value, w.point, neg
                )
                target = _sided_slope(max0xy_value, w.point, v) + _sided_slope(
                    max0xy_value, w.point, neg
                )
                assert ours != target

    announce(9, "max-of-three-refutation", 30.0, body)


def test_10_agreement_tail(announce):
    def body():
        report = random_agreement_probe(
            parity_table(10), Fraction(1, 5), 100_000, seed=2026,
            reference_name="parity",
        )
        slack = report["chernoffBound"] + report["threeStandardErrors"]
        assert report["empirical"] <= slack

    announce(10, "agreement-tail", 30.0, body)


def test_11_survival_trend(announce):
    def body():
        rows = survival_experiment(
            [64, 1024], 32, 4, 1000, seed=5
        )
        low, high = rows
        assert low.n == 64 and high.n == 1024
        assert high.mean_survival < low.mean_survival
        assert high.ci95_hi < low.ci95_lo  # non-overlapping 95% intervals

    announce(11, "survival-trend", 120.0, body)
