"""Seeded experiment reports and the command-line surface."""

import contextlib
import io
import json
import math
import random
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relucirc
from relucirc import (
    Circuit,
    ContractError,
    Gate,
    InvariantViolationError,
    ResourceCapError,
    Restriction,
    TruthTable,
    affine,
    andreev_input_size,
    andreev_layout,
    apply_restriction,
    dump_circuit,
    evaluate,
    max0xy_depth2,
    parity_sum_of_relu,
    pwl_sum,
    sample_andreev_restriction,
    survival_csv,
    truth_table,
)
from relucirc.circuit import vertex
from relucirc.cli import build_parser, main
from relucirc.experiments import parity_table, random_agreement_probe
from relucirc.restriction import SurvivalRow, random_ltf_of_relu
from relucirc.serialize import (
    circuit_from_json,
    circuit_to_json,
    dump_pwl,
    random_approx_report,
    survival_report,
    table_from_hex,
)

REPORT_KEYS = {
    "n", "epsilon", "trials", "seed", "reference", "minAgreementCount",
    "hits", "empirical", "chernoffBound", "exactTail", "threeStandardErrors",
}


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse-level usage errors
        return exc.code


# ---------------------------------------------------------------------------
# parity reference table

def test_parity_table_matches_bitcount_oracle():
    for n in range(1, 7):
        t = parity_table(n)
        for idx in range(1 << n):
            point = vertex(n, idx)
            want = 1 if sum(1 for v in point if v == -1) % 2 == 0 else -1
            assert t.value(idx) == want


def test_parity_table_hex_is_stable():
    assert parity_table(4).to_hex() == "6996"
    assert parity_table(2).to_hex() == "6"


# ---------------------------------------------------------------------------
# the agreement probe

def probe_hits_oracle(reference, epsilon, trials, seed):
    n_points = 1 << reference.arity
    need = Fraction(1, 2) + Fraction(epsilon)
    rng = random.Random(seed)
    hits = 0
    for _ in range(trials):
        g = rng.getrandbits(n_points)
        agree = n_points - (g ^ reference.bits).bit_count()
        if Fraction(agree, n_points) >= need:
            hits += 1
    return hits


def test_probe_report_fields_and_counts():
    probe = random_agreement_probe(parity_table(5), Fraction(1, 4), 400, 7)
    report = random_approx_report(5, Fraction(1, 4), 400, 7, "custom", probe)
    assert set(report) == REPORT_KEYS | {"command", "config"}
    assert report["epsilon"] == "1/4"
    assert probe.n == 5
    assert probe.epsilon == Fraction(1, 4)
    assert probe.trials == 400
    assert probe.seed == 7
    assert probe.reference == "custom"
    assert probe.hits == probe_hits_oracle(parity_table(5), "1/4", 400, 7)
    assert probe.empirical == probe.hits / 400
    assert 0.0 <= probe.empirical <= 1.0


def test_probe_threshold_is_a_ceiling():
    # (1/2 + 1/4) * 8 = 6 exactly; (1/2 + 1/5) * 8 = 5.6 rounds up
    r1 = random_agreement_probe(parity_table(3), Fraction(1, 4), 5, 0)
    r2 = random_agreement_probe(parity_table(3), Fraction(1, 5), 5, 0)
    assert r1.min_agreement_count == 6
    assert r2.min_agreement_count == 6


def test_probe_is_deterministic():
    a = random_agreement_probe(parity_table(6), Fraction(1, 8), 300, 42)
    b = random_agreement_probe(parity_table(6), Fraction(1, 8), 300, 42)
    assert a == b
    c = random_agreement_probe(parity_table(6), Fraction(1, 8), 300, 43)
    assert c.seed != a.seed


def test_probe_arity_cap():
    big = TruthTable(17, 0)
    with pytest.raises(ResourceCapError):
        random_agreement_probe(big, Fraction(1, 4), 1, 0)
    report = random_agreement_probe(big, Fraction(1, 4), 3, 0, cap=17)
    assert report.n == 17


def test_probe_rejects_empty_runs():
    with pytest.raises(ContractError):
        random_agreement_probe(parity_table(3), Fraction(1, 4), 0, 0)


def binomial_tail_oracle(n_points, least):
    """P[Bin(n_points, 1/2) >= least] from math.comb, term by term."""
    from math import comb
    return Fraction(sum(comb(n_points, k) for k in range(max(least, 0), n_points + 1)),
                    2 ** n_points)


@pytest.mark.parametrize("n, epsilon", [
    (0, "1/4"), (3, "0"), (4, "1/5"), (6, "1/64"), (10, "1/5"), (8, "1/2"), (5, "3/4"),
])
def test_probe_reports_the_exact_tail_below_the_bound(n, epsilon):
    report = random_agreement_probe(parity_table(n), Fraction(epsilon), 3, 0)
    tail = binomial_tail_oracle(1 << n, report.min_agreement_count)
    assert report.exact_tail == float(tail)
    assert report.exact_tail <= report.chernoff_bound


def test_probe_raises_only_on_a_tail_above_the_bound(monkeypatch):
    import relucirc.experiments as experiments

    monkeypatch.setattr(experiments, "_binomial_tail", lambda size, least: Fraction(1))
    with pytest.raises(InvariantViolationError):
        random_agreement_probe(parity_table(4), Fraction(1, 5), 1, 41)


# ---------------------------------------------------------------------------
# survival reports

FAKE_ROWS = [
    SurvivalRow(8, 4, 2, 10, 0.5, 0.25, 0.75, 3),
    SurvivalRow(16, 4, 2, 10, 0.25, 0.0, 0.5, 3),
]


def test_survival_csv_layout():
    text = survival_csv(FAKE_ROWS)
    lines = text.splitlines()
    assert lines[0] == "n,gateCount,W,trials,meanSurvival,ci95lo,ci95hi,seed"
    assert lines[1] == "8,4,2,10,0.5,0.25,0.75,3"
    assert len(lines) == 3
    assert text.endswith("\n")


def test_survival_report_shape():
    doc = survival_report(FAKE_ROWS, [8, 16], 4, 2, 10, 3)
    assert doc["config"] == {
        "mode": "survival", "nList": [8, 16], "gateCount": 4, "weightBound": 2,
        "trials": 10, "seed": 3,
    }
    assert doc["weightDist"] == {"name": "uniform_int", "bound": 2}
    assert [r["n"] for r in doc["rows"]] == [8, 16]
    assert set(doc["rows"][0]) == {
        "n", "gateCount", "W", "trials", "meanSurvival", "ci95lo", "ci95hi", "seed"
    }


# ---------------------------------------------------------------------------
# CLI: construct

def cli_json(capsys, argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_cli_construct_parity(capsys):
    doc = cli_json(capsys, ["construct", "parity", "--k", "3"])
    circuit = circuit_from_json(doc)
    # 0/1 convention: the emitted circuit computes the mod-2 sum of the bits
    for bits in ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1)):
        assert evaluate(circuit, bits) == sum(bits) % 2


def test_cli_construct_parity_needs_k(capsys):
    assert run_cli(["construct", "parity"]) == 2
    assert "construct parity needs --k" in capsys.readouterr().err


def test_cli_construct_max0xy(capsys):
    doc = cli_json(capsys, ["construct", "max0xy"])
    circuit = circuit_from_json(doc)
    for p in ((3, -1), (-2, -5), (1, 4), (0, 0)):
        assert evaluate(circuit, p) == max(0, *p)


def test_cli_construct_universal_routes(capsys):
    for kind in ("universal-vertex", "universal-fourier"):
        doc = cli_json(capsys, ["construct", kind, "--n", "2", "--table", "6"])
        circuit = circuit_from_json(doc)
        assert truth_table(circuit).bits == 0b0110


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("table", ["96", "e8"])
@pytest.mark.parametrize("kind", ["universal-vertex", "universal-fourier"])
def test_cli_construct_universal_bytes_match_golden(capsys, kind, table):
    # captured before the constructions reused cached hidden gates; e8 has
    # four Fourier blocks, so it also pins their order
    golden = (GOLDEN / f"construct_{kind}_n3_table{table}.json").read_text()
    circuit = circuit_from_json(json.loads(golden))
    assert truth_table(circuit) == table_from_hex(3, table)
    assert run_cli(["construct", kind, "--n", "3", "--table", table]) == 0
    assert capsys.readouterr().out == golden


CONSTRUCT_GOLDEN = [
    ("construct_parity_k5.json", ["parity", "--k", "5"]),
    ("construct_max0xy.json", ["max0xy"]),
    (
        "construct_ltf2relu_weights1,2,-3_bias1-2.json",
        ["ltf2relu", "--weights", "1,2,-3", "--bias", "1/2"],
    ),
    (
        "construct_linear_weights1-2,-1_bias2.json",
        ["linear", "--weights", "1/2,-1", "--bias", "2"],
    ),
    # every one of the 31 blocks, and a table whose spectrum has 9 zeros
    (
        "construct_universal-fourier_n5_table9f767c45.json",
        ["universal-fourier", "--n", "5", "--table", "9f767c45"],
    ),
    (
        "construct_universal-fourier_n5_tablecb91ce37.json",
        ["universal-fourier", "--n", "5", "--table", "cb91ce37"],
    ),
]


@pytest.mark.parametrize("golden, args", CONSTRUCT_GOLDEN)
def test_cli_construct_bytes_match_golden(capsys, golden, args):
    # captured while circuits still keyed their weights by wire id
    assert run_cli(["construct", *args]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_cli_construct_ltf2relu(capsys):
    doc = cli_json(
        capsys, ["construct", "ltf2relu", "--weights", "1,1", "--bias", "-1"]
    )
    circuit = circuit_from_json(doc)
    # sign(x1 + x2 - 1) is +1 only at (+1, +1), index 0
    assert truth_table(circuit).bits == 0b1110


def test_cli_construct_linear(capsys):
    doc = cli_json(capsys, ["construct", "linear", "--weights", "2,-1"])
    circuit = circuit_from_json(doc)
    assert circuit.relu_count == 2
    for p in ((1, 1), (-1, 1), (Fraction(1, 2), 3)):
        assert evaluate(circuit, p) == 2 * p[0] - p[1]


def test_cli_construct_rejects_unknown_kind():
    assert run_cli(["construct", "frobnicate"]) == 2


def test_cli_construct_stderr_summary(capsys):
    run_cli(["construct", "parity", "--k", "2"])
    err = capsys.readouterr().err
    assert "kind=parity" in err and "reluGates=" in err


# ---------------------------------------------------------------------------
# CLI: restrict

@pytest.fixture
def parity_file(tmp_path):
    path = tmp_path / "parity3.json"
    dump_circuit(parity_sum_of_relu(3), str(path))
    return str(path)


def test_cli_restrict_apply(capsys, parity_file):
    doc = cli_json(
        capsys, ["restrict", "apply", "--circuit", parity_file, "--fix", "1=-1"]
    )
    assert set(doc) >= {
        "removedAsZero", "linearizedAndRewired", "survivors", "restrictedCircuit"
    }
    restricted = circuit_from_json(doc["restrictedCircuit"])
    original = parity_sum_of_relu(3)
    rho = Restriction(3, {1: -1})
    report = apply_restriction(original, rho)
    assert circuit_from_json(doc["restrictedCircuit"]) == report.restricted
    for idx in range(4):
        free = vertex(2, idx)
        assert evaluate(restricted, free) == evaluate(original, (-1,) + free)


def test_cli_restrict_apply_rejects_bad_fix(parity_file):
    assert run_cli(
        ["restrict", "apply", "--circuit", parity_file, "--fix", "1=0"]
    ) == 2


def test_cli_restrict_apply_missing_file(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert run_cli(["restrict", "apply", "--circuit", missing, "--fix", "1=1"]) == 2


def _andreev_fix(n, seed):
    """--fix text of sample_andreev_restriction(n, x_star, seed), x_star seeded too."""
    half, _, _ = andreev_layout(n)
    x_star = tuple(random.Random(seed).randint(0, 1) for _ in range(half))
    rho = sample_andreev_restriction(n, x_star, seed)
    return ",".join(f"{i}={v:+d}" for i, v in sorted(rho.fixed.items()))


def test_golden_restrict_input_is_rebuilt_byte_for_byte(tmp_path):
    circuit = random_ltf_of_relu(andreev_input_size(64), 16, 4, random.Random(1))
    dump_circuit(circuit, str(tmp_path / "c.json"))
    want = (GOLDEN / "input_restrict_ltf-of-relu-n64.json").read_bytes()
    assert (tmp_path / "c.json").read_bytes() == want


RESTRICT_GOLDEN = [
    # depth 2: a zero gate, and linearized gates rerouted into the skip wires
    ("depth2", "1=1,4=-1"),
    # depth 3: the bottom layer is rewritten in place
    ("depth3", "2=-1,3=1"),
    # depth 3 and 4: the whole bottom layer is forced to zero
    ("depth3-vanishing", "1=1,2=-1"),
    ("depth4-vanishing", "1=1,2=-1"),
    # the benchmark's shape: a random LTF of 16 ReLUs with weights in [-4, 4]
    # under a selector restriction at n = 64
    ("ltf-of-relu-n64", _andreev_fix(64, seed=1)),
    # depth 3 written by hand: weights and biases repeat the non-canonical
    # spellings Fraction accepts ("2/4", "-0/3", " 1/2", "0.5", "3", "0")
    ("spellings", "2=1,5=-1"),
]


@pytest.mark.parametrize("name, fix", RESTRICT_GOLDEN)
def test_cli_restrict_apply_bytes_match_golden(capsys, monkeypatch, name, fix):
    # captured while circuits still keyed their weights by wire id; the
    # report names its input file, so the inputs are read from the golden
    # directory
    monkeypatch.chdir(GOLDEN)
    argv = ["restrict", "apply", "--circuit", f"input_restrict_{name}.json", "--fix", fix]
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"restrict-apply_{name}.json").read_text()


_SURVIVAL_SMALL = ["--n-list", "16,64", "--gates", "8", "--trials", "50", "--seed", "3"]
SURVIVAL_GOLDEN = [
    ("restrict-survival_n16,64_gates8_trials50_seed3.json", _SURVIVAL_SMALL),
    ("restrict-survival_n16,64_gates8_trials50_seed3.csv", [*_SURVIVAL_SMALL, "--format", "csv"]),
    # the benchmark's shape
    ("restrict-survival_n64,1024_gates32_W4_trials300_seed5.json",
     ["--n-list", "64,1024", "--gates", "32", "--weight-bound", "4", "--trials", "300",
      "--seed", "5"]),
    # W = 2^61: (n + 1) W passes 2^62, so the sums run on Python ints
    ("restrict-survival_n16,64_gates8_W2305843009213693952_trials20_seed0.json",
     ["--n-list", "16,64", "--gates", "8", "--weight-bound", "2305843009213693952",
      "--trials", "20", "--seed", "0"]),
]


@pytest.mark.parametrize("golden, args", SURVIVAL_GOLDEN)
def test_cli_restrict_survival_bytes_match_golden(capsys, golden, args):
    assert run_cli(["restrict", "survival", *args]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_cli_restrict_survival_json(capsys):
    doc = cli_json(capsys, [
        "restrict", "survival", "--n-list", "8,16", "--gates", "4",
        "--trials", "20", "--seed", "1",
    ])
    assert doc["config"]["nList"] == [8, 16]
    assert [r["n"] for r in doc["rows"]] == [8, 16]
    for row in doc["rows"]:
        assert 0.0 <= row["ci95lo"] <= row["meanSurvival"] <= row["ci95hi"] <= 1.0


def test_cli_restrict_survival_csv(capsys):
    code = run_cli([
        "restrict", "survival", "--n-list", "8,16", "--gates", "4",
        "--trials", "20", "--seed", "1", "--format", "csv",
    ])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,gateCount,W,trials,meanSurvival,ci95lo,ci95hi,seed"
    assert len(lines) == 3
    assert all(len(line.split(",")) == 8 for line in lines)


# ---------------------------------------------------------------------------
# CLI: signrank

def test_cli_signrank_random(capsys):
    doc = cli_json(capsys, [
        "signrank", "random", "--m", "3", "--widths", "2",
        "--weight-bound", "2", "--seed", "5",
    ])
    assert doc["m"] == 3 and doc["W"] == 2 and doc["widths"] == [2]
    assert doc["bound"] == 2 * 3 * 2 * 2 + 1
    assert 1 <= doc["exactRank"] <= doc["bound"]
    assert doc["rowBlocks"] <= doc["bound"] and doc["colBlocks"] <= doc["bound"]
    assert doc["forster"] >= 1.0


def test_cli_signrank_random_bytes_match_golden(capsys):
    # captured while circuits still keyed their weights by wire id
    assert run_cli(["signrank", "random", "--m", "3", "--widths", "2,2", "--seed", "11"]) == 0
    golden = GOLDEN / "signrank_random_m3_widths2,2_seed11.json"
    assert capsys.readouterr().out == golden.read_text()


SIGNRANK_GOLDEN = [
    ("signrank_function_inner-product_m7.json", ["function", "--name", "inner-product", "--m", "7"]),
    (
        "signrank_function_inner-product_m3.csv",
        ["function", "--name", "inner-product", "--m", "3", "--format", "csv"],
    ),
    (
        "signrank_function_arkadev-nikhil_blocks2_width3.json",
        ["function", "--name", "arkadev-nikhil", "--blocks", "2", "--block-width", "3"],
    ),
    ("signrank_random_m5_seed3.json", ["random", "--m", "5", "--seed", "3"]),
]


@pytest.mark.parametrize("golden, args", SIGNRANK_GOLDEN)
def test_cli_signrank_bytes_match_golden(capsys, golden, args):
    # captured while sign-rank matrices were tuples of Fractions; they pin the
    # float bytes of the Forster value and the CSV's integer formatting
    assert run_cli(["signrank", *args]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_cli_signrank_inner_product(capsys):
    doc = cli_json(capsys, ["signrank", "function", "--name", "inner-product", "--m", "3"])
    assert doc["shape"] == [8, 8]
    assert doc["exactRank"] == 8
    assert doc["signRankIsOne"] is False
    assert abs(doc["forster"] - 2 ** 1.5) < 1e-9


def test_cli_signrank_matrix_csv(capsys):
    code = run_cli([
        "signrank", "function", "--name", "inner-product", "--m", "2",
        "--format", "csv",
    ])
    out = capsys.readouterr().out
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 4
    assert all(v in ("1", "-1") for row in rows for v in row.split(","))


def test_cli_signrank_composed(capsys):
    doc = cli_json(capsys, [
        "signrank", "function", "--name", "arkadev-nikhil",
        "--blocks", "2", "--block-width", "2",
    ])
    assert doc["shape"] == [16, 16]
    assert doc["config"]["m"] == 4


def test_cli_signrank_function_needs_name(capsys):
    assert run_cli(["signrank", "function", "--m", "3"]) == 2


def test_cli_signrank_cap(capsys):
    assert run_cli(["signrank", "function", "--name", "inner-product", "--m", "13"]) == 3
    assert "cap" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: random-approx

def test_cli_random_approx(capsys):
    doc = cli_json(capsys, [
        "random-approx", "--n", "6", "--epsilon", "1/4",
        "--trials", "500", "--seed", "9",
    ])
    assert doc["command"] == "random-approx"
    assert doc["reference"] == "parity"
    assert doc["empirical"] <= doc["chernoffBound"] + doc["threeStandardErrors"]


def test_cli_random_approx_one_lucky_trial_is_no_violation(capsys):
    # the single trial agrees on at least 12 of 16 points: probability 0.038
    doc = cli_json(capsys, [
        "random-approx", "--n", "4", "--epsilon", "1/5", "--trials", "1", "--seed", "41",
    ])
    assert doc["minAgreementCount"] == 12
    assert (doc["hits"], doc["empirical"], doc["threeStandardErrors"]) == (1, 1.0, 0.0)
    assert doc["exactTail"] == float(binomial_tail_oracle(16, 12)) < doc["chernoffBound"]


def test_cli_random_approx_circuit_reference(capsys):
    doc = cli_json(capsys, [
        "random-approx", "--n", "6", "--epsilon", "1/4", "--trials", "200",
        "--seed", "9", "--reference", "random-circuit", "--gates", "4",
    ])
    assert doc["reference"].startswith("random-circuit(")


def test_cli_random_approx_bytes_match_golden(capsys):
    # the float bytes of the bound, the tail and the hit frequency
    assert run_cli([
        "random-approx", "--n", "6", "--epsilon", "1/8", "--trials", "500",
        "--seed", "9", "--reference", "random-circuit", "--gates", "4",
    ]) == 0
    golden = GOLDEN / "random-approx_n6_epsilon1-8_trials500_seed9_random-circuit4.json"
    assert capsys.readouterr().out == golden.read_text()


def test_cli_random_approx_huge_epsilon_gives_a_zero_bound(capsys):
    argv = ["random-approx", "--n", "4", "--epsilon", "1e400", "--trials", "1"]
    assert run_cli(argv) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert "Traceback" not in err
    assert (doc["chernoffBound"], doc["exactTail"], doc["hits"]) == (0.0, 0.0, 0)


@pytest.mark.parametrize("n", [0, 4, 10])
def test_probe_bound_near_the_underflow_is_the_float_formula(n):
    # exponents 2^(n+1) eps^2 from 740 to 750, either side of exp's underflow
    table = parity_table(n)
    for k in range(740, 751):
        eps = Fraction(math.isqrt(k * 10**12 >> (n + 1)), 10**6)
        report = random_agreement_probe(table, eps, 1, 0, cap=n)
        assert report.chernoff_bound == math.exp(-float(2 ** (n + 1)) * float(eps) ** 2)


def test_cli_random_approx_cap_and_lift(capsys):
    assert run_cli([
        "random-approx", "--n", "17", "--epsilon", "1/4", "--trials", "5",
    ]) == 3
    capsys.readouterr()
    doc = cli_json(capsys, [
        "random-approx", "--n", "17", "--epsilon", "1/4", "--trials", "5",
        "--unsafe-cap",
    ])
    assert doc["n"] == 17


def test_cli_exit_code_4_on_violated_invariant(capsys, monkeypatch):
    import relucirc.cli as cli_module

    def boom(*args, **kwargs):
        raise InvariantViolationError("bound violated in test")

    monkeypatch.setattr(cli_module, "random_agreement_probe", boom)
    assert run_cli([
        "random-approx", "--n", "4", "--epsilon", "1/4", "--trials", "10",
    ]) == 4
    assert "bound violated in test" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: refute-max

def test_cli_refute_pwl(capsys, tmp_path):
    path = tmp_path / "relu.json"
    dump_pwl(pwl_sum([(1, (1, 0), 0)]), str(path))
    doc = cli_json(capsys, ["refute-max", "--pwl", str(path)])
    assert doc["witness"]["kind"] == "differentiability"
    assert doc["locusLines"][0]["normal"] == [1, 0]
    assert Fraction(doc["gridMaxError"]) > 0


def test_cli_refute_circuit_verifies_the_construction(capsys, tmp_path):
    path = tmp_path / "max.json"
    dump_circuit(max0xy_depth2(), str(path))
    doc = cli_json(capsys, [
        "refute-max", "--circuit", str(path), "--grid-radius", "3",
    ])
    assert doc["verified"] is True
    assert doc["mismatch"] is None


def test_cli_refute_circuit_reports_mismatches(capsys, tmp_path):
    path = tmp_path / "wrong.json"
    dump_circuit(parity_sum_of_relu(2), str(path))
    doc = cli_json(capsys, [
        "refute-max", "--circuit", str(path), "--grid-radius", "2",
    ])
    assert doc["verified"] is False
    point = doc["mismatch"]["point"]
    got, want = Fraction(doc["mismatch"]["got"]), Fraction(doc["mismatch"]["want"])
    assert got != want
    p = (Fraction(point[0]), Fraction(point[1]))
    assert evaluate(parity_sum_of_relu(2), p) == got
    assert max(0, p[0], p[1]) == want


REFUTE_GOLDEN = [
    ("refute-max_pwl_two-term.json", ["--pwl", "input_pwl_two-term.json"]),
    ("refute-max_circuit_max0xy.json", ["--circuit", "input_circuit_max0xy.json"]),
    (
        "refute-max_circuit_max0xy-perturbed_step1-3.json",
        ["--circuit", "input_circuit_max0xy-perturbed.json", "--grid-step", "1/3"],
    ),
]


def _golden_refute_inputs():
    """The documents behind the input_*.json golden files."""
    c = max0xy_depth2()
    g = c.layers[0][0]
    nudged = Gate(g.kind, affine(dict(g.form.weights), g.form.bias - Fraction(1, 7)))
    perturbed = Circuit(
        2, ((nudged,) + c.layers[0][1:],) + c.layers[1:], c.output_gate, c.skip_wires
    )
    return {
        "input_pwl_two-term.json": (
            dump_pwl,
            pwl_sum([(Fraction(3, 2), (1, -2), Fraction(1, 3)), (-1, (0, 1), 2)]),
        ),
        "input_circuit_max0xy.json": (dump_circuit, c),
        "input_circuit_max0xy-perturbed.json": (dump_circuit, perturbed),
    }


def test_golden_refute_inputs_are_rebuilt_byte_for_byte(tmp_path):
    for name, (dump, doc) in _golden_refute_inputs().items():
        dump(doc, str(tmp_path / name))
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("golden, args", REFUTE_GOLDEN)
def test_cli_refute_max_bytes_match_golden(capsys, monkeypatch, golden, args):
    # captured before the grid scans ran on integer arrays; the report
    # names its input file, so the inputs are read from the golden directory
    monkeypatch.chdir(GOLDEN)
    assert run_cli(["refute-max", *args]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_cli_refute_sources_are_exclusive(tmp_path):
    path = tmp_path / "f.json"
    dump_pwl(pwl_sum([]), str(path))
    assert run_cli(["refute-max", "--pwl", str(path), "--circuit", str(path)]) == 2
    assert run_cli(["refute-max"]) == 2


# ---------------------------------------------------------------------------
# CLI: size caps on the grid and the parity construction

@pytest.mark.parametrize("argv", [
    # 1.6e11 grid points, and a parity circuit of 1e10 weights
    ["refute-max", "--pwl", str(GOLDEN / "input_pwl_two-term.json"), "--grid-radius", "100000"],
    ["construct", "parity", "--k", "100000"],
], ids=" ".join)
def test_cli_refuses_a_grid_or_parity_past_the_cap_at_once(capsys, argv):
    start = time.perf_counter()
    assert run_cli(argv) == 3
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "exceed the cap of 2^24" in line


@pytest.mark.parametrize("golden, args", [
    ("refute-max_pwl_two-term.json", ["refute-max", "--pwl", "input_pwl_two-term.json"]),
    ("refute-max_circuit_max0xy.json", ["refute-max", "--circuit", "input_circuit_max0xy.json"]),
    ("construct_parity_k5.json", ["construct", "parity", "--k", "5"]),
])
def test_cli_unsafe_cap_lifts_the_size_cap(capsys, monkeypatch, golden, args):
    # a cap of 2^4 refuses the default grid's 1681 points and parity's 30 weights
    monkeypatch.setattr(relucirc.circuit, "DEFAULT_ENUMERATION_CAP", 4)
    monkeypatch.chdir(GOLDEN)
    assert run_cli(args) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert "exceed the cap of 2^4" in line
    assert run_cli([*args, "--unsafe-cap"]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("mode", ["apply", "survival"])
def test_cli_restrict_takes_no_unsafe_cap(capsys, mode):
    # neither mode has a cap to lift
    assert run_cli(["restrict", mode, "--unsafe-cap"]) == 2
    assert "unrecognized arguments: --unsafe-cap" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: output handling

def test_cli_out_writes_the_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = run_cli([
        "random-approx", "--n", "4", "--epsilon", "1/4", "--trials", "50",
        "--out", str(target),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert f"wrote {target}" in captured.err
    doc = json.loads(target.read_text())
    assert doc["command"] == "random-approx"


def test_cli_reports_are_byte_deterministic(capsys):
    argv = [
        "signrank", "random", "--m", "3", "--widths", "2,2", "--seed", "11",
    ]
    assert run_cli(argv) == 0
    first = capsys.readouterr().out
    assert run_cli(argv) == 0
    second = capsys.readouterr().out
    assert first == second and first
    assert json.dumps(json.loads(first), indent=2, sort_keys=True) + "\n" == first


def _one_relu_doc(weights):
    """One hidden ReLU on x1 under an LTF output with the given weights."""
    return {
        "inputCount": 1,
        "layers": [[{"kind": "RELU", "weights": {"x1": "1/1"}, "bias": "0/1"}]],
        "outputGate": {"kind": "LTF", "weights": weights, "bias": "0/1"},
    }


BAD_CIRCUIT_FILES = {
    "not-json": "{not json",
    "wrong-layer": json.dumps(_one_relu_doc({"x1": "1/1"})),
    "out-of-range": json.dumps(_one_relu_doc({"g1.2": "1/1"})),
    "weights-list": json.dumps(_one_relu_doc([1, 2])),
    "parity": json.dumps(circuit_to_json(parity_sum_of_relu(3))),
    "input-count-true": json.dumps({**_one_relu_doc({"g1.1": "1/1"}), "inputCount": True}),
}


@pytest.mark.parametrize("argv", [
    ["signrank", "random", "--m", "-1"],
    ["signrank", "function", "--name", "inner-product", "--m", "-2"],
    ["random-approx", "--n", "-1", "--epsilon", "1/4"],
    ["random-approx", "--n", "3", "--epsilon", "1/4", "--trials", "0"],
    ["random-approx", "--n", "3", "--epsilon=-1/4"],
    ["restrict", "apply", "--circuit", "not-json", "--fix", "1=1"],
    ["restrict", "apply", "--circuit", "wrong-layer", "--fix", "1=1"],
    ["restrict", "apply", "--circuit", "out-of-range", "--fix", "1=1"],
    ["restrict", "apply", "--circuit", "weights-list", "--fix", "1=1"],
    ["refute-max", "--circuit", "weights-list"],
    ["restrict", "apply", "--circuit", "input-count-true", "--fix", "1=1"],
    ["refute-max", "--circuit", "input-count-true"],
    ["restrict", "apply", "--circuit", "parity", "--fix", "1=0"],
    ["restrict", "apply", "--circuit", "parity", "--fix", "1=+1,1=-1"],
    ["signrank", "random", "--m", "2", "--weight-bound", "-1"],
    ["signrank", "random", "--m", "0", "--weight-bound", "-1"],
    ["random-approx", "--n", "3", "--epsilon", "1/4", "--reference", "random-circuit",
     "--weight-bound", "-1"],
    ["restrict", "survival", "--n-list", "-1"],
    ["restrict", "survival", "--n-list", ","],
    ["restrict", "survival", "--n-list", "8", "--gates", "0"],
    ["restrict", "survival", "--n-list", "8", "--seed", "-1"],
    ["restrict", "survival", "--n-list", "8", "--weight-bound", "0"],
    ["restrict", "survival", "--n-list", "8", "--weight-bound", "9223372036854775808"],
    ["restrict", "survival", "--n-list", "8", "--weight-bound", "18446744073709551616"],
    ["signrank", "random"],
    ["construct", "linear", "--weights", "1,2", "--bias", "1/0"],
    ["construct", "universal-fourier", "--n", "3", "--table", "zz"],
    ["construct", "universal-vertex", "--n", "-1", "--table", "0"],
    ["random-approx", "--n", "2", "--epsilon", "-1e400", "--trials", "1"],
    # a malformed grid is bad usage, checked before the grid's size
    ["refute-max", "--circuit", "parity", "--grid-step", "0"],
    ["refute-max", "--circuit", "parity", "--grid-radius=-1", "--grid-step", "1/1000000"],
    ["construct", "parity", "--k", "0"],
], ids=" ".join)
def test_cli_bad_usage_exits_2_with_one_error_line(capsys, monkeypatch, tmp_path, argv):
    for name, text in BAD_CIRCUIT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1


def test_importing_the_package_and_cli_loads_only_stdlib_and_numpy():
    # compared with the modules loaded before the import: site hooks load
    # their own modules at start-up
    src = str(Path(relucirc.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules)\n"
        "import relucirc, relucirc.cli\n"
        "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert {"numpy", "relucirc"} <= loaded
    assert loaded - {"numpy", "relucirc"} <= set(sys.stdlib_module_names)


def test_the_package_exports_what_the_benchmark_and_demos_use():
    # checked with `relucirc.cli` loaded (imported above), as the benchmark loads it
    root = Path(__file__).resolve().parents[1]
    used = set(re.findall(r"\brc\.(\w+)", (root / "bench" / "workloads.py").read_text()))
    assert "evaluate" in used
    for demo in sorted((root / "demos").glob("*.py")):
        for names in re.findall(r"^from relucirc import \(([^)]*)\)", demo.read_text(), re.M):
            used |= {name.strip() for name in names.split(",") if name.strip()}
    assert "walsh_hadamard" in used
    assert sorted(name for name in used if not hasattr(relucirc, name)) == []


@pytest.mark.parametrize("first, second", [
    # each leans on a list default that the other sets
    (["signrank", "random", "--m", "2"],
     ["signrank", "random", "--m", "2", "--widths", "3", "--seed", "1"]),
    (["restrict", "survival", "--gates", "1", "--trials", "2"],
     ["restrict", "survival", "--n-list", "8", "--gates", "3", "--trials", "4", "--format", "csv"]),
    (["restrict", "survival", "--gates", "1", "--trials", "2"], ["signrank", "random", "--m", "-1"]),
])
def test_cli_parser_is_built_once_and_later_calls_see_a_fresh_run(capsys, first, second):
    assert build_parser() is build_parser()
    run_cli(first)
    run_cli(second)
    capsys.readouterr()
    assert run_cli(first) == 0
    again = capsys.readouterr()
    build_parser.cache_clear()
    assert run_cli(first) == 0
    assert capsys.readouterr() == again


BAD_ARGUMENTS = [
    (["restrict", "apply", "--circuit", "c.json", "--fix", "1=0"],
     "fix value for coordinate '1' must be +1 or -1"),
    (["restrict", "apply", "--circuit", "c.json", "--fix", "1=+1,1=-1"],
     "coordinate 1 is fixed twice"),
    (["restrict", "apply", "--circuit", "c.json", "--fix", "a=1"], "'a' is not an integer"),
    (["restrict", "survival", "--n-list", "4,x"], "'x' is not an integer"),
    (["construct", "ltf2relu", "--weights", "1,2", "--bias", "1/0"],
     "zero denominator in '1/0'"),
    (["construct", "linear", "--weights", "1,x"], "'x' is not a rational number"),
]


@pytest.mark.parametrize("argv, reason", BAD_ARGUMENTS, ids=[" ".join(a) for a, _ in BAD_ARGUMENTS])
def test_cli_bad_argument_error_line_gives_the_reason(capsys, argv, reason):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert reason in line
    assert not any(name in err for name in ("_fix_map", "_int_list", "_fraction"))


def test_cli_rejects_malformed_circuit_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["refute-max", "--circuit", str(bad)]) == 2


# ---------------------------------------------------------------------------
# CLI contract, over drawn argv

_N_TOKENS = ["0", "1", "3", "6", "-1", "x", ""]
_HEX_TOKENS = ["0", "6", "96", "e8", "F", "ffff", "9f767c45", "zz", "-1", "0x96", "1.5", ""]
_ARGV_POOLS = {
    "--epsilon": ["1/4", "1/5", "0", "100", "1e400", "1e-400", "-1/4", "-1e400", "1/0", "x"],
    "--trials": ["1", "3", "0", "-2", "x"],
    "--seed": ["0", "41", "-1", "x"],
    "--reference": ["parity", "random-circuit", "circuit"],
    "--gates": ["1", "4", "0", "-1"],
    "--weight-bound": ["0", "4", "-1", "9223372036854775808"],
}


_SURVIVAL_POOLS = {
    "--gates": [str(g) for g in range(5)],
    "--weight-bound": ["0", "1", str(2**61), str(2**63 - 1), str(2**63)],
    "--seed": ["-1", "0"],
}


_SIGNRANK_POOLS = {
    "--m": ["-1", "0", "1", "2", "3", "4", "13", "x"],  # 13 is over the matrix cap
    "--widths": ["2", "2,2", "0", "3,x"],
    # the cone pool is enumerated in full, so the bounds stay small
    "--weight-bound": ["-1", "0", "1", "2"],
    "--name": ["inner-product", "arkadev-nikhil", "parity"],
    "--blocks": ["-1", "0", "1", "2"],
    "--block-width": ["-1", "0", "1", "2"],
}
_SIGNRANK_OPTIONS = {
    "random": ("--m", "--widths", "--weight-bound"),
    "function": ("--name", "--m", "--blocks", "--block-width"),
}


# the two golden inputs, one missing path; each kind's flag also draws the
# other kind's document
_REFUTE_PATHS = [
    str(GOLDEN / "input_pwl_two-term.json"),
    str(GOLDEN / "input_circuit_max0xy.json"),
    str(GOLDEN / "no-such-input.json"),
]
# no --unsafe-cap is drawn: 100000 and 1/1000000 make grids past the cap
_REFUTE_POOLS = {
    "--grid-radius": ["-1", "0", "1/2", "3", "100000", "x", "1/0"],
    "--grid-step": ["0", "-1/2", "1/3", "1/2", "1/1000000", "x"],
}
_K_TOKENS = ["-1", "0", "1", "5", "5000", "x"]  # 5000 is over the weight cap
_WEIGHT_TOKENS = ["1", "-2", "1/2", "0", "1e400", "x", "1/0", ""]
_BIAS_TOKENS = ["0", "-1", "3/2", "x", "1/0", ""]
_FIX_TOKENS = ["1=-1", "0=1", "99=1", "1=2", "1=1,1=-1", "", "2=+1,5=-1", "x=1"]


@st.composite
def _cli_argv(draw):
    """argv for every command: `construct` of each kind, `random-approx`,
    `restrict apply|survival`, `signrank random|function` and `refute-max`,
    from pools of valid, boundary and malformed tokens, with optional
    options left out."""
    command = draw(st.sampled_from(
        ["universal-vertex", "universal-fourier", "random-approx", "restrict-survival",
         "signrank-random", "signrank-function", "refute-max", "parity", "ltf2relu",
         "linear", "max0xy", "restrict-apply"]
    ))
    if command == "refute-max":
        argv = ["refute-max", draw(st.sampled_from(["--pwl", "--circuit"])),
                draw(st.sampled_from(_REFUTE_PATHS))]
        for option, pool in _REFUTE_POOLS.items():
            if draw(st.booleans()):
                argv.append(f"{option}={draw(st.sampled_from(pool))}")
        return argv
    if command == "parity":
        return ["construct", "parity", f"--k={draw(st.sampled_from(_K_TOKENS))}"]
    if command in ("ltf2relu", "linear"):
        argv = ["construct", command]
        if draw(st.booleans()):
            weights = draw(st.lists(st.sampled_from(_WEIGHT_TOKENS), max_size=4))
            argv.append(f"--weights={','.join(weights)}")
        if draw(st.booleans()):
            argv.append(f"--bias={draw(st.sampled_from(_BIAS_TOKENS))}")
        return argv
    if command == "max0xy":
        return ["construct", "max0xy"]
    if command == "restrict-apply":
        return ["restrict", "apply", "--circuit", str(GOLDEN / "input_restrict_depth2.json"),
                f"--fix={draw(st.sampled_from(_FIX_TOKENS))}"]
    if command.startswith("signrank"):
        mode = command.split("-")[1]
        argv = ["signrank", mode]
        for option in _SIGNRANK_OPTIONS[mode]:
            if draw(st.booleans()):
                argv.append(f"{option}={draw(st.sampled_from(_SIGNRANK_POOLS[option]))}")
        return argv
    if command == "restrict-survival":
        # lengths up to 64 and --trials always given: the defaults run
        # lengths up to 1024 at 1000 trials
        lengths = draw(st.lists(
            st.one_of(st.integers(0, 64).map(str), st.sampled_from(["3", ","])),
            min_size=1, max_size=3,
        ))
        argv = ["restrict", "survival", f"--n-list={','.join(lengths)}",
                f"--trials={draw(st.integers(0, 5))}"]
        for option, pool in _SURVIVAL_POOLS.items():
            if draw(st.booleans()):
                argv.append(f"{option}={draw(st.sampled_from(pool))}")
        return argv
    n = draw(st.sampled_from(_N_TOKENS))
    if command != "random-approx":
        argv = ["construct", command]
        if draw(st.booleans()):
            argv += ["--n", n]
        if n.isdigit() and draw(st.booleans()):
            table = f"{draw(st.integers(0, (1 << (1 << int(n))) - 1)):x}"
            table = table.zfill(max(1, (1 << int(n)) // 4))
        else:
            table = draw(st.sampled_from(_HEX_TOKENS))
        if draw(st.booleans()):
            argv += ["--table", table]
        return argv
    # --trials is always given: its default runs 100000 trials
    argv = ["random-approx", "--n", n, "--trials", draw(st.sampled_from(_ARGV_POOLS["--trials"]))]
    for option in ("--epsilon", "--seed", "--reference", "--gates", "--weight-bound"):
        if option == "--epsilon" or draw(st.booleans()):
            argv.append(f"{option}={draw(st.sampled_from(_ARGV_POOLS[option]))}")
    return argv


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


@given(_cli_argv())
@settings(max_examples=300, deadline=None)
def test_cli_exits_0_2_or_3_with_one_error_line_and_the_same_bytes(argv):
    code, out, err = _run_captured(argv)
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    if code:
        assert sum("error:" in line for line in err.splitlines()) == 1, err
    else:
        assert out
    assert _run_captured(argv) == (code, out, err)


# ---------------------------------------------------------------------------
# CLI contract, over documents mutated from the golden inputs

_INPUT_DOCUMENTS = {
    path.name: json.loads(path.read_text()) for path in sorted(GOLDEN.glob("input_*.json"))
}
_WRONG_TYPES = [None, True, 1, 2.5, "x", [], {}]
_INPUT_COUNTS = [-1, 0, 1, 2, 3, 64, True, "2", 2.5]


def _nodes(node, path=()):
    """(path, node) of every object and list in a document, the root first."""
    if isinstance(node, (dict, list)):
        yield path, node
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _nodes(value, (*path, key))


@st.composite
def _mutated_document(draw):
    """A golden input with one mutation: a dropped key, a value of the wrong
    type, a weight of "1/0" or "x", a wire id past its layer, an empty layer,
    an unknown gate kind, or a drawn inputCount."""
    name = draw(st.sampled_from(sorted(_INPUT_DOCUMENTS)))
    doc = json.loads(json.dumps(_INPUT_DOCUMENTS[name]))
    nodes = list(_nodes(doc))
    objects = [node for _, node in nodes if isinstance(node, dict) and node]
    forms = [node for _, node in nodes if isinstance(node, dict) and "weights" in node]
    layers = doc.get("layers", [])
    mutation = draw(st.sampled_from(
        ["drop", "type", "weight", "wire", "empty-layer", "kind", "input-count"]
    ))
    if mutation == "drop":
        target = draw(st.sampled_from(objects))
        del target[draw(st.sampled_from(sorted(target)))]
    elif mutation == "type":
        _, target = draw(st.sampled_from(nodes))
        keys = sorted(target) if isinstance(target, dict) else range(len(target))
        if keys:
            target[draw(st.sampled_from(list(keys)))] = draw(st.sampled_from(_WRONG_TYPES))
    elif mutation == "weight":
        bad = draw(st.sampled_from(["1/0", "x"]))
        if forms:
            form = draw(st.sampled_from(forms))
            keys = sorted(form["weights"]) or ["bias"]
            (form["weights"] if form["weights"] else form)[draw(st.sampled_from(keys))] = bad
        else:  # a ReLU sum's term
            term = draw(st.sampled_from(doc["terms"]))
            term[draw(st.sampled_from(["coeff", "bias"]))] = bad
    elif mutation == "wire" and forms:
        k = draw(st.integers(0, len(layers)))
        width = doc["inputCount"] if k == 0 else len(layers[k - 1])
        wire = f"x{width + 1}" if k == 0 else f"g{k}.{width + 1}"
        readers = layers[k] if k < len(layers) else [doc["outputGate"]]
        draw(st.sampled_from(readers))["weights"][wire] = "1/1"
    elif mutation == "empty-layer" and layers:
        if draw(st.booleans()):
            layers[draw(st.integers(0, len(layers) - 1))] = []
        else:
            layers.insert(draw(st.integers(0, len(layers))), [])
    elif mutation == "kind" and forms:
        gates = [g for g in forms if "kind" in g]
        draw(st.sampled_from(gates))["kind"] = draw(st.sampled_from(["NAND", "relu", "", 0]))
    elif mutation == "input-count":
        doc["inputCount"] = draw(st.sampled_from(_INPUT_COUNTS))
    return doc


@given(_mutated_document(), st.sampled_from([
    ["restrict", "apply", "--circuit", "{}", "--fix", "1=1"],
    ["refute-max", "--circuit", "{}", "--grid-radius", "2"],
    ["refute-max", "--pwl", "{}", "--grid-radius", "2"],
]))
@settings(max_examples=150, deadline=None)
def test_cli_on_mutated_documents_exits_0_2_or_3_with_one_error_line(doc, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [str(path) if a == "{}" else a for a in argv]
        code, out, err = _run_captured(argv)
        assert code in (0, 2, 3), (argv, doc, err)
        assert "Traceback" not in err
        if code:
            assert sum("error:" in line for line in err.splitlines()) == 1, err
        else:
            assert out
        assert _run_captured(argv) == (code, out, err)
