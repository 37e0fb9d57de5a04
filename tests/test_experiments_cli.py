"""Seeded experiment reports and the command-line surface."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from relucirc import (
    Circuit,
    Gate,
    InvariantViolationError,
    ResourceCapError,
    Restriction,
    TruthTable,
    affine,
    apply_restriction,
    dump_circuit,
    dump_pwl,
    evaluate,
    max0xy_depth2,
    parity_sum_of_relu,
    parity_table,
    pwl_sum,
    random_agreement_probe,
    survival_csv,
    survival_report,
    truth_table,
)
from relucirc.circuit import vertex
from relucirc.cli import main
from relucirc.restriction import SurvivalRow, WeightDistribution
from relucirc.serialize import circuit_from_json, circuit_to_json, table_from_hex

REPORT_KEYS = {
    "n", "epsilon", "trials", "seed", "reference", "minAgreementCount",
    "hits", "empirical", "chernoffBound", "threeStandardErrors",
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
    report = random_agreement_probe(parity_table(5), Fraction(1, 4), 400, 7)
    assert set(report) == REPORT_KEYS
    assert report["n"] == 5
    assert report["epsilon"] == "1/4"
    assert report["trials"] == 400
    assert report["seed"] == 7
    assert report["reference"] == "custom"
    assert report["hits"] == probe_hits_oracle(parity_table(5), "1/4", 400, 7)
    assert report["empirical"] == report["hits"] / 400
    assert 0.0 <= report["empirical"] <= 1.0


def test_probe_threshold_is_a_ceiling():
    # (1/2 + 1/4) * 8 = 6 exactly; (1/2 + 1/5) * 8 = 5.6 rounds up
    r1 = random_agreement_probe(parity_table(3), Fraction(1, 4), 5, 0)
    r2 = random_agreement_probe(parity_table(3), Fraction(1, 5), 5, 0)
    assert r1["minAgreementCount"] == 6
    assert r2["minAgreementCount"] == 6


def test_probe_is_deterministic():
    a = random_agreement_probe(parity_table(6), Fraction(1, 8), 300, 42)
    b = random_agreement_probe(parity_table(6), Fraction(1, 8), 300, 42)
    assert a == b
    c = random_agreement_probe(parity_table(6), Fraction(1, 8), 300, 43)
    assert c["seed"] != a["seed"]


def test_probe_arity_cap():
    big = TruthTable(17, 0)
    with pytest.raises(ResourceCapError):
        random_agreement_probe(big, Fraction(1, 4), 1, 0)
    report = random_agreement_probe(big, Fraction(1, 4), 3, 0, cap=17)
    assert report["n"] == 17


def test_probe_rejects_empty_runs():
    with pytest.raises(InvariantViolationError):
        random_agreement_probe(parity_table(3), Fraction(1, 4), 0, 0)


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
    doc = survival_report(FAKE_ROWS, WeightDistribution(bound=2))
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


RESTRICT_GOLDEN = [
    # depth 2: a zero gate, and linearized gates rerouted into the skip wires
    ("depth2", "1=1,4=-1"),
    # depth 3: the bottom layer is rewritten in place
    ("depth3", "2=-1,3=1"),
    # depth 3 and 4: the whole bottom layer is forced to zero
    ("depth3-vanishing", "1=1,2=-1"),
    ("depth4-vanishing", "1=1,2=-1"),
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


def test_cli_random_approx_circuit_reference(capsys):
    doc = cli_json(capsys, [
        "random-approx", "--n", "6", "--epsilon", "1/4", "--trials", "200",
        "--seed", "9", "--reference", "random-circuit", "--gates", "4",
    ])
    assert doc["reference"].startswith("random-circuit(")


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
}


@pytest.mark.parametrize("argv", [
    ["signrank", "random", "--m", "-1"],
    ["signrank", "function", "--name", "inner-product", "--m", "-2"],
    ["random-approx", "--n", "-1", "--epsilon", "1/4"],
    ["restrict", "apply", "--circuit", "not-json", "--fix", "1=1"],
    ["restrict", "apply", "--circuit", "wrong-layer", "--fix", "1=1"],
    ["restrict", "apply", "--circuit", "out-of-range", "--fix", "1=1"],
    ["restrict", "apply", "--circuit", "weights-list", "--fix", "1=1"],
    ["refute-max", "--circuit", "weights-list"],
    ["restrict", "apply", "--circuit", "parity", "--fix", "1=0"],
    ["signrank", "random", "--m", "2", "--weight-bound", "-1"],
    ["random-approx", "--n", "3", "--epsilon", "1/4", "--reference", "random-circuit",
     "--weight-bound", "-1"],
    ["restrict", "survival", "--n-list", "-1"],
    ["restrict", "survival", "--n-list", "8", "--gates", "0"],
    ["restrict", "survival", "--n-list", "8", "--seed", "-1"],
    ["construct", "linear", "--weights", "1,2", "--bias", "1/0"],
], ids=" ".join)
def test_cli_bad_usage_exits_2_with_one_error_line(capsys, monkeypatch, tmp_path, argv):
    for name, text in BAD_CIRCUIT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1


def test_cli_rejects_malformed_circuit_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["refute-max", "--circuit", str(bad)]) == 2
