"""Circuit JSON documents, hex truth-table strings, and the one report path."""

import ast
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relucirc
from relucirc import (
    AffineForm,
    Circuit,
    FormatError,
    Gate,
    GateKind,
    TruthTable,
    circuit_from_json,
    circuit_to_json,
    dump_circuit,
    max0xy_depth2,
    table_from_hex,
)
from relucirc.cli import main
from relucirc.serialize import load_circuit, load_pwl, rational_from_str, rational_to_str

from conftest import random_circuit


def test_rationals_serialize_as_p_over_q():
    assert rational_to_str(Fraction(1, 2)) == "1/2"
    assert rational_to_str(Fraction(-3)) == "-3/1"
    assert rational_to_str(Fraction(0)) == "0/1"
    assert rational_from_str("2/4") == Fraction(1, 2)
    assert rational_from_str("7") == 7


def test_bad_rational_strings_are_format_errors():
    for text in ("", "a/b", "1/0", "1.5.2", None, 3):
        with pytest.raises(FormatError):
            rational_from_str(text)


@given(st.fractions(max_denominator=10**6))
@settings(max_examples=120, deadline=None)
def test_rational_string_round_trip(q):
    assert rational_from_str(rational_to_str(q)) == q


def test_circuit_json_round_trip(rng):
    for _ in range(80):
        c = random_circuit(rng, rng.randint(1, 5), rng.randint(1, 4), 4)
        doc = circuit_to_json(c)
        assert circuit_from_json(doc) == c


def test_circuit_document_shape(rng):
    c = random_circuit(rng, 3, 2, 3)
    doc = circuit_to_json(c)
    assert set(doc) == {"inputCount", "layers", "outputGate", "skipWires"}
    gate = doc["layers"][0][0]
    assert set(gate) == {"kind", "weights", "bias"}
    for w in gate["weights"].values():
        num, den = w.split("/")
        assert int(den) >= 1 and Fraction(int(num), int(den)) == Fraction(w)


def test_malformed_documents_are_rejected():
    with pytest.raises(FormatError):
        circuit_from_json([])
    with pytest.raises(FormatError):
        circuit_from_json({"inputCount": 1})
    with pytest.raises(FormatError):
        circuit_from_json(
            {"inputCount": 1, "layers": [], "outputGate": {"kind": "NAND",
             "weights": {}, "bias": "0/1"}}
        )
    # wires must resolve: a gate reading a later layer is inconsistent
    with pytest.raises(FormatError):
        circuit_from_json(
            {"inputCount": 1, "layers": [],
             "outputGate": {"kind": "LTF", "weights": {"g1.1": "1/1"}, "bias": "0/1"}}
        )


def test_weight_keys_must_be_wires_of_the_layer_read():
    def doc(bottom, output, skip=None):
        return {
            "inputCount": 2,
            "layers": [[{"kind": "RELU", "weights": bottom, "bias": "0/1"}]],
            "outputGate": {"kind": "LTF", "weights": output, "bias": "0/1"},
            "skipWires": None if skip is None else {"weights": skip, "bias": "0/1"},
        }

    c = circuit_from_json(doc({"x2": "3/1"}, {"g1.1": "1/2"}, {"x1": "-1/1"}))
    assert c.layers[0][0].form.weights == {1: 3}
    assert c.output_gate.form.weights == {0: Fraction(1, 2)}
    assert c.skip_wires.weights == {0: -1}
    for bad in (
        doc({"g1.1": "1/1"}, {"g1.1": "1/1"}),   # the bottom layer reads a gate
        doc({"x1": "1/1"}, {"x1": "1/1"}),       # the output gate reads an input
        doc({"x1": "1/1"}, {"g1.1": "1/1"}, {"g1.1": "1/1"}),  # skip reads a gate
        doc({"x3": "1/1"}, {"g1.1": "1/1"}),     # beyond the inputs
        doc({"x0": "1/1"}, {"g1.1": "1/1"}),
        doc({"x1": "1/1"}, {"g1.2": "1/1"}),     # beyond the hidden layer
        doc({"x1": "1/1"}, {"g2.1": "1/1"}),     # a layer that does not exist
        doc({"x01": "1/1"}, {"g1.1": "1/1"}),    # not the id's spelling
        doc([1, 2], {"g1.1": "1/1"}),            # weights must be an object
        doc({"x1": "1/1"}, {"g1.1": "1/1"}, ["x1"]),
    ):
        with pytest.raises(FormatError):
            circuit_from_json(bad)


def test_zero_weights_are_dropped_on_load():
    doc = {
        "inputCount": 1,
        "layers": [],
        "outputGate": {"kind": "LTF", "weights": {"x1": "0/1"}, "bias": "1/1"},
    }
    c = circuit_from_json(doc)
    assert c.output_gate.form.weights == {}


# Spellings Fraction(str) accepts, several of them not in lowest terms.
SPELLINGS = ["2/4", "-0/3", " 1/2", "0.5", "3", "0", "-3/1", "1_000/3", "-4"]


def _pool_document(rng, n, widths):
    """A circuit document whose every weight and bias is drawn from SPELLINGS."""
    def form(ids):
        return {
            "weights": {w: rng.choice(SPELLINGS) for w in ids if rng.random() < 0.9},
            "bias": rng.choice(SPELLINGS),
        }

    ids = [f"x{i}" for i in range(1, n + 1)]
    layers = []
    for k, width in enumerate(widths, start=1):
        layers.append([{"kind": "RELU", **form(ids)} for _ in range(width)])
        ids = [f"g{k}.{j}" for j in range(1, width + 1)]
    return {
        "inputCount": n,
        "layers": layers,
        "outputGate": {"kind": "LTF", **form(ids)},
        "skipWires": form([f"x{i}" for i in range(1, n + 1)]),
    }


def _reference_circuit(doc):
    """The circuit in a well-formed ``doc``, each string read by Fraction."""
    def form(d):
        weights = {}
        for wire, text in d["weights"].items():
            q = Fraction(text)
            if q:
                pos = wire[1:] if wire[0] == "x" else wire.split(".")[1]
                weights[int(pos) - 1] = q
        return AffineForm(weights, Fraction(d["bias"]))

    return Circuit(
        doc["inputCount"],
        tuple(tuple(Gate(GateKind(g["kind"]), form(g)) for g in layer)
              for layer in doc["layers"]),
        Gate(GateKind(doc["outputGate"]["kind"]), form(doc["outputGate"])),
        form(doc["skipWires"]),
    )


def test_repeated_spellings_parse_like_fraction(rng):
    for _ in range(40):
        doc = _pool_document(rng, rng.randint(1, 12), [rng.randint(1, 6)
                                                       for _ in range(rng.randint(0, 3))])
        assert circuit_from_json(doc) == _reference_circuit(doc)


def _one_gate_document(first, second):
    """Two ReLUs on x1 whose weights are ``first`` and ``second``."""
    return {
        "inputCount": 1,
        "layers": [[
            {"kind": "RELU", "weights": {"x1": first}, "bias": "1/2"},
            {"kind": "RELU", "weights": {"x1": second}, "bias": "1/2"},
        ]],
        "outputGate": {"kind": "LTF", "weights": {"g1.1": "1/2"}, "bias": "1/2"},
    }


@pytest.mark.parametrize("value", [[1], 3, None, {"p": 1}])
def test_non_string_after_a_parsed_spelling_is_a_format_error(value):
    for doc in (
        _one_gate_document("1/2", value),
        {**_one_gate_document("1/2", "1/2"),
         "skipWires": {"weights": {}, "bias": value}},
    ):
        with pytest.raises(FormatError) as err:
            circuit_from_json(doc)
        assert str(err.value) == f"expected rational string, got {value!r}"


@pytest.mark.parametrize("text", ["a/b", "1/0", "1.5.2", "", " "])
def test_repeated_malformed_spelling_keeps_its_message(text):
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        want = f"bad rational {text!r}: {e}"
    for doc in (_one_gate_document(text, text), _one_gate_document("1/2", text)):
        with pytest.raises(FormatError) as err:
            circuit_from_json(doc)
        assert str(err.value) == want


def test_documents_parsed_in_turn_share_no_state():
    first = circuit_from_json(_one_gate_document("2/4", "3"))
    with pytest.raises(FormatError):
        circuit_from_json(_one_gate_document("2/4", "x"))
    second = circuit_from_json(_one_gate_document("2/4", "3"))
    assert first == second
    assert first.layers[0][0].form.weights[0] is not second.layers[0][0].form.weights[0]
    # within one document a repeated spelling is read once and shared
    assert first.layers[0][0].form.bias is first.layers[0][1].form.bias


def test_dump_and_load_files(tmp_path, rng):
    c = random_circuit(rng, 4, 3, 3)
    path = tmp_path / "circ.json"
    dump_circuit(c, str(path))
    assert load_circuit(str(path)) == c
    path.write_text("{ not json")
    with pytest.raises(FormatError):
        load_circuit(str(path))


def test_table_hex_wrappers():
    t = TruthTable(4, 0x6996)
    assert t.to_hex() == "6996"
    assert table_from_hex(4, "6996") == t
    with pytest.raises(FormatError):
        table_from_hex(4, "699")  # wrong digit count
    with pytest.raises(FormatError):
        table_from_hex(4, "zzzz")


def test_inputs_beyond_the_document_cost_nothing(tmp_path, capsys):
    # 2^40 declared inputs and no weight: reading and writing the document
    # spell only the ids it holds
    n = 1 << 40
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(
        {"inputCount": n, "layers": [], "outputGate": {"kind": "SUM", "weights": {}, "bias": "0"}}
    ))
    tracemalloc.start()
    try:
        circuit = load_circuit(str(path))
        doc = circuit_to_json(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert doc["inputCount"] == n and doc["outputGate"]["weights"] == {}
    assert main(["refute-max", "--circuit", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")


def test_wire_ids_of_a_wide_layer_resolve_without_listing_it():
    n = 1 << 40
    doc = {"inputCount": n, "layers": [],
           "outputGate": {"kind": "SUM", "weights": {f"x{n}": "2", "x1": "1"}, "bias": "0"}}
    circuit = circuit_from_json(doc)
    assert circuit.output_gate.form.weights == {n - 1: 2, 0: 1}
    assert circuit_to_json(circuit)["outputGate"]["weights"] == {"x1": "1/1", f"x{n}": "2/1"}
    for wire in (f"x{n + 1}", "x0", "x01", "x+1", "x 1", "x1.0", "x\u0661", "g1.1", "x"):
        doc["outputGate"]["weights"] = {wire: "1"}
        with pytest.raises(FormatError, match="is not a wire of the layer it reads"):
            circuit_from_json(doc)


def test_input_count_must_be_an_int_not_a_bool():
    for n in (True, False, "2", 2.5, -1, None):
        with pytest.raises(FormatError, match="inputCount"):
            circuit_from_json({"inputCount": n, "layers": [], "outputGate": {
                "kind": "SUM", "weights": {}, "bias": "0"}})


def test_both_readers_give_one_error_for_text_that_is_not_json(tmp_path, capsys):
    # bytes that are not UTF-8 were a traceback through the CLI
    path = tmp_path / "bad.json"
    for raw in (b"{not json", b"\xff\xfe{}"):
        path.write_bytes(raw)
        for load, flag in ((load_circuit, "--circuit"), (load_pwl, "--pwl")):
            with pytest.raises(FormatError, match="^not valid JSON: "):
                load(str(path))
            assert main(["refute-max", flag, str(path)]) == 2
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith("error: not valid JSON: ")


# ---------------------------------------------------------------------------
# one report path: only serialize.py writes JSON or spells a report key

SRC = Path(relucirc.__file__).resolve().parent
GOLDEN = Path(__file__).parent / "golden"


def _report_keys():
    """Every key with a capital letter in the output goldens (the reports'
    camelCase keys and "W") and in the CSV goldens' header lines."""
    keys = set()

    def walk(node):
        if isinstance(node, dict):
            keys.update(node)
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    for path in sorted(GOLDEN.iterdir()):
        if path.name.startswith("input_"):
            continue
        if path.suffix == ".json":
            walk(json.loads(path.read_text()))
        elif path.suffix == ".csv":
            keys.update(path.read_text().splitlines()[0].split(","))
    return {key for key in keys if key != key.lower()}


def _modules_other_than_serialize():
    for path in sorted(SRC.glob("*.py")):
        if path.name != "serialize.py":
            yield path.name, ast.parse(path.read_text())


def test_the_goldens_hold_27_report_keys():
    keys = _report_keys()
    assert len(keys) == 27
    assert {"W", "inputCount", "removedAsZero", "nList", "signRankIsOne", "gridRadius"} <= keys


def test_no_module_but_serialize_writes_json():
    for name, tree in _modules_other_than_serialize():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert (node.value.id, node.attr) not in (("json", "dump"), ("json", "dumps")), name
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                assert not {a.name for a in node.names} & {"dump", "dumps"}, name


def test_no_module_but_serialize_spells_a_report_key():
    keys = _report_keys()
    for name, tree in _modules_other_than_serialize():
        spelled = {
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in keys
        }
        assert not spelled, f"{name} spells {sorted(spelled)}"


def test_dump_circuit_writes_the_bytes_construct_prints(tmp_path, capsys):
    dump_circuit(max0xy_depth2(), str(tmp_path / "max.json"))
    assert main(["construct", "max0xy"]) == 0
    assert capsys.readouterr().out == (tmp_path / "max.json").read_text(encoding="utf-8")


_DEPTH2 = str(GOLDEN / "input_restrict_depth2.json")


@pytest.mark.parametrize("argv", [
    ["construct", "parity", "--k", "3"],
    ["restrict", "apply", "--circuit", _DEPTH2, "--fix", "1=1,4=-1"],
    ["restrict", "survival", "--n-list", "8", "--gates", "2", "--trials", "3"],
    ["restrict", "survival", "--n-list", "8", "--gates", "2", "--trials", "3", "--format", "csv"],
    ["signrank", "random", "--m", "2"],
    ["signrank", "function", "--name", "inner-product", "--m", "2", "--format", "csv"],
    ["random-approx", "--n", "3", "--epsilon", "1/4", "--trials", "5"],
    ["refute-max", "--pwl", str(GOLDEN / "input_pwl_two-term.json")],
    ["refute-max", "--circuit", str(GOLDEN / "input_circuit_max0xy.json"), "--grid-radius", "2"],
], ids=" ".join)
def test_out_file_bytes_equal_stdout_bytes(tmp_path, capsys, argv):
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode("utf-8")
