"""Circuit JSON documents and hex truth-table strings."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relucirc import (
    FormatError,
    TruthTable,
    circuit_from_json,
    circuit_to_json,
    dump_circuit,
    load_circuit,
    rational_from_str,
    rational_to_str,
    table_from_hex,
    table_to_hex,
)

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
    assert table_to_hex(t) == "6996"
    assert table_from_hex(4, "6996") == t
    with pytest.raises(FormatError):
        table_from_hex(4, "699")  # wrong digit count
    with pytest.raises(FormatError):
        table_from_hex(4, "zzzz")
