"""JSON documents: circuits, planar ReLU sums and refutation reports, plus
hex truth tables.

Rationals travel as "p/q" strings in lowest terms (a bare "p" is accepted on
input).  The circuit document shape is::

    {"inputCount": n,
     "layers": [[{"kind": "RELU", "weights": {"x1": "1/1"}, "bias": "0/1"}]],
     "outputGate": {...},
     "skipWires": {...} | null}

and a ReLU sum is ``{"terms": [{"coeff": ..., "normal": [..., ...], "bias": ...}]}``.

Circuit weights are keyed by wire ids: ``x<i>`` for input i and ``g<k>.<j>``
for gate j of hidden layer k, both 1-based.  This module is the only place
that knows the format: in memory a form's weights are keyed by the 0-based
position it reads in the layer below, so `circuit_from_json` maps each id
through the ids of that layer and rejects ids of any other layer.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .circuit import (
    AffineForm,
    ArityError,
    Circuit,
    Gate,
    GateKind,
    TruthTable,
)
from .pwl import PwlSum, PwlTerm, RefutationReport


class FormatError(ArityError):
    """A document does not parse as the expected format."""


def rational_to_str(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def rational_from_str(text: str) -> Fraction:
    if not isinstance(text, str):
        raise FormatError(f"expected rational string, got {text!r}")
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise FormatError(f"bad rational {text!r}: {e}") from None
    return q


def input_wire(i: int) -> str:
    """1-based input coordinate i -> wire id."""
    return f"x{i}"


def gate_wire(layer: int, pos: int) -> str:
    """1-based layer and position -> wire id of that gate's output."""
    return f"g{layer}.{pos}"


def _wire_ids(layer: int, width: int) -> list[str]:
    """The wire ids of a layer's positions: the inputs (layer 0) or its gates."""
    if layer == 0:
        return [input_wire(i + 1) for i in range(width)]
    return [gate_wire(layer, j + 1) for j in range(width)]


def _form_to_json(form: AffineForm, ids: list[str]) -> dict[str, Any]:
    return {
        "weights": dict(sorted((ids[p], rational_to_str(w)) for p, w in form.weights.items())),
        "bias": rational_to_str(form.bias),
    }


def _form_from_json(doc: Any, index: dict[str, int], reader: str) -> AffineForm:
    """The form in ``doc``, whose weight keys must be wire ids in ``index``."""
    if not isinstance(doc, dict) or "weights" not in doc or "bias" not in doc:
        raise FormatError(f"{reader} needs 'weights' and 'bias'")
    if not isinstance(doc["weights"], dict):
        raise FormatError(f"{reader}: 'weights' must be an object")
    weights = {}
    for wire, text in doc["weights"].items():
        if wire not in index:
            raise FormatError(f"{reader}: {wire!r} is not a wire of the layer it reads")
        q = rational_from_str(text)
        if q:
            weights[index[wire]] = q
    return AffineForm(weights, rational_from_str(doc["bias"]))


def _gate_to_json(gate: Gate, ids: list[str]) -> dict[str, Any]:
    doc = {"kind": gate.kind.value}
    doc.update(_form_to_json(gate.form, ids))
    return doc


def _gate_from_json(doc: Any, index: dict[str, int], reader: str) -> Gate:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError(f"{reader} needs a 'kind'")
    try:
        kind = GateKind(doc["kind"])
    except ValueError:
        raise FormatError(f"unknown gate kind {doc['kind']!r}") from None
    return Gate(kind, _form_from_json(doc, index, reader))


def circuit_to_json(circuit: Circuit) -> dict[str, Any]:
    inputs = _wire_ids(0, circuit.input_count)
    ids = inputs
    layers = []
    for k, layer in enumerate(circuit.layers, start=1):
        layers.append([_gate_to_json(g, ids) for g in layer])
        ids = _wire_ids(k, len(layer))
    return {
        "inputCount": circuit.input_count,
        "layers": layers,
        "outputGate": _gate_to_json(circuit.output_gate, ids),
        "skipWires": None
        if circuit.skip_wires is None
        else _form_to_json(circuit.skip_wires, inputs),
    }


def circuit_from_json(doc: Any) -> Circuit:
    """The circuit in ``doc``.  Each form's weight keys must be the wire ids
    of the layer it reads; they become positions in that layer."""
    if not isinstance(doc, dict):
        raise FormatError("circuit document must be an object")
    missing = {"inputCount", "layers", "outputGate"} - set(doc)
    if missing:
        raise FormatError(f"circuit document missing {sorted(missing)}")
    n = doc["inputCount"]
    if not isinstance(n, int) or n < 0:
        raise FormatError("inputCount must be a nonnegative integer")
    if not isinstance(doc["layers"], list):
        raise FormatError("layers must be a list")
    inputs = {wire: i for i, wire in enumerate(_wire_ids(0, n))}
    index = inputs
    layers = []
    for k, layer in enumerate(doc["layers"], start=1):
        if not isinstance(layer, list) or not layer:
            raise FormatError(f"layer {k} must be a nonempty list of gates")
        layers.append(tuple(
            _gate_from_json(g, index, gate_wire(k, j))
            for j, g in enumerate(layer, start=1)
        ))
        index = {wire: j for j, wire in enumerate(_wire_ids(k, len(layer)))}
    skip = doc.get("skipWires")
    return Circuit(
        input_count=n,
        layers=tuple(layers),
        output_gate=_gate_from_json(doc["outputGate"], index, "the output gate"),
        skip_wires=None if skip is None else _form_from_json(skip, inputs, "the skip wires"),
    )


def dump_circuit(circuit: Circuit, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(circuit_to_json(circuit), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_circuit(path: str) -> Circuit:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise FormatError(f"not valid JSON: {e}") from None
    return circuit_from_json(doc)


def table_to_hex(table: TruthTable) -> str:
    return table.to_hex()


def table_from_hex(arity: int, text: str) -> TruthTable:
    try:
        return TruthTable.from_hex(arity, text)
    except FormatError:
        raise
    except (ArityError, ValueError) as e:
        raise FormatError(f"bad hex table: {e}") from None


def pwl_to_json(f: PwlSum) -> dict:
    return {
        "terms": [
            {
                "coeff": rational_to_str(t.coeff),
                "normal": [rational_to_str(t.normal[0]), rational_to_str(t.normal[1])],
                "bias": rational_to_str(t.bias),
            }
            for t in f.terms
        ]
    }


def pwl_from_json(doc: dict) -> PwlSum:
    if not isinstance(doc, dict) or not isinstance(doc.get("terms"), list):
        raise FormatError("expected an object with a 'terms' list")
    terms = []
    for i, raw in enumerate(doc["terms"]):
        try:
            normal = raw["normal"]
            if len(normal) != 2:
                raise FormatError(f"term {i}: normal must have two coordinates")
            terms.append(
                PwlTerm(
                    rational_from_str(raw["coeff"]),
                    (rational_from_str(normal[0]), rational_from_str(normal[1])),
                    rational_from_str(raw["bias"]),
                )
            )
        except (KeyError, TypeError) as exc:
            raise FormatError(f"term {i} is malformed: {exc}") from exc
    return PwlSum(tuple(terms))


def dump_pwl(f: PwlSum, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pwl_to_json(f), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_pwl(path: str) -> PwlSum:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
    return pwl_from_json(doc)


def refutation_to_json(report: RefutationReport) -> dict:
    w = report.witness
    witness = {
        "kind": w.kind,
        "point": [rational_to_str(w.point[0]), rational_to_str(w.point[1])],
        "direction": None
        if w.direction is None
        else [rational_to_str(w.direction[0]), rational_to_str(w.direction[1])],
        "fResult": rational_to_str(w.f_result),
        "targetResult": rational_to_str(w.target_result),
    }
    return {
        "locusLines": [
            {
                "normal": list(loc.line.normal),
                "offset": rational_to_str(loc.line.offset),
                "jump": [rational_to_str(loc.jump[0]), rational_to_str(loc.jump[1])],
            }
            for loc in report.locus.lines
        ],
        "witness": witness,
        "gridMaxError": rational_to_str(report.grid_max_error),
    }
