"""JSON documents: circuits, planar ReLU sums and refutation reports, plus
hex truth tables.

Rationals travel as "p/q" strings in lowest terms (a bare "p" is accepted on
input).  The circuit document shape is::

    {"inputCount": n,
     "layers": [[{"kind": "RELU", "weights": {"x1": "1/1"}, "bias": "0/1"}]],
     "outputGate": {...},
     "skipWires": {...} | null}

and a ReLU sum is ``{"terms": [{"coeff": ..., "normal": [..., ...], "bias": ...}]}``.
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
    WireError,
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


def _form_to_json(form: AffineForm) -> dict[str, Any]:
    return {
        "weights": {wire: rational_to_str(w) for wire, w in sorted(form.weights.items())},
        "bias": rational_to_str(form.bias),
    }


def _form_from_json(doc: Any) -> AffineForm:
    if not isinstance(doc, dict) or "weights" not in doc or "bias" not in doc:
        raise FormatError("affine form needs 'weights' and 'bias'")
    weights = {
        str(wire): rational_from_str(w) for wire, w in dict(doc["weights"]).items()
    }
    return AffineForm(
        {w: q for w, q in weights.items() if q != 0},
        rational_from_str(doc["bias"]),
    )


def _gate_to_json(gate: Gate) -> dict[str, Any]:
    doc = {"kind": gate.kind.value}
    doc.update(_form_to_json(gate.form))
    return doc


def _gate_from_json(doc: Any) -> Gate:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError("gate needs a 'kind'")
    try:
        kind = GateKind(doc["kind"])
    except ValueError:
        raise FormatError(f"unknown gate kind {doc['kind']!r}") from None
    return Gate(kind, _form_from_json(doc))


def circuit_to_json(circuit: Circuit) -> dict[str, Any]:
    return {
        "inputCount": circuit.input_count,
        "layers": [[_gate_to_json(g) for g in layer] for layer in circuit.layers],
        "outputGate": _gate_to_json(circuit.output_gate),
        "skipWires": None
        if circuit.skip_wires is None
        else _form_to_json(circuit.skip_wires),
    }


def circuit_from_json(doc: Any) -> Circuit:
    if not isinstance(doc, dict):
        raise FormatError("circuit document must be an object")
    missing = {"inputCount", "layers", "outputGate"} - set(doc)
    if missing:
        raise FormatError(f"circuit document missing {sorted(missing)}")
    if not isinstance(doc["inputCount"], int):
        raise FormatError("inputCount must be an integer")
    layers = tuple(
        tuple(_gate_from_json(g) for g in layer) for layer in doc["layers"]
    )
    skip = doc.get("skipWires")
    try:
        return Circuit(
            input_count=doc["inputCount"],
            layers=layers,
            output_gate=_gate_from_json(doc["outputGate"]),
            skip_wires=None if skip is None else _form_from_json(skip),
        )
    except WireError as e:
        raise FormatError(f"inconsistent circuit document: {e}") from None


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
