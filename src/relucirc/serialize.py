"""Every document the package reads or writes: circuits, planar ReLU sums,
the CLI's reports and their CSV forms, plus hex truth tables.

This module is the one place that knows a format.  Each CLI command hands
its results to one builder here (`circuit_to_json`, or a ``*_report`` and
its CSV form), which also writes the command's ``config`` block.  `_json_text`
is the one JSON format, which files get piece by piece, and `_read_json` the one reader.

Output writes every rational as a "p/q" string in lowest terms.  Input
accepts any string `fractions.Fraction` parses ("2/4", " 1/2", "0.5", "3"),
and a circuit document parses each distinct string once, so repeated weights
share one `Fraction`.  The circuit document shape is::

    {"inputCount": n,
     "layers": [[{"kind": "RELU", "weights": {"x1": "1/1"}, "bias": "0/1"}]],
     "outputGate": {...},
     "skipWires": {...} | null}

and a ReLU sum is ``{"terms": [{"coeff": ..., "normal": [..., ...], "bias": ...}]}``.

Circuit weights are keyed by wire ids: ``x<i>`` for input i and ``g<k>.<j>``
for gate j of hidden layer k, both 1-based; in memory, the 0-based position
read in the layer below.  Both directions spell or parse only the ids a
document holds, so their cost follows the document, not a declared width.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Iterator, Sequence

from .circuit import AffineForm, ArityError, Circuit, Gate, GateKind, TruthTable
from .pwl import PwlSum, PwlTerm, RefutationReport


class FormatError(ArityError):
    """A document does not parse as the expected format."""


def rational_to_str(q: Fraction) -> str:
    q = q if type(q) is Fraction else Fraction(q)  # a copy of a Fraction costs 1 us
    return f"{q.numerator}/{q.denominator}"


def rational_from_str(text: str) -> Fraction:
    if not isinstance(text, str):
        raise FormatError(f"expected rational string, got {text!r}")
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise FormatError(f"bad rational {text!r}: {e}") from None
    return q


def gate_wire(layer: int, pos: int) -> str:
    """1-based layer and position -> wire id of that gate's output."""
    return f"g{layer}.{pos}"


class _WireIds(dict):
    """0-based position -> wire id in one layer of ``width`` positions (layer
    0 being the inputs), spelled when first asked for, so the gates that read
    one position share one string."""

    def __init__(self, layer: int, width: int):
        self.prefix = "x" if layer == 0 else f"g{layer}."
        self.width, self.digits = width, len(str(width))

    def __missing__(self, pos: int) -> str:
        wire = self[pos] = f"{self.prefix}{pos + 1}"
        return wire


class _WireIndex(_WireIds):
    """The inverse: wire id -> 0-based position, or None for an id that is no
    wire of the layer.  Each id is parsed when first met, so the index holds
    only the ids a document spells."""

    def __missing__(self, wire: Any) -> int | None:
        ours = isinstance(wire, str) and wire.startswith(self.prefix)
        digits = wire[len(self.prefix):] if ours else ""
        fits = digits.isascii() and digits.isdigit() and len(digits) <= self.digits
        i = int(digits) if fits else 0
        # only the canonical spelling, the one `circuit_to_json` writes
        pos = self[wire] = i - 1 if 0 < i <= self.width and str(i) == digits else None
        return pos


def _form_to_json(form: AffineForm, ids: _WireIds) -> dict[str, Any]:
    return {
        "weights": dict(sorted((ids[p], rational_to_str(w)) for p, w in form.weights.items())),
        "bias": rational_to_str(form.bias),
    }


def _rational(text: Any, parsed: dict[str, Fraction]) -> Fraction:
    """`rational_from_str(text)`, parsing each distinct string of a document
    once: ``parsed`` maps the strings already read to their values."""
    q = parsed.get(text) if isinstance(text, str) else None
    if q is None:
        q = parsed[text] = rational_from_str(text)
    return q


def _form_from_json(
    doc: Any, index: _WireIndex, reader: str, parsed: dict[str, Fraction]
) -> AffineForm:
    """The form in ``doc``, whose weight keys must be wire ids in ``index``."""
    if not isinstance(doc, dict) or "weights" not in doc or "bias" not in doc:
        raise FormatError(f"{reader} needs 'weights' and 'bias'")
    if not isinstance(doc["weights"], dict):
        raise FormatError(f"{reader}: 'weights' must be an object")
    weights = {}
    for wire, text in doc["weights"].items():
        pos = index[wire]
        if pos is None:
            raise FormatError(f"{reader}: {wire!r} is not a wire of the layer it reads")
        q = _rational(text, parsed)
        if q:
            weights[pos] = q
    return AffineForm(weights, _rational(doc["bias"], parsed))


def _gate_to_json(gate: Gate, ids: _WireIds) -> dict[str, Any]:
    return {"kind": gate.kind.value, **_form_to_json(gate.form, ids)}


def _gate_from_json(
    doc: Any, index: _WireIndex, reader: str, parsed: dict[str, Fraction]
) -> Gate:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError(f"{reader} needs a 'kind'")
    try:
        kind = GateKind(doc["kind"])
    except ValueError:
        raise FormatError(f"unknown gate kind {doc['kind']!r}") from None
    return Gate(kind, _form_from_json(doc, index, reader, parsed))


def circuit_to_json(circuit: Circuit) -> dict[str, Any]:
    ids = [_WireIds(k, w) for k, w in enumerate((circuit.input_count, *circuit.widths))]
    skip = circuit.skip_wires
    return {
        "inputCount": circuit.input_count,
        "layers": [
            [_gate_to_json(g, ids[k]) for g in layer] for k, layer in enumerate(circuit.layers)
        ],
        "outputGate": _gate_to_json(circuit.output_gate, ids[-1]),
        "skipWires": None if skip is None else _form_to_json(skip, ids[0]),
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
    if type(n) is not int or n < 0:
        raise FormatError("inputCount must be a nonnegative integer")
    if not isinstance(doc["layers"], list):
        raise FormatError("layers must be a list")
    inputs = index = _WireIndex(0, n)
    parsed: dict[str, Fraction] = {}
    layers = []
    for k, layer in enumerate(doc["layers"], start=1):
        if not isinstance(layer, list) or not layer:
            raise FormatError(f"layer {k} must be a nonempty list of gates")
        layers.append(tuple(
            _gate_from_json(g, index, gate_wire(k, j), parsed)
            for j, g in enumerate(layer, start=1)
        ))
        index = _WireIndex(k, len(layer))
    skip = doc.get("skipWires")
    return Circuit(
        input_count=n,
        layers=tuple(layers),
        output_gate=_gate_from_json(doc["outputGate"], index, "the output gate", parsed),
        skip_wires=None
        if skip is None
        else _form_from_json(skip, inputs, "the skip wires", parsed),
    )


def _json_text(doc: Any) -> Iterator[str]:
    """The one JSON format, in pieces: indent 2, sorted keys, a trailing newline."""
    yield from json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc)
    yield "\n"


def dumps(doc: Any) -> str:
    """The one JSON writer, as one string."""
    return "".join(_json_text(doc))


def _read_json(path: str) -> Any:
    """The one JSON reader: the UTF-8 document at ``path``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as e:  # a JSONDecodeError, or bytes that are not UTF-8
            raise FormatError(f"not valid JSON: {e}") from None


def dump_circuit(circuit: Circuit, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_text(circuit_to_json(circuit)))


def load_circuit(path: str) -> Circuit:
    return circuit_from_json(_read_json(path))


def table_from_hex(arity: int, text: str) -> TruthTable:
    try:
        return TruthTable.from_hex(arity, text)
    except FormatError:
        raise
    except (ArityError, ValueError) as e:
        raise FormatError(f"bad hex table: {e}") from None


def _pair(p) -> list[str]:
    return [rational_to_str(p[0]), rational_to_str(p[1])]


def pwl_to_json(f: PwlSum) -> dict:
    return {"terms": [
        {"coeff": rational_to_str(t.coeff), "normal": _pair(t.normal),
         "bias": rational_to_str(t.bias)}
        for t in f.terms
    ]}


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
        fh.writelines(_json_text(pwl_to_json(f)))


def load_pwl(path: str) -> PwlSum:
    return pwl_from_json(_read_json(path))


def refutation_to_json(report: RefutationReport) -> dict:
    w = report.witness
    witness = {
        "kind": w.kind,
        "point": _pair(w.point),
        "direction": None if w.direction is None else _pair(w.direction),
        "fResult": rational_to_str(w.f_result),
        "targetResult": rational_to_str(w.target_result),
    }
    return {
        "locusLines": [
            {
                "normal": list(loc.line.normal),
                "offset": rational_to_str(loc.line.offset),
                "jump": _pair(loc.jump),
            }
            for loc in report.locus.lines
        ],
        "witness": witness,
        "gridMaxError": rational_to_str(report.grid_max_error),
    }


# ---------------------------------------------------------------------------
# CLI reports, from the values a command resolved and the library's results
# (read by attribute: their modules import this one)


def restrict_apply_report(circuit_path: str, fix: dict[int, int], report) -> dict:
    return {
        "command": "restrict",
        "config": {
            "mode": "apply", "circuit": circuit_path,
            "fix": {str(k): v for k, v in sorted(fix.items())},
        },
        "removedAsZero": list(report.removed_as_zero),
        "linearizedAndRewired": list(report.linearized),
        "survivors": list(report.survivors),
        "restrictedCircuit": circuit_to_json(report.restricted),
    }


# one survival row's keys, in the order of its CSV columns and of its values
_SURVIVAL_COLUMNS = ("n", "gateCount", "W", "trials", "meanSurvival", "ci95lo", "ci95hi", "seed")


def _survival_values(r) -> tuple:
    return (r.n, r.gate_count, r.bound, r.trials, r.mean_survival, r.ci95_lo, r.ci95_hi, r.seed)


def survival_report(
    rows: Sequence, n_list: Sequence[int], gate_count: int, bound: int, trials: int, seed: int
) -> dict:
    return {
        "command": "restrict",
        "config": {
            "mode": "survival", "nList": n_list, "gateCount": gate_count,
            "weightBound": bound, "trials": trials, "seed": seed,
        },
        "weightDist": {"name": "uniform_int", "bound": bound},
        "rows": [dict(zip(_SURVIVAL_COLUMNS, _survival_values(r))) for r in rows],
    }


def survival_csv(rows: Sequence) -> str:
    """The rows under a header line; every value as `repr` writes it, as in JSON."""
    lines = [_SURVIVAL_COLUMNS, *(map(repr, _survival_values(r)) for r in rows)]
    return "".join(",".join(line) + "\n" for line in lines)


def block_bound_report(m: int, bound: int, widths, partition, block_bound: int, rank: int) -> dict:
    """`signrank.verify_block_bound`'s report of what it measured."""
    return {
        "m": m, "W": bound, "widths": list(widths), "rowBlocks": partition.row_blocks,
        "colBlocks": partition.col_blocks, "bound": block_bound, "exactRank": rank,
    }


def signrank_random_report(
    m: int, widths: Sequence[int], bound: int, seed: int, blocks: dict, forster: float
) -> dict:
    """``blocks`` is `block_bound_report`'s document."""
    return {
        "command": "signrank",
        "config": {"mode": "random", "m": m, "widths": widths, "weightBound": bound, "seed": seed},
        **blocks,
        "forster": forster,
        "seed": seed,
    }


def signrank_function_report(
    name: str, m: int, params, shape: tuple[int, int], forster: float, rank: int, is_one: bool
) -> dict:
    """``params`` is the function's `hardfuncs.ComposedParams`, or None."""
    config = {"mode": "function", "name": name, "m": m}
    if params is not None:
        config.update(blocks=params.blocks, blockWidth=params.block_width)
    return {
        "command": "signrank", "config": config, "shape": list(shape), "forster": forster,
        "exactRank": rank, "signRankIsOne": is_one,
    }


def matrix_csv(matrix) -> str:
    """A `signrank` sign or rational matrix, one row a line."""
    return "".join(
        ",".join(str(v) if isinstance(v, int) else rational_to_str(v) for v in row) + "\n"
        for row in matrix.entries
    )


def random_approx_report(
    n: int, epsilon: Fraction, trials: int, seed: int, gates: int, weight_bound: int, probe
) -> dict:
    """The report of a probe against the "parity" or "random-circuit"
    reference; the second is named with the size it was drawn at."""
    reference = probe.reference
    if reference == "random-circuit":
        reference = f"random-circuit(gates={gates}, weightBound={weight_bound})"
    return {
        "command": "random-approx",
        "config": {
            "n": n, "epsilon": rational_to_str(epsilon), "trials": trials, "seed": seed,
            "reference": reference,
        },
        "n": probe.n, "epsilon": rational_to_str(probe.epsilon), "trials": probe.trials,
        "seed": probe.seed, "reference": reference,
        "minAgreementCount": probe.min_agreement_count, "hits": probe.hits,
        "empirical": probe.empirical, "chernoffBound": probe.chernoff_bound,
        "exactTail": probe.exact_tail, "threeStandardErrors": probe.three_standard_errors,
    }


def _refute_config(source: str, path: str, radius: Fraction, step: Fraction) -> dict:
    grid = {"gridRadius": rational_to_str(radius), "gridStep": rational_to_str(step)}
    return {"command": "refute-max", "config": {source: path, **grid}}


def refute_pwl_report(
    path: str, radius: Fraction, step: Fraction, report: RefutationReport
) -> dict:
    return {**_refute_config("pwl", path, radius, step), **refutation_to_json(report)}


def refute_circuit_report(path: str, radius: Fraction, step: Fraction, mismatch) -> dict:
    """``mismatch`` is `pwl.first_grid_mismatch`'s (point, got, want), or None."""
    return {
        **_refute_config("circuit", path, radius, step),
        "verified": mismatch is None,
        "mismatch": None if mismatch is None else {
            "point": _pair(mismatch[0]),
            "got": rational_to_str(mismatch[1]),
            "want": rational_to_str(mismatch[2]),
        },
    }
