"""Command-line surface: seeded, reproducible experiments over the library.

Each command parses its arguments, calls the library, hands the results to
one `serialize` builder and passes that document to `_emit`; no report key
or format is decided here.  Every report embeds its resolved configuration
and seed, with stable key order and no timestamps, so the same invocation
always produces the same bytes.  Exit codes: 0 success, 2 bad usage or
malformed input, 3 resource cap exceeded, 4 invariant violation.
"""
from __future__ import annotations

import argparse
import functools
import random
import sys
from fractions import Fraction

from . import serialize
from .circuit import (
    CircuitError,
    Gate,
    GateKind,
    InvariantViolationError,
    ResourceCapError,
    affine,
    enumeration_cap,
    truth_table,
)
from .constructions import (
    linear_as_2relu,
    ltf_to_relu,
    max0xy_depth2,
    parity_sum_of_relu,
    universal_fourier,
    universal_vertex_indicators,
)
from .experiments import parity_table, random_agreement_probe
from .hardfuncs import ComposedParams
from .pwl import _grid_axis, first_grid_mismatch, refute_max0xy
from .restriction import (
    Restriction,
    apply_restriction,
    random_ltf_of_relu,
    survival_experiment,
)
from .signrank import (
    VertexOrdering,
    _verified_block_bound,
    arkadev_nikhil_matrix,
    exact_rank,
    forster_lower_bound,
    inner_product_matrix,
    random_cone_circuit,
    sign_pattern,
    sign_rank_is_one,
)

# the reference-circuit stream must not replay the probe's stream for the
# same seed, so it derives from a fixed offset
_REFERENCE_SEED_OFFSET = 0x9E3779B9


# argument types raise ArgumentTypeError, whose message argparse prints as is
def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number") from None


def _fraction_list(text: str) -> list[Fraction]:
    return [_fraction(part) for part in text.split(",") if part != ""]


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None


def _int_list(text: str) -> list[int]:
    return [_int(part) for part in text.split(",") if part != ""]


def _fix_map(text: str) -> dict[int, int]:
    fixed: dict[int, int] = {}
    for part in text.split(","):
        if part == "":
            continue
        coord, _, val = part.partition("=")
        sign = {"1": 1, "+1": 1, "-1": -1}.get(val.strip())
        if sign is None:
            raise argparse.ArgumentTypeError(
                f"fix value for coordinate {coord!r} must be +1 or -1"
            )
        i = _int(coord)
        if i in fixed:
            raise argparse.ArgumentTypeError(f"coordinate {i} is fixed twice")
        fixed[i] = sign
    return fixed


def _cap(args, needed: int) -> int | None:
    """None keeps the library defaults; --unsafe-cap raises them to `needed`."""
    return needed if getattr(args, "unsafe_cap", False) else None


def _require_size(args, size: int, noun: str) -> None:
    """Refuse a `size` above 2^cap, the enumeration cap (`--unsafe-cap`
    raises it to cover `size`)."""
    cap = enumeration_cap(_cap(args, (size - 1).bit_length()))
    if size > 1 << cap:
        raise ResourceCapError(f"{size} {noun} exceed the cap of 2^{cap}")


def _emit(args, doc: dict, csv=None) -> None:
    """Write `serialize.dumps(doc)`, or ``csv()`` under --format csv, to --out or stdout."""
    if getattr(args, "format", "json") == "csv":
        if csv is None:
            raise CircuitError("this command has no CSV form")
        text = csv()
    else:
        text = serialize.dumps(doc)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CircuitError(message)


# ---------------------------------------------------------------------------
# construct

def cmd_construct(args) -> int:
    kind = args.kind
    if kind == "parity":
        _require(args.k is not None, "construct parity needs --k")
        _require_size(args, args.k * (args.k + 1), "parity weights")
        circuit = parity_sum_of_relu(args.k)
    elif kind == "max0xy":
        circuit = max0xy_depth2()
    elif kind in ("universal-vertex", "universal-fourier"):
        _require(
            args.table is not None and args.n is not None,
            f"construct {kind} needs --table <hex> and --n",
        )
        table = serialize.table_from_hex(args.n, args.table)
        build = universal_vertex_indicators if kind == "universal-vertex" else universal_fourier
        circuit = build(table, cap=_cap(args, args.n))
    elif kind == "ltf2relu":
        _require(args.weights is not None, "construct ltf2relu needs --weights")
        gate = Gate(GateKind.LTF, affine(dict(enumerate(args.weights)), args.bias))
        circuit = ltf_to_relu(gate, len(args.weights), cap=_cap(args, len(args.weights)))
    else:  # linear
        _require(args.weights is not None, "construct linear needs --weights")
        circuit = linear_as_2relu(
            affine(dict(enumerate(args.weights)), args.bias), len(args.weights)
        )
    print(
        f"kind={kind} reluGates={circuit.relu_count} depth={circuit.depth} size={circuit.size}",
        file=sys.stderr,
    )
    _emit(args, serialize.circuit_to_json(circuit))
    return 0


# ---------------------------------------------------------------------------
# restrict

def cmd_restrict(args) -> int:
    if args.mode == "apply":
        _require(args.circuit is not None, "restrict apply needs --circuit")
        _require(args.fix is not None, "restrict apply needs --fix")
        circuit = serialize.load_circuit(args.circuit)
        rho = Restriction(circuit.input_count, args.fix)
        report = apply_restriction(circuit, rho)
        _emit(args, serialize.restrict_apply_report(args.circuit, args.fix, report))
        return 0
    rows = survival_experiment(args.n_list, args.gates, args.weight_bound, args.trials, args.seed)
    doc = serialize.survival_report(
        rows, args.n_list, args.gates, args.weight_bound, args.trials, args.seed
    )
    _emit(args, doc, csv=lambda: serialize.survival_csv(rows))
    return 0


# ---------------------------------------------------------------------------
# signrank

def cmd_signrank(args) -> int:
    if args.mode == "random":
        _require(args.m is not None, "signrank random needs --m")
        rng = random.Random(args.seed)
        circuit = random_cone_circuit(args.m, args.widths, args.weight_bound, rng)
        sigma = VertexOrdering.standard(args.m)
        blocks, matrix = _verified_block_bound(
            circuit, args.m, args.weight_bound, sigma, sigma, cap=_cap(args, args.m)
        )
        forster = forster_lower_bound(sign_pattern(matrix))
        _emit(args, serialize.signrank_random_report(
            args.m, args.widths, args.weight_bound, args.seed, blocks, forster
        ))
        return 0
    name = args.name
    _require(name is not None, "signrank function needs --name")
    if name == "inner-product":
        _require(args.m is not None, "inner-product needs --m")
        m = args.m
        matrix = inner_product_matrix(m, cap=_cap(args, m))
        params = None
    else:  # arkadev-nikhil
        _require(args.blocks is not None and args.block_width is not None,
                 "arkadev-nikhil needs --blocks and --block-width")
        params = ComposedParams(args.blocks, args.block_width)
        m = params.side_bits
        matrix = arkadev_nikhil_matrix(params, cap=_cap(args, m))
    doc = serialize.signrank_function_report(
        name, m, params, matrix.shape,
        forster_lower_bound(matrix), exact_rank(matrix), sign_rank_is_one(matrix),
    )
    _emit(args, doc, csv=lambda: serialize.matrix_csv(matrix))
    return 0


# ---------------------------------------------------------------------------
# random-approx

def cmd_random_approx(args) -> int:
    if args.reference == "parity":
        table = parity_table(args.n)
        reference = "parity"
    else:
        rng = random.Random(args.seed + _REFERENCE_SEED_OFFSET)
        circuit = random_ltf_of_relu(args.n, args.gates, args.weight_bound, rng)
        table = truth_table(circuit, cap=_cap(args, args.n))
        reference = f"random-circuit(gates={args.gates}, weightBound={args.weight_bound})"
    probe = random_agreement_probe(
        table, args.epsilon, args.trials, args.seed, reference_name=reference,
        cap=_cap(args, args.n),
    )
    _emit(args, serialize.random_approx_report(
        args.n, args.epsilon, args.trials, args.seed, reference, probe
    ))
    return 0


# ---------------------------------------------------------------------------
# refute-max

def cmd_refute_max(args) -> int:
    count, _, _ = _grid_axis(args.grid_radius, args.grid_step)
    _require_size(args, (2 * count + 1) ** 2, "grid points")
    if args.pwl is not None:
        f = serialize.load_pwl(args.pwl)
        report = refute_max0xy(f, args.grid_radius, args.grid_step)
        _emit(args, serialize.refute_pwl_report(args.pwl, args.grid_radius, args.grid_step, report))
        return 0
    circuit = serialize.load_circuit(args.circuit)
    mismatch = first_grid_mismatch(circuit, args.grid_radius, args.grid_step)
    doc = serialize.refute_circuit_report(args.circuit, args.grid_radius, args.grid_step, mismatch)
    _emit(args, doc)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(sub, fmt: bool = True) -> None:
    sub.add_argument("--out", help="write the report here instead of stdout")
    if fmt:
        sub.add_argument(
            "--format", choices=("json", "csv"), default="json",
            help="report format (csv only for tabular payloads)",
        )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process: parsing leaves it as it was, and its list
    defaults are tuples, so no call sees another's arguments."""
    parser = argparse.ArgumentParser(
        prog="relucirc",
        description="Exact ReLU/LTF circuit constructions, restrictions, and rank experiments.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("construct", help="build a named circuit and emit its JSON")
    p.add_argument(
        "kind",
        choices=(
            "parity", "ltf2relu", "universal-vertex", "universal-fourier",
            "linear", "max0xy",
        ),
    )
    p.add_argument("--k", type=int, help="parity: number of 0/1 inputs")
    p.add_argument("--n", type=int, help="universal-*: table arity")
    p.add_argument("--table", help="universal-*: truth table as hex (MSB first)")
    p.add_argument(
        "--weights", type=_fraction_list,
        help="ltf2relu/linear: comma-separated rational weights",
    )
    p.add_argument("--bias", type=_fraction, default=Fraction(0))
    p.add_argument(
        "--unsafe-cap", action="store_true",
        help="lift the arity cap (universal-*, ltf2relu) or the weight cap (parity)",
    )
    _add_common(p, fmt=False)
    p.set_defaults(func=cmd_construct)

    p = subs.add_parser("restrict", help="collapse a circuit under a restriction, or sweep survival statistics")
    p.add_argument("mode", choices=("apply", "survival"))
    p.add_argument("--circuit", help="apply: circuit JSON file")
    p.add_argument(
        "--fix", type=_fix_map,
        help="apply: fixed coordinates, e.g. '1=-1,3=+1'",
    )
    p.add_argument("--n-list", type=_int_list, default=(64, 256, 1024))
    p.add_argument("--gates", type=int, default=32)
    p.add_argument("--weight-bound", type=int, default=4)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_restrict)

    p = subs.add_parser("signrank", help="block structure, exact rank, and the spectral sign-rank bound")
    p.add_argument("mode", choices=("random", "function"))
    p.add_argument("--m", type=int, help="half-arity (matrix is 2^m x 2^m)")
    p.add_argument("--widths", type=_int_list, default=(2, 2), help="random: hidden layer widths")
    p.add_argument("--weight-bound", type=int, default=2, help="random: bottom-layer integer weight bound")
    p.add_argument("--name", choices=("inner-product", "arkadev-nikhil"))
    p.add_argument("--blocks", type=int, help="arkadev-nikhil: OR block count")
    p.add_argument("--block-width", type=int, help="arkadev-nikhil: OR block width")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unsafe-cap", action="store_true", help="lift the matrix cap on --m")
    _add_common(p)
    p.set_defaults(func=cmd_signrank)

    p = subs.add_parser("random-approx", help="random-function agreement frequency vs. the analytic bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reference", choices=("parity", "random-circuit"), default="parity")
    p.add_argument("--gates", type=int, default=8, help="random-circuit reference size")
    p.add_argument("--weight-bound", type=int, default=4)
    p.add_argument("--unsafe-cap", action="store_true", help="lift the arity caps on --n")
    _add_common(p, fmt=False)
    p.set_defaults(func=cmd_random_approx)

    p = subs.add_parser("refute-max", help="witness that a ReLU sum differs from max{0,x1,x2}, or grid-verify a circuit")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--pwl", help="PwlSum JSON file to refute")
    source.add_argument("--circuit", help="circuit JSON file to grid-verify")
    p.add_argument("--grid-radius", type=_fraction, default=Fraction(10))
    p.add_argument("--grid-step", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--unsafe-cap", action="store_true", help="lift the cap on grid points")
    _add_common(p, fmt=False)
    p.set_defaults(func=cmd_refute_max)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (CircuitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
