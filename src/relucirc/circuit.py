"""Layered circuits of ReLU / linear-threshold / affine gates over exact rationals.

Gates in layer k read only layer k-1 outputs (inputs form layer 0); an optional
skip connection feeds an affine function of the inputs straight into the output
gate.  All arithmetic is exact, on `fractions.Fraction` or on integers scaled
by a common denominator; floats are rejected so results never depend on
rounding.
"""
from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

DEFAULT_ENUMERATION_CAP = 24  # max arity for exhaustive truth tables
DEFAULT_MATRIX_CAP = 12       # max m for 2^m x 2^m communication matrices

_CAP_ENV = "RELUCIRC_CAP_OVERRIDE"

# Structures that depend only on the arity (cubes, wire maps, table-independent
# gates) are cached and shared up to this arity, or 2^this many wires.
_CACHE_BITS = 12


class CircuitError(Exception):
    """Base class for all errors raised by this package."""


class ArityError(CircuitError):
    """An input vector, table, or restriction has the wrong shape."""


class WireError(CircuitError):
    """A gate references a wire that its layer is not allowed to read."""


class ResourceCapError(CircuitError):
    """An enumeration was requested beyond the configured safety cap."""


class ContractError(CircuitError):
    """A precondition on an operation's argument does not hold."""


class InvariantViolationError(CircuitError):
    """A checked mathematical invariant failed; this falsifies the build."""


def _env_caps() -> dict[str, int]:
    raw = os.environ.get(_CAP_ENV, "").strip()
    if not raw:
        return {}
    caps: dict[str, int] = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            key, _, val = part.partition("=")
            caps[key.strip()] = int(val)
        else:
            # bare integer overrides the enumeration cap
            caps["table"] = int(part)
    return caps


def enumeration_cap(explicit: int | None = None) -> int:
    if explicit is not None:
        return explicit
    return _env_caps().get("table", DEFAULT_ENUMERATION_CAP)


def matrix_cap(explicit: int | None = None) -> int:
    if explicit is not None:
        return explicit
    return _env_caps().get("matrix", DEFAULT_MATRIX_CAP)


Rational = Fraction | int


def exact(value: Rational | str) -> Fraction:
    """Coerce to Fraction, rejecting floats so evaluation stays exact."""
    if isinstance(value, float):
        raise ArityError("floating point values are not accepted; pass Fraction or int")
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def input_wire(i: int) -> str:
    """1-based input coordinate i -> wire id."""
    return f"x{i}"


def gate_wire(layer: int, pos: int) -> str:
    """1-based layer and position -> wire id of that gate's output."""
    return f"g{layer}.{pos}"


def _wire_index(layer: int, width: int) -> Mapping[str, int]:
    """Wire id -> 0-based position, for the inputs (layer 0) or a gate layer.

    Read-only, since up to 2^_CACHE_BITS wires the mapping is cached and shared.
    """
    if width <= 1 << _CACHE_BITS:
        return _shared_wire_index(layer, width)
    return _shared_wire_index.__wrapped__(layer, width)


@lru_cache(maxsize=256)
def _shared_wire_index(layer: int, width: int) -> Mapping[str, int]:
    if layer == 0:
        return MappingProxyType({input_wire(i + 1): i for i in range(width)})
    return MappingProxyType({gate_wire(layer, j + 1): j for j in range(width)})


_INPUT_RE = re.compile(r"^x([1-9][0-9]*)$")
_GATE_RE = re.compile(r"^g([1-9][0-9]*)\.([1-9][0-9]*)$")


def parse_wire(wire: str) -> tuple[str, int, int]:
    """Return ("x", i, 0) for inputs or ("g", layer, pos) for gates (1-based)."""
    m = _INPUT_RE.match(wire)
    if m:
        return ("x", int(m.group(1)), 0)
    m = _GATE_RE.match(wire)
    if m:
        return ("g", int(m.group(1)), int(m.group(2)))
    raise WireError(f"malformed wire id {wire!r}")


def affine(weights: Mapping[str, Rational], bias: Rational = 0) -> "AffineForm":
    """Build an AffineForm, coercing values and dropping zero weights."""
    w = {}
    for wire, val in weights.items():
        q = exact(val)
        if q:
            w[wire] = q
    return AffineForm(w, exact(bias))


@dataclass(frozen=True)
class AffineForm:
    """weights . wires + bias, with exact rational coefficients."""

    weights: Mapping[str, Fraction]
    bias: Fraction = Fraction(0)

    def value(self, wires: Mapping[str, Fraction]) -> Fraction:
        total = self.bias
        for wire, w in self.weights.items():
            total += w * wires[wire]
        return total

    def weight_sum_abs(self) -> Fraction:
        return sum((abs(w) for w in self.weights.values()), Fraction(0))

    def is_constant(self) -> bool:
        return not self.weights

    def _integer_row(
        self, index_of: Mapping[str, int], width: int
    ) -> tuple[list[int], int, int, int]:
        """(row, bias, scale, sum of |row|): the form times ``scale``, the lcm
        of its denominators, as a dense integer row over ``width`` positions.

        The wire ids fix the positions, so the result is cached per width;
        the row is shared and must not be mutated.
        """
        cache = self._rows
        if width not in cache:
            ratios = [
                (index_of[wire], *w.as_integer_ratio())
                for wire, w in self.weights.items()
            ]
            b_num, b_den = self.bias.as_integer_ratio()
            scale = math.lcm(b_den, *(den for _, _, den in ratios))
            row = [0] * width
            for i, num, den in ratios:
                row[i] = num * (scale // den)
            cache[width] = (row, b_num * (scale // b_den), scale, sum(map(abs, row)))
        return cache[width]

    @cached_property
    def _rows(self) -> dict[int, tuple[list[int], int, int, int]]:
        return {}


class GateKind(str, Enum):
    RELU = "RELU"
    LTF = "LTF"
    SUM = "SUM"


def apply_kind(kind: GateKind, t: Fraction) -> Fraction:
    if kind is GateKind.RELU:
        return t if t > 0 else Fraction(0)
    if kind is GateKind.LTF:
        # threshold at exactly zero outputs +1
        return Fraction(1) if t >= 0 else Fraction(-1)
    return t


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    form: AffineForm


@dataclass(frozen=True)
class Circuit:
    """A layered gate DAG with an optional input->output skip connection.

    ``layers`` holds the hidden layers; ``output_gate`` sits on top and reads
    the last hidden layer (or the inputs when there are no hidden layers).
    ``skip_wires`` is an affine function of the inputs added to the output
    gate's argument before its nonlinearity is applied.
    """

    input_count: int
    layers: tuple[tuple[Gate, ...], ...]
    output_gate: Gate
    skip_wires: AffineForm | None = None

    def __post_init__(self):
        if self.input_count < 0:
            raise ArityError("negative input count")
        object.__setattr__(self, "layers", tuple(tuple(layer) for layer in self.layers))
        self._validate()

    def _validate(self) -> None:
        inputs = _wire_index(0, self.input_count).keys()
        prev = inputs
        for k, layer in enumerate(self.layers, start=1):
            if not layer:
                raise WireError(f"layer {k} is empty")
            for j, gate in enumerate(layer, start=1):
                if not prev >= gate.form.weights.keys():
                    bad = set(gate.form.weights) - prev
                    raise WireError(
                        f"gate g{k}.{j} reads {sorted(bad)} outside layer {k - 1}"
                    )
            prev = _wire_index(k, len(layer)).keys()
        bad = set(self.output_gate.form.weights) - prev
        if bad:
            raise WireError(f"output gate reads {sorted(bad)} outside the last layer")
        if self.skip_wires is not None:
            bad = set(self.skip_wires.weights) - inputs
            if bad:
                raise WireError(f"skip wires read non-inputs {sorted(bad)}")

    @cached_property
    def _lowered(self) -> "_Lowering":
        """Integer form of the circuit, built on first use.

        Not a dataclass field: equality, repr and the JSON document ignore it.
        """
        return _Lowering(self)

    @property
    def depth(self) -> int:
        return len(self.layers) + 1

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.layers)

    @property
    def size(self) -> int:
        return sum(self.widths) + 1

    @property
    def relu_count(self) -> int:
        count = sum(
            1 for layer in self.layers for g in layer if g.kind is GateKind.RELU
        )
        if self.output_gate.kind is GateKind.RELU:
            count += 1
        return count

    def gates(self) -> Iterator[tuple[str, Gate]]:
        for k, layer in enumerate(self.layers, start=1):
            for j, gate in enumerate(layer, start=1):
                yield gate_wire(k, j), gate
        yield "output", self.output_gate


def evaluate(circuit: Circuit, point: Sequence[Rational]) -> Fraction:
    """Evaluate the circuit at an arbitrary rational point (not just the cube).

    The point is scaled by the lcm of its denominators and run through the
    same integer kernel as the cube enumerator, on Python ints, so there is
    no overflow case.
    """
    if len(point) != circuit.input_count:
        raise ArityError(
            f"point has {len(point)} coordinates, circuit expects {circuit.input_count}"
        )
    ratios = [exact(v).as_integer_ratio() for v in point]
    x_den = math.lcm(*(den for _, den in ratios))
    x = np.array([num * (x_den // den) for num, den in ratios], dtype=object)
    fwd = _forward(circuit._lowered, x.reshape(-1, 1), x_den)
    return apply_kind(circuit.output_gate.kind, fwd.output_pre(0))


# ---------------------------------------------------------------------------
# hypercube vertex enumeration
#
# Vertex index convention: coordinate x_i contributes bit b_i = (1 - x_i) / 2
# at position i-1, so the all-(+1) vertex is index 0 and x_1 is the least
# significant coordinate.

def vertex(n: int, index: int) -> tuple[int, ...]:
    if not 0 <= index < (1 << n):
        raise ArityError(f"index {index} out of range for arity {n}")
    return tuple(1 - 2 * ((index >> i) & 1) for i in range(n))


def vertex_index(x: Sequence[int]) -> int:
    idx = 0
    for i, v in enumerate(x):
        if v == -1:
            idx |= 1 << i
        elif v != 1:
            raise ArityError(f"coordinate {i + 1} is {v}, expected +1 or -1")
    return idx


def cube_matrix(n: int, dtype=np.int64) -> np.ndarray:
    """(n, 2^n) matrix whose column j is the vertex with index j."""
    return _cube_slab(n, 0, 1 << n).astype(dtype)


@dataclass(frozen=True)
class TruthTable:
    """Bit-packed +-1 truth table over the n-cube.

    Bit i of ``bits`` is 1 exactly when the function is -1 on the vertex with
    index i (the same 0 <-> +1 pairing used for vertex indices).
    """

    arity: int
    bits: int

    def __post_init__(self):
        if self.arity < 0:
            raise ArityError("negative arity")
        if not 0 <= self.bits < (1 << (1 << self.arity)):
            raise ArityError("bit pattern wider than 2^arity")

    @classmethod
    def from_signs(cls, n: int, signs: Iterable[int]) -> "TruthTable":
        bits = 0
        count = 0
        for i, s in enumerate(signs):
            if s == -1:
                bits |= 1 << i
            elif s != 1:
                raise ArityError(f"table value {s} at index {i}, expected +1 or -1")
            count += 1
        if count != (1 << n):
            raise ArityError(f"expected {1 << n} values, got {count}")
        return cls(n, bits)

    @classmethod
    def from_function(
        cls, n: int, f: Callable[[tuple[int, ...]], int], cap: int | None = None
    ) -> "TruthTable":
        if n > enumeration_cap(cap):
            raise ResourceCapError(f"arity {n} exceeds enumeration cap")
        return cls.from_signs(n, (f(vertex(n, i)) for i in range(1 << n)))

    def value(self, index: int) -> int:
        if not 0 <= index < (1 << self.arity):
            raise ArityError(f"index {index} out of range")
        return -1 if (self.bits >> index) & 1 else 1

    def signs(self) -> list[int]:
        return [self.value(i) for i in range(1 << self.arity)]

    def to_hex(self) -> str:
        """Hex string, most significant nibble first: table index 0 leads."""
        n_points = 1 << self.arity
        digits = max(1, n_points // 4)
        reversed_bits = int(f"{self.bits:0{n_points}b}"[::-1], 2)
        return f"{reversed_bits:0{digits}x}"

    @classmethod
    def from_hex(cls, n: int, text: str) -> "TruthTable":
        n_points = 1 << n
        digits = max(1, n_points // 4)
        if len(text) != digits:
            raise ArityError(f"hex table for arity {n} needs {digits} digits")
        raw = int(text, 16)
        if n_points < 4 and raw >= (1 << n_points):
            raise ArityError("hex table has stray high bits")
        bits = int(f"{raw:0{n_points}b}"[::-1], 2)
        return cls(n, bits)


# ---------------------------------------------------------------------------
# integer lowering and the exact forward kernel
#
# Every layer is scaled to integer weights (multiplying through by the lcm of
# the layer's denominators), so gate values are integer numerators over one
# shared positive denominator per layer.  ReLU and the LTF sign test are
# invariant under positive scaling, which keeps everything in integers.  A
# circuit is lowered once (``Circuit._lowered``); the cube enumerator runs the
# kernel on int64 arrays unless a static bound says intermediates might not
# fit, in which case it falls back to Python-object entries, as `evaluate`
# always does.

_INT64_SAFE = 1 << 62


def _lower_forms(
    forms: Sequence[AffineForm], index_of: Mapping[str, int], width: int
) -> tuple[list[list[int]], list[int], int, list[int]]:
    """Integer rows and biases over the forms' common scale (the lcm of all
    their denominators), with each row's absolute weight sum."""
    lowered = [f._integer_row(index_of, width) for f in forms]
    scale = math.lcm(*{s for _, _, s, _ in lowered})
    rows, biases, abs_sums = [], [], []
    for row, bias, s, abs_sum in lowered:
        m = scale // s
        rows.append(row if m == 1 else [v * m for v in row])
        biases.append(bias * m)
        abs_sums.append(abs_sum * m)
    return rows, biases, scale, abs_sums


class _Lowering:
    """A circuit as integer rows, biases, scales and gate kinds per layer.

    ``bound`` is a static bound on every intermediate of a forward pass over
    inputs of magnitude at most 1 with ``x_den`` 1, counting the scaled LTF
    outputs +-den; inputs of magnitude at most mu over ``x_den`` <= mu scale
    it by mu.  ``output_den`` is the output pre-activation's denominator when
    ``x_den`` is 1; the kernel multiplies int64 arrays by it.  ``use_object``
    is set when either reaches 2^62 on the cube.
    """

    def __init__(self, circuit: Circuit):
        n = circuit.input_count
        prev_index, prev_width = _wire_index(0, n), n
        self.layers = []
        bound = 1
        den = 1
        for k, layer in enumerate(circuit.layers, start=1):
            rows, biases, scale, abs_sums = _lower_forms(
                [g.form for g in layer], prev_index, prev_width
            )
            new_bound = max(
                (s * bound + abs(b) * den * scale for s, b in zip(abs_sums, biases)),
                default=0,
            )
            den *= scale
            # den itself bounds LTF gate numerators (+-den), so keep it in the bound
            bound = max(new_bound, den, 1)
            self.layers.append((rows, biases, scale, tuple(g.kind for g in layer)))
            prev_index, prev_width = _wire_index(k, len(layer)), len(layer)

        (out_row,), (out_bias,), out_scale, (out_abs,) = _lower_forms(
            [circuit.output_gate.form], prev_index, prev_width
        )
        if circuit.skip_wires is not None:
            (skip_row,), (skip_bias,), skip_scale, (skip_abs,) = _lower_forms(
                [circuit.skip_wires], _wire_index(0, n), n
            )
        else:
            skip_row, skip_bias, skip_scale, skip_abs = [0] * n, 0, 1, 0
        self.output = (out_row, out_bias, out_scale)
        self.skip = (skip_row, skip_bias, skip_scale)
        out_bound = (
            out_abs * bound * skip_scale
            + (skip_abs + abs(skip_bias)) * den * out_scale
            + abs(out_bias) * den * skip_scale
        )
        self.bound = max(bound, out_bound)
        self.output_den = den * out_scale * skip_scale
        self.use_object = max(self.bound, self.output_den) >= _INT64_SAFE
        self.output_kind = circuit.output_gate.kind
        self._arrays: dict[bool, tuple] = {}

    def arrays(self, use_object: bool) -> tuple:
        """(layers, output, skip) with numpy rows of int64 or object entries."""
        if use_object not in self._arrays:
            dtype = object if use_object else np.int64
            layers = tuple(
                (
                    np.array(rows, dtype=dtype),
                    np.array(biases, dtype=dtype),
                    scale,
                    kinds,
                    all(kind is GateKind.RELU for kind in kinds),
                )
                for rows, biases, scale, kinds in self.layers
            )
            out, skip = (
                (np.array(row, dtype=dtype), bias, scale)
                for row, bias, scale in (self.output, self.skip)
            )
            self._arrays[use_object] = (layers, out, skip)
        return self._arrays[use_object]


@dataclass
class CubeForward:
    """Exact values of a circuit on (a slab of) the cube, as scaled integers."""

    output_pre_num: np.ndarray
    output_pre_den: int
    output_kind: GateKind
    last_hidden_num: np.ndarray | None = None
    last_hidden_den: int | None = None

    def output_pre(self, j: int) -> Fraction:
        return Fraction(int(self.output_pre_num[j]), self.output_pre_den)


def _forward(
    low: _Lowering, x: np.ndarray, x_den: int, keep_last_hidden: bool = False
) -> CubeForward:
    """Exact forward pass on the columns of x, integer numerators over x_den.

    x holds int64 or Python-int (object) entries, and the circuit's rows
    follow its dtype; the int64 path is exact only for +-1 inputs when the
    lowering's bound allows it.
    """
    layers, (w_out, out_bias, out_scale), (w_skip, skip_bias, skip_scale) = (
        low.arrays(x.dtype == object)
    )
    values = x
    depth_scale = 1  # product of the hidden layers' scales
    last_hidden = None
    for w, b, scale, kinds, relu_only in layers:
        raw = w.dot(values) + (b * (x_den * depth_scale))[:, None]
        depth_scale *= scale
        layer_den = x_den * depth_scale
        if relu_only:
            values = np.maximum(raw, 0)
        else:
            values = raw
            for g, kind in enumerate(kinds):
                if kind is GateKind.RELU:
                    values[g] = np.maximum(raw[g], 0)
                elif kind is GateKind.LTF:
                    # a 0-d array of the layer's dtype keeps a denominator
                    # beyond int64 exact on the object path
                    ltf_den = np.array(layer_den, dtype=raw.dtype)
                    values[g] = np.where(raw[g] >= 0, ltf_den, -ltf_den)
    if keep_last_hidden and layers:
        last_hidden = values

    den = x_den * depth_scale
    pre = (
        w_out.dot(values) * skip_scale
        + (w_skip.dot(x) + skip_bias * x_den) * (depth_scale * out_scale)
        + out_bias * (den * skip_scale)
    )
    return CubeForward(
        output_pre_num=pre,
        output_pre_den=den * out_scale * skip_scale,
        output_kind=low.output_kind,
        last_hidden_num=last_hidden,
        last_hidden_den=den if last_hidden is not None else None,
    )


def _forward_slab(
    circuit: Circuit, x_slab: np.ndarray, keep_last_hidden: bool = False
) -> CubeForward:
    low = circuit._lowered
    x = x_slab.astype(object) if low.use_object else x_slab
    return _forward(low, x, 1, keep_last_hidden)


def _slab_indices(n: int, slab_bits: int = 18) -> Iterator[tuple[int, int]]:
    n_points = 1 << n
    step = 1 << min(n, slab_bits)
    for start in range(0, n_points, step):
        yield start, min(start + step, n_points)


def _cube_slab(n: int, start: int, stop: int) -> np.ndarray:
    """int64 (n, stop - start) matrix of the vertices start..stop-1.

    Full cubes of small arity come from a cache and are read-only.
    """
    if n <= _CACHE_BITS and start == 0 and stop == 1 << n:
        return _full_cube(n)
    return _make_cube_slab(n, start, stop)


def _make_cube_slab(n: int, start: int, stop: int) -> np.ndarray:
    idx = np.arange(start, stop, dtype=np.int64)
    if n == 0:
        return np.zeros((0, stop - start), dtype=np.int64)
    return np.stack([1 - 2 * ((idx >> i) & 1) for i in range(n)])


@lru_cache(maxsize=None)
def _full_cube(n: int) -> np.ndarray:
    cube = _make_cube_slab(n, 0, 1 << n)
    cube.flags.writeable = False
    return cube


def forward_on_cube(circuit: Circuit, cap: int | None = None, keep_last_hidden: bool = False) -> CubeForward:
    """Exact forward pass on the full cube; output as scaled integer numerators."""
    n = circuit.input_count
    if n > enumeration_cap(cap):
        raise ResourceCapError(f"arity {n} exceeds enumeration cap")
    return _forward_slab(circuit, _cube_slab(n, 0, 1 << n), keep_last_hidden)


def truth_table(circuit: Circuit, cap: int | None = None) -> TruthTable:
    """Exhaustive +-1 truth table of a Boolean-valued circuit.

    The output gate must be an LTF, or a SUM whose value on every vertex is
    exactly +-1 (e.g. threshold gates replaced by their ReLU simulations).
    """
    n = circuit.input_count
    if n > enumeration_cap(cap):
        raise ResourceCapError(f"arity {n} exceeds enumeration cap")
    kind = circuit.output_gate.kind
    if kind is GateKind.RELU:
        raise ContractError("truth_table needs an LTF or +-1-valued SUM output")
    bits = 0
    for start, stop in _slab_indices(n):
        fwd = _forward_slab(circuit, _cube_slab(n, start, stop))
        num = fwd.output_pre_num
        if kind is GateKind.LTF:
            minus = num < 0
        else:
            den = fwd.output_pre_den
            minus = num == -den
            if not bool(np.all(minus | (num == den))):
                raise ContractError("SUM output is not +-1-valued on the cube")
        minus = np.asarray(minus, dtype=bool)
        packed = int.from_bytes(
            np.packbits(minus, bitorder="little").tobytes(), "little"
        )
        bits |= packed << start
    return TruthTable(n, bits)


# ---------------------------------------------------------------------------
# simplification

def _to_positional(circuit: Circuit):
    """Rewrite wire-id dicts as previous-layer positional dicts for editing."""
    layers = []
    for k, layer in enumerate(circuit.layers, start=1):
        rows = []
        for gate in layer:
            w = {}
            for wire, coeff in gate.form.weights.items():
                kind, a, b = parse_wire(wire)
                w[(a - 1) if kind == "x" else (b - 1)] = coeff
            rows.append({"kind": gate.kind, "w": w, "b": gate.form.bias})
        layers.append(rows)
    out_w = {}
    for wire, coeff in circuit.output_gate.form.weights.items():
        kind, a, b = parse_wire(wire)
        out_w[(a - 1) if kind == "x" else (b - 1)] = coeff
    out = {"kind": circuit.output_gate.kind, "w": out_w, "b": circuit.output_gate.form.bias}
    skip_w = {}
    skip_b = Fraction(0)
    if circuit.skip_wires is not None:
        for wire, coeff in circuit.skip_wires.weights.items():
            _, a, _ = parse_wire(wire)
            skip_w[a - 1] = coeff
        skip_b = circuit.skip_wires.bias
    return layers, out, skip_w, skip_b


def _const_value(kind: GateKind, b: Fraction) -> Fraction:
    return apply_kind(kind, b)


def _remove_gate(layers, out, k: int, j: int, replacement: Fraction | None) -> None:
    """Drop gate j of hidden layer k (0-based), folding an optional constant."""
    consumers = layers[k + 1] if k + 1 < len(layers) else [out]
    for gate in consumers:
        w = gate["w"]
        coeff = w.pop(j, None)
        if coeff is not None and replacement is not None and replacement != 0:
            gate["b"] += coeff * replacement
        gate["w"] = {(p - 1 if p > j else p): c for p, c in w.items()}
    del layers[k][j]


def simplify(circuit: Circuit) -> Circuit:
    """Remove dead and constant gates; the function on R^n is unchanged.

    Prunes zero weights, folds constant gates into their consumers' biases,
    drops gates nothing reads, splices out emptied layers, and flattens
    all-SUM hidden layers (including SUM gates left in the bottom layer of a
    depth-2 circuit, which route into the skip connection).  Size never grows.
    """
    layers, out, skip_w, skip_b = _to_positional(circuit)

    changed = True
    while changed:
        changed = False
        for gate in [g for layer in layers for g in layer] + [out]:
            dead = [p for p, c in gate["w"].items() if c == 0]
            for p in dead:
                del gate["w"][p]
                changed = True
        # constant gates: no live inputs
        for k in range(len(layers)):
            for j in range(len(layers[k]) - 1, -1, -1):
                gate = layers[k][j]
                if not gate["w"]:
                    _remove_gate(layers, out, k, j, _const_value(gate["kind"], gate["b"]))
                    changed = True
        # dead gates: no consumer references them
        for k in range(len(layers)):
            consumers = layers[k + 1] if k + 1 < len(layers) else [out]
            used = set()
            for gate in consumers:
                used |= set(gate["w"])
            for j in range(len(layers[k]) - 1, -1, -1):
                if j not in used:
                    _remove_gate(layers, out, k, j, None)
                    changed = True
        # SUM gates in the bottom layer of a depth-2 circuit become skip wires
        if len(layers) == 1:
            for j in range(len(layers[0]) - 1, -1, -1):
                gate = layers[0][j]
                if gate["kind"] is GateKind.SUM:
                    coeff = out["w"].get(j, Fraction(0))
                    for p, c in gate["w"].items():
                        skip_w[p] = skip_w.get(p, Fraction(0)) + coeff * c
                    skip_b += coeff * gate["b"]
                    gate["w"] = {}
                    gate["b"] = Fraction(0)
                    _remove_gate(layers, out, 0, j, None)
                    changed = True
        # hidden layers consisting entirely of SUM gates compose linearly
        for k in range(len(layers) - 1, -1, -1):
            if not layers[k] or (k == 0 and len(layers) == 1):
                continue
            if all(g["kind"] is GateKind.SUM for g in layers[k]):
                consumers = layers[k + 1] if k + 1 < len(layers) else [out]
                for gate in consumers:
                    new_w: dict[int, Fraction] = {}
                    new_b = gate["b"]
                    for p, c in gate["w"].items():
                        inner = layers[k][p]
                        for q, d in inner["w"].items():
                            new_w[q] = new_w.get(q, Fraction(0)) + c * d
                        new_b += c * inner["b"]
                    gate["w"] = new_w
                    gate["b"] = new_b
                del layers[k]
                changed = True
        layers = [layer for layer in layers if layer]

    # rebuild with fresh wire ids
    new_layers = []
    for k, layer in enumerate(layers, start=1):
        prefix = "x" if k == 1 else f"g{k - 1}."
        gates = []
        for gate in layer:
            w = {
                (input_wire(p + 1) if k == 1 else gate_wire(k - 1, p + 1)): c
                for p, c in gate["w"].items()
            }
            gates.append(Gate(gate["kind"], AffineForm(w, gate["b"])))
        new_layers.append(tuple(gates))
    k = len(new_layers)
    out_w = {
        (input_wire(p + 1) if k == 0 else gate_wire(k, p + 1)): c
        for p, c in out["w"].items()
    }
    skip = None
    skip_w = {p: c for p, c in skip_w.items() if c != 0}
    if skip_w or skip_b:
        skip = AffineForm(
            {input_wire(p + 1): c for p, c in skip_w.items()}, skip_b
        )
    return Circuit(
        input_count=circuit.input_count,
        layers=tuple(new_layers),
        output_gate=Gate(out["kind"], AffineForm(out_w, out["b"])),
        skip_wires=skip,
    )
