"""Layered circuits of ReLU / linear-threshold / affine gates over exact rationals.

Gates in layer k read only layer k-1 outputs (inputs form layer 0); an optional
skip connection feeds an affine function of the inputs straight into the output
gate.  An affine form's weights are keyed by the 0-based position it reads in
the layer below: the inputs for the bottom layer and the skip wires, the last
hidden layer for the output gate.  Wire ids such as ``x3`` and ``g2.1`` exist
only in JSON documents and reports (`relucirc.serialize`).  All arithmetic is
exact, on `fractions.Fraction` or on integers scaled by a common denominator;
floats are rejected so results never depend on rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

DEFAULT_ENUMERATION_CAP = 24  # max arity for exhaustive truth tables
DEFAULT_MATRIX_CAP = 12       # max m for 2^m x 2^m communication matrices

# Structures that depend only on the arity (cubes, table-independent gates,
# position sets) are cached and shared up to this arity, or 2^this positions.
_CACHE_BITS = 12


class CircuitError(Exception):
    """Base class for all errors raised by this package."""


class ArityError(CircuitError):
    """An input vector, table, or restriction has the wrong shape."""


class WireError(CircuitError):
    """A gate reads a position outside the layer it is allowed to read."""


class ResourceCapError(CircuitError):
    """An enumeration was requested beyond the configured safety cap."""


class ContractError(CircuitError):
    """A precondition on an operation's argument does not hold."""


class InvariantViolationError(CircuitError):
    """A checked mathematical invariant failed; this falsifies the build."""


def enumeration_cap(explicit: int | None = None) -> int:
    return DEFAULT_ENUMERATION_CAP if explicit is None else explicit


def matrix_cap(explicit: int | None = None) -> int:
    return DEFAULT_MATRIX_CAP if explicit is None else explicit


Rational = Fraction | int


def exact(value: Rational | str) -> Fraction:
    """Coerce to Fraction, rejecting floats so evaluation stays exact."""
    if isinstance(value, float):
        raise ArityError("floating point values are not accepted; pass Fraction or int")
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def _positions(width: int) -> frozenset[int]:
    """The positions 0..width-1 of a layer, shared up to 2^_CACHE_BITS."""
    if width <= 1 << _CACHE_BITS:
        return _shared_positions(width)
    return frozenset(range(width))


@lru_cache(maxsize=256)
def _shared_positions(width: int) -> frozenset[int]:
    return frozenset(range(width))


def affine(weights: Mapping[int, Rational], bias: Rational = 0) -> "AffineForm":
    """Build an AffineForm, coercing values and dropping zero weights."""
    w = {}
    for pos, val in weights.items():
        q = exact(val)
        if q:
            w[pos] = q
    return AffineForm(w, exact(bias))


@dataclass(frozen=True)
class AffineForm:
    """weights . values + bias, with exact rational coefficients.

    ``weights`` maps 0-based positions of the layer read to their weights.
    """

    weights: Mapping[int, Fraction]
    bias: Fraction = Fraction(0)

    def value(self, values: Sequence[Rational]) -> Fraction:
        total = self.bias
        for pos, w in self.weights.items():
            total += w * values[pos]
        return total

    def weight_sum_abs(self) -> Fraction:
        return sum((abs(w) for w in self.weights.values()), Fraction(0))

    def is_constant(self) -> bool:
        return not self.weights

    def _integer_row(self, width: int) -> tuple[list[int], int, int, int]:
        """(row, bias, scale, sum of |row|): the form times ``scale``, the lcm
        of its denominators, as a dense integer row over ``width`` positions.

        Cached per width; the row is shared and must not be mutated.
        """
        cache = self._rows
        if width not in cache:
            ratios = [(pos, *w.as_integer_ratio()) for pos, w in self.weights.items()]
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
        """Every weight key is a position of the layer its form reads."""
        inputs = _positions(self.input_count)
        prev = inputs
        for k, layer in enumerate(self.layers, start=1):
            if not layer:
                raise WireError(f"layer {k} is empty")
            for j, gate in enumerate(layer, start=1):
                if not prev >= gate.form.weights.keys():
                    raise _read_error(gate.form, prev, f"gate {j} of layer {k}")
            prev = _positions(len(layer))
        if not prev >= self.output_gate.form.weights.keys():
            raise _read_error(self.output_gate.form, prev, "the output gate")
        if self.skip_wires is not None and not inputs >= self.skip_wires.weights.keys():
            raise _read_error(self.skip_wires, inputs, "the skip wires")

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


def _read_error(form: AffineForm, positions: frozenset[int], reader: str) -> WireError:
    bad = sorted(form.weights.keys() - positions, key=repr)
    return WireError(f"{reader}: {bad} not among the {len(positions)} positions it may read")


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
    forms: Sequence[AffineForm], width: int
) -> tuple[list[list[int]], list[int], int, list[int]]:
    """Integer rows and biases over the forms' common scale (the lcm of all
    their denominators), with each row's absolute weight sum."""
    lowered = [f._integer_row(width) for f in forms]
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
        prev_width = n
        self.layers = []
        bound = 1
        den = 1
        for layer in circuit.layers:
            rows, biases, scale, abs_sums = _lower_forms(
                [g.form for g in layer], prev_width
            )
            new_bound = max(
                (s * bound + abs(b) * den * scale for s, b in zip(abs_sums, biases)),
                default=0,
            )
            den *= scale
            # den itself bounds LTF gate numerators (+-den), so keep it in the bound
            bound = max(new_bound, den, 1)
            self.layers.append((rows, biases, scale, tuple(g.kind for g in layer)))
            prev_width = len(layer)

        (out_row,), (out_bias,), out_scale, (out_abs,) = _lower_forms(
            [circuit.output_gate.form], prev_width
        )
        if circuit.skip_wires is not None:
            (skip_row,), (skip_bias,), skip_scale, (skip_abs,) = _lower_forms(
                [circuit.skip_wires], n
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
    layers = [
        [{"kind": g.kind, "w": dict(g.form.weights), "b": g.form.bias} for g in layer]
        for layer in circuit.layers
    ]
    out_form = circuit.output_gate.form
    out = {"kind": circuit.output_gate.kind, "w": dict(out_form.weights), "b": out_form.bias}
    skip = circuit.skip_wires or AffineForm({})
    skip_w, skip_b = dict(skip.weights), skip.bias

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
                    _remove_gate(layers, out, k, j, apply_kind(gate["kind"], gate["b"]))
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

    skip_w = {p: c for p, c in skip_w.items() if c != 0}
    return Circuit(
        input_count=circuit.input_count,
        layers=tuple(
            tuple(Gate(g["kind"], AffineForm(g["w"], g["b"])) for g in layer)
            for layer in layers
        ),
        output_gate=Gate(out["kind"], AffineForm(out["w"], out["b"])),
        skip_wires=AffineForm(skip_w, skip_b) if skip_w or skip_b else None,
    )
