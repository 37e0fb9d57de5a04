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

import bisect
import math
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

DEFAULT_ENUMERATION_CAP = 24  # max arity for exhaustive truth tables
DEFAULT_MATRIX_CAP = 12       # max m for 2^m x 2^m communication matrices

# Structures that depend only on the arity (cubes, table-independent gates)
# are cached and shared up to this arity.
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


def _position(key):
    """A weight key that equals an integer (``True``, ``Fraction(1)``) as that
    int; any other key as it is, for the read check to reject."""
    try:
        pos = int(key)
    except (TypeError, ValueError, OverflowError):
        return key
    return pos if pos == key else key


def affine(weights: Mapping[int, Rational], bias: Rational = 0) -> "AffineForm":
    """Build an AffineForm, coercing keys and values and dropping zero weights."""
    w = {}
    for pos, val in weights.items():
        q = exact(val)
        if q:
            w[pos if type(pos) is int else _position(pos)] = q
    return AffineForm(w, exact(bias))


class _RowWeights(Mapping):
    """The read-only weights ``numerators[i] / scale`` at ``positions[i]``.

    ``positions`` is a range or a list of ascending ints, and ``numerators``
    a numpy int64 array of nonzero values whose absolute sum fits in int64.
    The scale is reduced on construction, so it is the lcm of the weights'
    reduced denominators.  The mapping compares, iterates and prints as the
    dict {position: Fraction} it stands for, and its cost is in proportion
    to its entries; `AffineForm._integer_row` reads the integers directly.
    """

    __slots__ = ("positions", "numerators", "scale")

    def __init__(self, positions: Sequence[int], numerators: np.ndarray, scale: int):
        if scale != 1:
            g = math.gcd(scale, int(np.gcd.reduce(numerators)))
            if g != 1:
                numerators, scale = numerators // g, scale // g
        self.positions, self.numerators, self.scale = positions, numerators, scale

    def __len__(self) -> int:
        return len(self.positions)

    def __iter__(self) -> Iterator[int]:
        return iter(self.positions)

    def __getitem__(self, pos) -> Fraction:
        try:
            i = bisect.bisect_left(self.positions, pos)
            if i < len(self.positions) and self.positions[i] == pos:
                return Fraction(int(self.numerators[i]), self.scale)
        except TypeError:
            pass
        raise KeyError(pos)

    def items(self) -> ItemsView:
        return _RowItems(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _RowItems(ItemsView):
    def __iter__(self):
        row = self._mapping
        nums = row.numerators.tolist()
        # one Fraction per distinct numerator: a route's row repeats a few
        fractions = {v: Fraction(v, row.scale) for v in set(nums)}
        return zip(row.positions, map(fractions.__getitem__, nums))


@dataclass(frozen=True)
class AffineForm:
    """weights . values + bias, with exact rational coefficients.

    ``weights`` maps 0-based positions of the layer read to their weights.
    It is a dict, or, for a form built as an integer row (the universal
    routes' output gates), a read-only `_RowWeights` over its positions,
    integer numerators and one scale, which equals that dict.
    """

    weights: Mapping[int, Fraction]
    bias: Fraction = Fraction(0)

    def value(self, values: Sequence[Rational]) -> Fraction:
        total = self.bias
        for pos, w in self.weights.items():
            total += w * values[pos]
        return total

    def _integer_row(self, width: int) -> tuple[list[int], int, int]:
        """(row, scale, sum of |weights|): the form times ``scale``, the lcm of
        its denominators, as a dense integer row over ``width`` positions and
        then the bias.

        Not cached: the layers that hold a form keep their own lowering
        (`_Layer.lowered`), and a circuit its output and skip rows.
        """
        weights = self.weights
        b_num, b_den = self.bias.as_integer_ratio()
        if type(weights) is _RowWeights:
            # the numerators as they are, times what the bias adds to the scale
            scale = math.lcm(b_den, weights.scale)
            m = scale // weights.scale
            nums = weights.numerators.tolist()
            if weights.positions == range(width):
                row = nums
            else:
                row = [0] * width
                for i, num in zip(weights.positions, nums):
                    row[i] = num
            if m != 1:
                row = [v * m for v in row]
            abs_sum = int(np.abs(weights.numerators).sum()) * m
        else:
            ratios = [w.as_integer_ratio() for w in weights.values()]
            scale = math.lcm(b_den, *{den for _, den in ratios})
            row = [0] * width
            for i, (num, den) in zip(weights, ratios):
                row[i] = num * (scale // den)
            abs_sum = sum(map(abs, row))
        row.append(b_num * (scale // b_den))
        return row, scale, abs_sum


class GateKind(str, Enum):
    RELU = "RELU"
    LTF = "LTF"
    SUM = "SUM"


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    form: AffineForm


class _Layer(tuple):
    """A hidden layer: the tuple of its gates, which checks and lowers itself once.

    It compares, hashes, prints and serializes as the plain tuple.  Its
    ``__dict__`` caches, per width of the layer it reads, that its read check
    passed and its integer lowering, so circuits that share one layer object
    (a construction's cached layer, or a layer `apply_restriction` passes
    through) check and lower it once.  The cache lives exactly as long as the
    layer.  A layer made by `select` starts with the checks and lowerings of
    the layer it came from, under its mask.
    """

    def __new__(cls, gates: Iterable[Gate] = ()):
        layer = super().__new__(cls, gates)
        # made up front: a cached_property takes a lock on first use, about
        # 2 us, a measurable share of lowering a small circuit.  Widths that
        # passed the read check, and the lowering per width
        layer._checked = set()
        layer._lowerings = {}
        return layer

    def select(self, keep: np.ndarray) -> "_Layer":
        """The gates where the boolean array ``keep`` is true, in order.

        The selection passes its read check at every width at which this layer
        passed it; at any other width it scans its own gates, numbered by their
        position in the selection.  Its lowerings are this layer's under the
        mask, at this layer's scale, so they equal its own when every kept gate
        has that scale, as in a layer of hinges whose weights are all -1/2.
        """
        positions = np.flatnonzero(keep)
        # comprehensions, not map over __getitem__: about twice as fast here
        pick = positions.tolist()
        layer = _Layer([self[i] for i in pick])
        layer._checked.update(self._checked)
        rows = np.append(positions, -1)
        for width, (matrix, scale, gate_terms, _, kinds, relu_only) in self._lowerings.items():
            gate_terms = [gate_terms[i] for i in pick]
            kinds = tuple([kinds[i] for i in pick])
            layer._lowerings[width] = (
                matrix[rows], scale, gate_terms, set(gate_terms), kinds,
                relu_only or kinds.count(GateKind.RELU) == len(kinds),
            )
        return layer

    def check_reads(self, width: int, k: int) -> None:
        """Raise WireError unless the layer is nonempty and every gate reads
        positions below ``width``; ``k`` numbers the layer in the message."""
        if not self:
            raise WireError(f"layer {k} is empty")
        if width not in self._checked:
            for j, gate in enumerate(self, start=1):
                _check_reads(gate.form, width, f"gate {j} of layer {k}")
            self._checked.add(width)

    def lowered(self, width: int) -> tuple:
        """(matrix, scale, gate terms, bound terms, kinds, relu_only) over
        ``width`` positions: the gates' `_lower_forms` rows, biases last, over
        a constant row (0, ..., 0, scale), which carries the next layer's bias
        multiplier through the kernel's product, as one exact matrix (int64
        when each sum |row| and the scale are below 2^62, else Python ints);
        each gate's (sum of |weights|, |bias|), and the distinct such pairs,
        which the static bound reads.  Shared; must not be mutated."""
        if width not in self._lowerings:
            rows, scale, abs_sums = _lower_forms([g.form for g in self], width)
            gate_terms = [(s, abs(row[-1])) for s, row in zip(abs_sums, rows)]
            terms = set(gate_terms)
            top = max([scale, *map(max, terms)])
            rows.append([0] * width + [scale])
            matrix = np.array(rows, dtype=_exact_dtype(top))
            kinds = tuple([g.kind for g in self])
            relu_only = kinds.count(GateKind.RELU) == len(kinds)
            self._lowerings[width] = (matrix, scale, gate_terms, terms, kinds, relu_only)
        return self._lowerings[width]


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
        object.__setattr__(self, "layers", tuple(
            layer if type(layer) is _Layer else _Layer(layer) for layer in self.layers
        ))
        self._validate()

    def _validate(self) -> None:
        """Every weight key is a position of the layer its form reads."""
        width = self.input_count
        for k, layer in enumerate(self.layers, start=1):
            layer.check_reads(width, k)
            width = len(layer)
        _check_reads(self.output_gate.form, width, "the output gate")
        if self.skip_wires is not None:
            _check_reads(self.skip_wires, self.input_count, "the skip wires")

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


def _check_reads(form: AffineForm, width: int, reader: str) -> None:
    """Raise WireError unless every weight key is an int in [0, width), in time
    linear in the keys (`int.__instancecheck__` is isinstance by C loop), or
    constant for `_RowWeights`, whose ascending positions the first and last
    bound."""
    weights = form.weights
    keys = weights.keys()
    if type(weights) is _RowWeights:
        pos = weights.positions
        ok = not pos or (pos[0] >= 0 and pos[-1] < width)
    else:
        ok = not keys or (
            all(map(int.__instancecheck__, keys)) and min(keys) >= 0 and max(keys) < width
        )
    if not ok:
        bad = sorted((k for k in keys if not (isinstance(k, int) and 0 <= k < width)), key=repr)
        raise WireError(f"{reader}: {bad} not among the {width} positions it may read")


def evaluate(circuit: Circuit, point: Sequence[Rational]) -> Fraction:
    """Evaluate the circuit at an arbitrary rational point (not just the cube).

    The point is scaled by the lcm of its denominators and run through the
    cube enumerator's kernel, with its largest scaled coordinate (or the lcm)
    as the scale of the static bound that picks the dtype (`_forward_exact`).
    """
    if len(point) != circuit.input_count:
        raise ArityError(
            f"point has {len(point)} coordinates, circuit expects {circuit.input_count}"
        )
    ratios = [exact(v).as_integer_ratio() for v in point]
    x_den = math.lcm(*(den for _, den in ratios))
    nums = [num * (x_den // den) for num, den in ratios]
    mu = max([x_den, *map(abs, nums)])
    x = np.array([*nums, x_den], dtype=_exact_dtype(mu))[:, None]
    fwd = _forward_exact(circuit._lowered, x, x_den, mu)
    den = fwd.output_pre_den
    return Fraction(int(_activate(circuit.output_gate.kind, fwd.output_pre_num, den)[0]), den)


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


def cube_matrix(n: int, dtype=np.int64) -> np.ndarray:
    """(n, 2^n) matrix whose column j is the vertex with index j."""
    return _cube_slab(n, 0, 1 << n)[:n].astype(dtype)


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
# invariant under positive scaling, which keeps everything in integers.  Each
# hidden layer (`_Layer`) lowers itself once per width of the layer it reads
# to one exact integer matrix and keeps it, so circuits sharing a layer
# object share its lowering; a circuit adds only its static bound, its output
# and skip rows, and one cast of each layer's matrix to the kernel's dtype
# (``Circuit._lowered``).  A layer made by `_Layer.select` starts with the
# read checks and lowerings of the layer it was selected from, indexed by its
# mask.  So the Fourier route checks and lowers every hinge gate of an
# arity n <= _CACHE_BITS once (`constructions._fourier_layer`: 6143 gates at
# n = 10, a one-time cost of 0.04 to 0.05 s on 2 cores, and 28671 gates at
# n = 12, 0.24 s), and each table's layer is the selection of its
# nonzero blocks.  Above _CACHE_BITS each table builds and lowers its own
# blocks, so a sparse table never builds all n 2^(n-1) + 2^n - 1 gates.
#
# A form may carry integer numerators over one scale (`_RowWeights`), as the
# universal routes' output gates do; its ``weights`` are then a read-only
# view that equals the dict of Fractions it stands for, and `_integer_row`
# takes the numerators as they are, with no Fraction made.  At n = 9 this
# took the lowering of a Fourier circuit's output row from 0.43 ms to
# 0.03 ms (2 cores, one BLAS thread).
#
# Each row carries its bias as a last column, and each hidden layer's matrix
# (`_Layer.lowered`) ends in a constant row (0, ..., 0, scale).  The kernel's
# input ends in a constant row equal to ``x_den`` (a row of ones on the
# cached cube), so each product adds the bias times the layer's denominator
# itself, and its own last row, ``x_den`` times the scales so far, is the
# next layer's bias multiplier.  The kernel thus has no bias pass of its
# own: one product per layer, then the nonlinearities in place.
#
# `truth_table` walks the cube in slabs (`_cube_forwards`) of the largest
# power-of-two number of vertices whose product with the widest hidden layer
# is at most _SLAB_ELEMENTS = 2^17, i.e. 1 MiB of float64 values, which stay
# in one core's L2 cache; `forward_on_cube` runs the whole cube as one slab,
# since its callers need whole arrays.  Summed over the warm truth tables of
# both universal circuits of random tables at n = 8, 8, 9, 9 and 10, on 2
# cores with one BLAS thread, in three runs that interleave the budgets,
# 2^16 and 2^17 took a median 25 to 29 ms, 2^18 took 27 to 32 ms, 2^19 and
# 2^20 took 32 to 37 ms, and 2^15 took 41 to 44 ms (4 vertices a slab for
# the widest n = 10 layer); 2^17 keeps a step away from that cliff.
#
# Every pass enters the kernel through `_forward_exact`, whose dtype
# (`_kernel_dtype`) W = mu * top picks, ``top`` = max(bound, output_den) and mu
# the inputs' largest magnitude (1 on the cube, the largest scaled coordinate
# or ``x_den`` in `evaluate`, max(count * sn, sd) in `pwl.first_grid_mismatch`):
# float64 when W < 2^53, int64 when W < 2^62 and Python ints otherwise, the
# int64-or-object rule `_exact_dtype` of every module.  A slab of fewer than
# _BLAS_MIN_PRODUCTS multiply-adds stays on int64 even below 2^53: there a
# BLAS call and the casts to float64 and back cost more than numpy's integer
# loop.  On 2 cores with OpenBLAS 0.3.31 and caches cold between calls, the
# universal circuits took a median 43 us on int64 and 48 us on float64 at
# n = 4 (1300 to 2400 multiply-adds), and 69 and 59 us at n = 5 (6300 to
# 21000).
#
# The float64 path is exact.  The inputs are +-1 and every weight, bias and
# scale is an integer, so every intermediate, and every partial sum of every
# dot product, is an integer whose magnitude is at most the sum of the
# absolute products, which ``bound`` bounds; ``output_den`` bounds the scales
# the output is multiplied by.  The bias column adds one product per row,
# |bias| times the denominator of the values read, which ``bound`` already
# counts for each gate; the constant row's one nonzero product is that
# denominator times the layer's scale, the next denominator, which ``bound``
# also counts (it bounds the scaled LTF outputs).  Below 2^53 every such
# integer is a float64, so each product and each addition is exact whatever
# the summation order, FMA, blocking or threading of the BLAS routine, and the
# products run through dgemm/dgemv instead of numpy's loop for integer
# matrices.  The int64 path rests on the same count below 2^62.

_FLOAT64_EXACT = 1 << 53
_BLAS_MIN_PRODUCTS = 1 << 12
_INT64_SAFE = 1 << 62
_SLAB_ELEMENTS = 1 << 17


def _exact_dtype(top: int) -> type:
    """int64 for integers of magnitude at most ``top`` below 2^62 (room for
    one more addition of two such values), Python ints (object) otherwise."""
    return np.int64 if top < _INT64_SAFE else object


def _activate(kind: GateKind, num: np.ndarray, den) -> np.ndarray:
    """A gate's nonlinearity on numerators ``num`` over ``den`` (an int, or
    an array of per-column denominators): ReLU keeps the positive part, LTF
    gives +-den (+den at exactly 0), SUM passes ``num`` through."""
    if kind is GateKind.RELU:
        return np.maximum(num, 0)
    if kind is GateKind.LTF:
        den = np.asarray(den, dtype=num.dtype)
        return np.where(num >= 0, den, -den)
    return num


def _lower_forms(
    forms: Sequence[AffineForm], width: int
) -> tuple[list[list[int]], int, list[int]]:
    """Integer rows, biases last, over the forms' common scale (the lcm of all
    their denominators), with each row's absolute weight sum."""
    lowered = [f._integer_row(width) for f in forms]
    scale = math.lcm(*{s for _, s, _ in lowered})
    rows, abs_sums = [], []
    for row, s, abs_sum in lowered:
        m = scale // s
        rows.append(row if m == 1 else [v * m for v in row])
        abs_sums.append(abs_sum * m)
    return rows, scale, abs_sums


class _Lowering:
    """A circuit's static bound, and its output and skip rows over the hidden
    layers' own lowerings (`_Layer.lowered`).

    ``bound`` is a static bound on every intermediate of a forward pass over
    inputs of magnitude at most 1 with ``x_den`` 1, counting the scaled LTF
    outputs +-den; inputs of magnitude at most mu over ``x_den`` <= mu scale
    it by mu.  ``output_den`` is the output pre-activation's denominator when
    ``x_den`` is 1, and bounds the scales the kernel multiplies the output
    terms by.  ``top`` = max(bound, output_den), times mu, picks the kernel's
    dtype (`_forward_exact`).  ``output`` and ``skip`` are (row, scale), each
    row an exact array (`_exact_dtype`), biases last.  ``products`` counts
    the multiply-adds of a forward pass per input point.
    """

    def __init__(self, circuit: Circuit):
        n = circuit.input_count
        prev_width = n
        products = 0
        # each hidden layer's lowering over the width of the layer it reads
        self.layers = []
        bound = 1
        den = 1
        for layer in circuit.layers:
            _, scale, _, terms, _, _ = lowered = layer.lowered(prev_width)
            # the per-gate bound, over the layer's distinct (sum |row|, |bias|)
            new_bound = max((s * bound + b * den * scale for s, b in terms), default=0)
            den *= scale
            # den itself bounds LTF gate numerators (+-den), so keep it in the
            # bound; so does the layer below, which a layer of constant gates
            # (no weights) does not read
            bound = max(new_bound, den, bound)
            self.layers.append(lowered)
            products += len(layer) * prev_width
            prev_width = len(layer)

        # each row ends in its bias, which the constant row of the values it
        # reads multiplies
        (out_row,), out_scale, (out_abs,) = _lower_forms([circuit.output_gate.form], prev_width)
        if circuit.skip_wires is not None:
            (skip_row,), skip_scale, (skip_abs,) = _lower_forms([circuit.skip_wires], n)
        else:
            skip_row, skip_scale, skip_abs = [0] * (n + 1), 1, 0
        self.output = (
            np.array(out_row, dtype=_exact_dtype(out_abs + abs(out_row[-1]))), out_scale
        )
        self.skip = (
            np.array(skip_row, dtype=_exact_dtype(skip_abs + abs(skip_row[-1]))), skip_scale
        )
        out_bound = (
            out_abs * bound * skip_scale
            + (skip_abs + abs(skip_row[-1])) * den * out_scale
            + abs(out_row[-1]) * den * skip_scale
        )
        self.bound = max(bound, out_bound)
        self.output_den = den * out_scale * skip_scale
        self.top = max(self.bound, self.output_den)
        # the output row reads the last layer, the skip row the inputs
        self.products = products + prev_width + n
        self._arrays: dict[np.dtype, tuple] = {}

    def arrays(self, dtype) -> tuple:
        """(layers, output, skip) with numpy rows, biases last, of the given
        dtype: float64, int64 or object.  Each hidden layer's entry is
        (matrix, scale, kinds, relu_only), its `_Layer.lowered` matrix cast to
        the dtype; the output and skip entries are (row, scale), their rows
        cast likewise (each array itself when it has that dtype)."""
        dtype = np.dtype(dtype)
        if dtype not in self._arrays:
            layers = tuple(
                (matrix.astype(dtype, copy=False), scale, kinds, relu_only)
                for matrix, scale, _, _, kinds, relu_only in self.layers
            )
            out, skip = (
                (row.astype(dtype, copy=False), scale) for row, scale in (self.output, self.skip)
            )
            self._arrays[dtype] = (layers, out, skip)
        return self._arrays[dtype]


@dataclass
class CubeForward:
    """Exact values of a circuit on (a slab of) the cube, as scaled integers."""

    output_pre_num: np.ndarray
    output_pre_den: int
    last_hidden_num: np.ndarray | None = None
    last_hidden_den: int | None = None

    def output_pre(self, j: int) -> Fraction:
        return Fraction(int(self.output_pre_num[j]), self.output_pre_den)


def _forward(
    low: _Lowering, x: np.ndarray, x_den: int, keep_last_hidden: bool = False
) -> CubeForward:
    """Exact forward pass on the columns of x, integer numerators over x_den.

    x holds float64, int64 or Python-int (object) entries, and the circuit's
    rows follow its dtype.  Its last row is the constant x_den, which the
    bias column of each row multiplies.  Object entries are always exact.
    On inputs of magnitude at most mu, int64 is exact while mu times the
    lowering's ``top`` stays below 2^62 and float64 while it stays below
    2^53 (see the section comment above); callers go through
    `_forward_exact`, which chooses among the three.
    """
    layers, (w_out, out_scale), (w_skip, skip_scale) = low.arrays(x.dtype)
    values = x
    depth_scale = 1  # product of the hidden layers' scales
    for w, scale, kinds, relu_only in layers:
        # the product is a fresh array, never x (which may be a cached,
        # read-only cube), so the nonlinearities go in place; its last row,
        # x_den times the scales so far, is positive, so ReLU keeps it.
        # matmul, not dot: on int64 numpy's matmul loop beats dot's inner
        # product per entry (39 against 56 us for a 3-gate layer over 1681
        # grid points), and on float64 both call BLAS
        values = w @ values
        depth_scale *= scale
        if relu_only:
            np.maximum(values, 0, out=values)
        else:
            # the constant row is the layer's denominator, an LTF's +-1
            for g, kind in enumerate(kinds):
                values[g] = _activate(kind, values[g], values[-1])

    den = x_den * depth_scale
    pre = w_out.dot(values) * skip_scale + w_skip.dot(x) * (depth_scale * out_scale)
    last_hidden = values[:-1] if keep_last_hidden and layers else None
    return CubeForward(
        output_pre_num=pre,
        output_pre_den=den * out_scale * skip_scale,
        last_hidden_num=last_hidden,
        last_hidden_den=den if last_hidden is not None else None,
    )


def _kernel_dtype(top: int, products: int) -> type:
    """The forward kernel's dtype for a pass whose every value is at most
    ``top`` in magnitude and which makes ``products`` multiply-adds: float64
    below 2^53 on at least _BLAS_MIN_PRODUCTS of them, int64 below 2^62, and
    Python ints otherwise (see the section comment above)."""
    if top >= _FLOAT64_EXACT or products < _BLAS_MIN_PRODUCTS:
        return _exact_dtype(top)
    return np.float64


def _forward_exact(
    low: _Lowering, x: np.ndarray, x_den: int, mu: int = 1, keep_last_hidden: bool = False
) -> CubeForward:
    """`_forward` on the columns of an int64 or object x, every entry and
    ``x_den`` at most ``mu`` in magnitude, in the dtype that `_kernel_dtype`
    picks for values at most mu times the lowering's ``top``; the numerators
    come back as int64 or object arrays.  The one way into the kernel."""
    dtype = _kernel_dtype(mu * low.top, low.products * x.shape[1])
    fwd = _forward(low, x.astype(dtype, copy=False), x_den, keep_last_hidden)
    if dtype is np.float64:
        fwd.output_pre_num = fwd.output_pre_num.astype(np.int64)
        if fwd.last_hidden_num is not None:
            fwd.last_hidden_num = fwd.last_hidden_num.astype(np.int64)
    return fwd


def _cube_forwards(circuit: Circuit) -> Iterator[tuple[int, CubeForward]]:
    """The circuit's forward passes over the cube, slab by slab, each with the
    index of the slab's first vertex.

    A slab has the largest power-of-two number of vertices whose product with
    the widest hidden layer is at most _SLAB_ELEMENTS, so a layer's values fit
    in cache; a circuit without hidden layers takes _SLAB_ELEMENTS vertices a
    slab.
    """
    n = circuit.input_count
    widest = max(circuit.widths, default=1)
    step = min(1 << n, 1 << (max(_SLAB_ELEMENTS // widest, 1).bit_length() - 1))
    for start in range(0, 1 << n, step):
        yield start, _forward_exact(circuit._lowered, _cube_slab(n, start, start + step), 1)


def _cube_slab(n: int, start: int, stop: int) -> np.ndarray:
    """int64 (n + 1, stop - start) matrix of the vertices start..stop-1 over
    a last row of ones, the kernel's constant row for ``x_den`` 1.

    Slabs of cubes of small arity are views of a cached, read-only cube.
    """
    if n <= _CACHE_BITS:
        return _full_cube(n)[:, start:stop]
    return _make_cube_slab(n, start, stop)


def _make_cube_slab(n: int, start: int, stop: int) -> np.ndarray:
    idx = np.arange(start, stop, dtype=np.int64)
    return np.stack([*(1 - 2 * ((idx >> i) & 1) for i in range(n)), np.ones_like(idx)])


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
    return _forward_exact(
        circuit._lowered, _cube_slab(n, 0, 1 << n), 1, keep_last_hidden=keep_last_hidden
    )


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
    minus = np.empty(1 << n, dtype=bool)
    for start, fwd in _cube_forwards(circuit):
        num = fwd.output_pre_num
        part = minus[start:start + num.size]
        if kind is GateKind.LTF:
            part[:] = num < 0
        else:
            den = fwd.output_pre_den
            part[:] = num == -den
            if not bool(np.all(part | (num == den))):
                raise ContractError("SUM output is not +-1-valued on the cube")
    bits = int.from_bytes(np.packbits(minus, bitorder="little").tobytes(), "little")
    return TruthTable(n, bits)

