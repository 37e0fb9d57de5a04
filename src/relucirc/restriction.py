"""Fixing inputs and collapsing the gates that stop mattering.

A restriction pins some +-1 coordinates.  Folding it into a bottom-layer form
gives interval bounds L = b' - sum|w'| and U = b' + sum|w'| over the free
cube (indeed over its whole convex hull): U <= 0 forces the ReLU to zero,
L >= 0 makes it linear, otherwise the gate survives as a genuine nonlinearity.

`_fold` writes this rule once, on integer rows (forms scaled by a positive
denominator, which keeps every sign) in exact int64 or Python-int arithmetic.
`collapse_rule` picks that dtype from the rows' largest entry and calls it for
`removability` and `apply_restriction`; the survival sweep picks it once per
input length from the weight bound and calls `_fold` on each trial's draws.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .circuit import (
    AffineForm,
    ArityError,
    Circuit,
    ContractError,
    Gate,
    GateKind,
    _exact_dtype,
    affine,
)
from .hardfuncs import AndreevInput, andreev_layout, row_parity_index


@dataclass(frozen=True)
class Restriction:
    """Partial assignment of 1-based input coordinates to +-1."""

    arity: int
    fixed: Mapping[int, int]

    def __post_init__(self):
        for coord, val in self.fixed.items():
            if not 1 <= coord <= self.arity:
                raise ArityError(f"coordinate {coord} out of range 1..{self.arity}")
            if val not in (-1, 1):
                raise ArityError(f"coordinate {coord} fixed to {val}, expected +-1")

    def free(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.arity + 1) if i not in self.fixed)

    def fill(self, free_values: Mapping[int, int]) -> tuple[int, ...]:
        point = []
        for i in range(1, self.arity + 1):
            point.append(self.fixed.get(i, free_values.get(i)))
        if any(v is None for v in point):
            raise ArityError("free coordinate left unassigned")
        return tuple(point)


class Removability(Enum):
    CONSTANT_ZERO = "CONSTANT_ZERO"
    LINEARIZED = "LINEARIZED"
    SURVIVES = "SURVIVES"


def _fold(rows, biases, signs, free) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one fold/classify rule, on arrays of one dtype (int64 or object).

    ``signs`` holds the fixed +-1 values and 0 on the free coordinates, whose
    column indices are ``free``.  Returns the folded biases b' and the masks
    b' + mass <= 0 (forced to zero) and b' - mass >= 0 (linear), mass being
    the free weights' sum |w|; other gates survive.
    """
    folded = biases + rows @ signs
    mass = np.abs(rows[:, free]).sum(axis=1)
    return folded, folded + mass <= 0, folded - mass >= 0


def collapse_rule(rows, biases, fixed, signs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold a restriction into integer forms and classify them, exactly.

    ``rows`` is a (gates, n) int64 or object array and ``biases`` its biases;
    ``signs`` gives the +-1 values where the boolean mask ``fixed`` is set.
    Returns `_fold`'s (b', forced-zero mask, linear mask).  Sums run in int64
    when (n + 1) max|entry|, which bounds sum |row| + |bias|, stays below
    2^62, and on Python ints otherwise.
    """
    biases = np.asarray(biases, dtype=rows.dtype)
    top = max(int(np.abs(rows).max(initial=0)), int(np.abs(biases).max(initial=0)))
    dtype = _exact_dtype(top * (rows.shape[1] + 1))
    return _fold(
        rows.astype(dtype, copy=False),
        biases.astype(dtype, copy=False),
        np.where(fixed, signs, 0).astype(dtype),
        np.flatnonzero(~fixed),
    )


def _fixed_signs(rho: Restriction) -> tuple[np.ndarray, np.ndarray]:
    """(fixed-coordinate mask, +-1 values with 0 on free coordinates)."""
    signs = np.zeros(rho.arity, dtype=np.int64)
    for coord, val in rho.fixed.items():
        signs[coord - 1] = val
    return signs != 0, signs


def _classes(zero: np.ndarray, linear: np.ndarray) -> list[Removability]:
    return [
        Removability.CONSTANT_ZERO if z
        else Removability.LINEARIZED if lin
        else Removability.SURVIVES
        for z, lin in zip(zero.tolist(), linear.tolist())
    ]


def removability(form: AffineForm, rho: Restriction) -> Removability:
    if any(not 0 <= pos < rho.arity for pos in form.weights):
        raise ArityError(f"form reads an input beyond restriction arity {rho.arity}")
    row = np.array([form._integer_row(rho.arity)[0]], dtype=object)
    _, zero, linear = collapse_rule(row[:, :-1], row[:, -1], *_fixed_signs(rho))
    return _classes(zero, linear)[0]


@dataclass(frozen=True)
class CollapseReport:
    """Where each bottom-layer gate went under a restriction, by its 0-based
    position in the bottom layer."""

    removed_as_zero: tuple[int, ...]
    linearized: tuple[int, ...]
    survivors: tuple[int, ...]
    restricted: Circuit


def _free_part(form: AffineForm, bias: Fraction, new_index: Mapping[int, int]) -> AffineForm:
    """The form's weights on the free inputs, renumbered, over a new bias."""
    return AffineForm(
        {new_index[p]: c for p, c in form.weights.items() if p in new_index}, bias
    )


def apply_restriction(circuit: Circuit, rho: Restriction) -> CollapseReport:
    """Collapse the bottom ReLU layer of a circuit under a restriction.

    Forced-zero gates disappear; linearized gates lose their nonlinearity (in
    a depth-2 circuit their scaled forms reroute into the skip connection, in
    deeper circuits they become SUM gates in place); survivors keep their
    folded forms.  The result computes the original function's slice on the
    whole convex hull of the free cube, with the free inputs renumbered in
    order.  Layers above the bottom keep their positions.
    """
    if rho.arity != circuit.input_count:
        raise ArityError("restriction arity differs from circuit arity")
    if not circuit.layers:
        raise ContractError("nothing to collapse: circuit has no hidden layers")
    bottom = circuit.layers[0]
    if any(g.kind is not GateKind.RELU for g in bottom):
        raise ContractError("bottom layer must be all ReLU")
    if circuit.output_gate.kind is GateKind.RELU:
        raise ContractError("output gate must be LTF or SUM")

    free = rho.free()
    new_index = {orig - 1: pos for pos, orig in enumerate(free)}

    # the bottom layer and the skip wires fold through the one integer rule;
    # kept forms retain their Fraction weights over the folded bias
    low = circuit._lowered
    # rows end in their biases; the bottom layer's last row is its constant row
    bottom_rows, scale = low.layers[0][:2]
    fixed, signs = _fixed_signs(rho)
    folded_b, zero, lin = collapse_rule(bottom_rows[:-1, :-1], bottom_rows[:-1, -1], fixed, signs)
    classes = _classes(zero, lin)
    folded = [
        None if c is Removability.CONSTANT_ZERO
        else _free_part(g.form, Fraction(b, scale), new_index)
        for g, b, c in zip(bottom, folded_b.tolist(), classes)
    ]
    removed, linear, alive = (
        tuple(j for j, c in enumerate(classes) if c is kind) for kind in Removability
    )
    skip_row, skip_scale = low.skip
    (skip_num,), _, _ = collapse_rule(skip_row[None, :-1], skip_row[-1:], fixed, signs)
    skip = _free_part(
        circuit.skip_wires or AffineForm({}), Fraction(int(skip_num), skip_scale), new_index
    )
    skip_w, skip_b = dict(skip.weights), skip.bias

    # keep survivors as ReLU gates and linearized gates as SUM gates, except
    # at depth 2, where alpha times a linearized form folds into the skip
    # wires; then renumber the gates that read the bottom layer
    depth2 = len(circuit.layers) == 1
    out_form = circuit.output_gate.form
    new_bottom = []
    pos_of: dict[int, int] = {}
    for j, (form, cls) in enumerate(zip(folded, classes)):
        if cls is Removability.LINEARIZED and depth2:
            alpha = out_form.weights.get(j, Fraction(0))
            for p, c in form.weights.items():
                skip_w[p] = skip_w.get(p, Fraction(0)) + alpha * c
            skip_b += alpha * form.bias
        elif cls is not Removability.CONSTANT_ZERO:
            kind = GateKind.RELU if cls is Removability.SURVIVES else GateKind.SUM
            pos_of[j] = len(new_bottom)
            new_bottom.append(Gate(kind, form))
    readers = tuple(
        Gate(g.kind, AffineForm(
            # the depth-2 output drops explicit zero weights
            {pos_of[p]: c for p, c in g.form.weights.items() if p in pos_of and (c or not depth2)},
            g.form.bias,
        ))
        for g in ((circuit.output_gate,) if depth2 else circuit.layers[1])
    )
    # a vanished bottom layer leaves its readers reading nothing: the output
    # gate at depth 2, the second layer as the new bottom layer otherwise
    new_layers = (tuple(new_bottom),) if new_bottom else ()
    if depth2:
        (output_gate,) = readers
    else:
        new_layers += (readers,) + circuit.layers[2:]
        output_gate = circuit.output_gate
    skip = AffineForm({w: c for w, c in skip_w.items() if c}, skip_b)
    restricted = Circuit(
        input_count=len(free),
        layers=new_layers,
        output_gate=output_gate,
        skip_wires=None if not skip.weights and skip.bias == 0 else skip,
    )
    return CollapseReport(removed, linear, alive, restricted)


# ---------------------------------------------------------------------------
# selector-style restrictions

def bit_to_sign(bit: int) -> int:
    return 1 - 2 * bit


def sign_to_bit(sign: int) -> int:
    return (1 - sign) // 2


def sample_andreev_restriction(n: int, x_star: Sequence[int], seed: int) -> Restriction:
    """Fix the lookup table to x_star and all but one random bit per matrix row.

    The result has arity andreev_input_size(n) with exactly `rows` free
    coordinates, one in each matrix row; every other matrix entry is an
    independent uniform bit.  Bits map to signs by 0 -> +1, 1 -> -1.
    """
    half, rows, cols = andreev_layout(n)
    if len(x_star) != half:
        raise ArityError(f"x_star needs {half} bits")
    if any(b not in (0, 1) for b in x_star):
        raise ArityError("x_star must be 0/1 bits")
    rng = random.Random(seed)
    fixed: dict[int, int] = {}
    for i, bit in enumerate(x_star):
        fixed[i + 1] = bit_to_sign(bit)
    for i in range(rows):
        free_col = rng.randrange(cols)
        for j in range(cols):
            if j == free_col:
                continue
            coord = half + i * cols + j + 1
            fixed[coord] = bit_to_sign(rng.randint(0, 1))
    return Restriction(arity=half + rows * cols, fixed=fixed)


def andreev_restricted_table(rho: Restriction, n: int) -> tuple[int, ...]:
    """Truth table of the restricted selector over its free bits.

    The free cube is indexed by the row-parity pattern the free bits produce
    (row 1 most significant), which is an affine bijection of the free
    coordinates.  Under that indexing the table of the restricted function is
    literally the fixed lookup block — entry p is x[p].
    """
    half, rows, cols = andreev_layout(n)
    if rho.arity != half + rows * cols:
        raise ArityError("restriction does not match the selector layout")
    free = rho.free()
    if len(free) != rows:
        raise ArityError(f"expected {rows} free coordinates, got {len(free)}")
    row_of = {}
    for coord in free:
        if coord <= half:
            raise ArityError("lookup block must be fully fixed")
        row = (coord - half - 1) // cols
        if row in row_of:
            raise ArityError(f"two free coordinates in matrix row {row + 1}")
        row_of[row] = coord

    table: list[int | None] = [None] * (1 << rows)
    for assignment in range(1 << rows):
        free_vals = {
            row_of[i]: bit_to_sign((assignment >> i) & 1) for i in range(rows)
        }
        point = rho.fill(free_vals)
        bits = [sign_to_bit(s) for s in point]
        inp = AndreevInput.from_bits(n, bits)
        index = row_parity_index(inp.rows)
        if table[index] is not None:
            raise ContractError("row-parity indexing collided; restriction malformed")
        table[index] = inp.x[index]
    return tuple(table)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# survival statistics

def random_ltf_of_relu(
    n: int, gate_count: int, bound: int, rng: random.Random
) -> Circuit:
    """One hidden ReLU layer with uniform integer weights under an LTF output."""
    if bound < 0:
        raise ContractError("weight bound must be >= 0")
    gates = []
    for _ in range(gate_count):
        w = {i: Fraction(rng.randint(-bound, bound)) for i in range(n)}
        gates.append(
            Gate(GateKind.RELU, affine(w, rng.randint(-bound, bound)))
        )
    out_w = {j: Fraction(rng.randint(-bound, bound)) for j in range(gate_count)}
    out = Gate(GateKind.LTF, affine(out_w, rng.randint(-bound, bound)))
    return Circuit(n, (tuple(gates),), out)


@dataclass(frozen=True)
class SurvivalRow:
    n: int
    gate_count: int
    bound: int
    trials: int
    mean_survival: float
    ci95_lo: float
    ci95_hi: float
    seed: int


def survival_experiment(
    n_list: Sequence[int],
    gate_count: int,
    bound: int,
    trials: int,
    seed: int,
) -> list[SurvivalRow]:
    """Fraction of bottom ReLUs surviving a random selector-style restriction.

    Each trial draws a fresh hidden layer of `gate_count` forms with weights
    and biases uniform on the integers in [-bound, bound], restricts all but
    one matrix-row coordinate per row (everything else uniform +-1), and
    counts the gates `_fold` leaves surviving, those with |b'|
    strictly below the free weight mass.  Larger n leaves fewer free
    coordinates relative to the folded bias spread, so the fraction falls.
    """
    if trials < 2:
        raise ArityError("need at least 2 trials for a confidence interval")
    if gate_count < 1 or seed < 0:
        raise ContractError("need at least one gate and a nonnegative seed")
    if not n_list:
        raise ContractError("need at least one input length")
    if not 1 <= bound <= np.iinfo(np.int64).max:
        raise ContractError("weight bound must be in 1..2^63-1, the int64 range drawn from")
    for n in n_list:
        andreev_layout(n)  # rejects n < 4 before any sampling
    rows_out = []
    for n in n_list:
        half, rows, cols = andreev_layout(n)
        row_starts = half + cols * np.arange(rows)
        weight_count = gate_count * n
        # |b'| + mass <= (n + 1) W, so W alone picks the dtype for every trial
        dtype = _exact_dtype(bound * (n + 1))
        survivors = np.empty(trials, dtype=np.int64)
        for t in range(trials):
            rng = np.random.default_rng([seed, n, t])
            free = row_starts + rng.integers(cols, size=rows)
            # weights row by row, then the biases
            drawn = rng.integers(-bound, bound + 1, size=weight_count + gate_count)
            signs = rng.integers(0, 2, size=n) * 2 - 1
            signs[free] = 0
            if dtype is object:
                drawn, signs = drawn.astype(object), signs.astype(object)
            _, zero, linear = _fold(
                drawn[:weight_count].reshape(gate_count, n), drawn[weight_count:], signs, free
            )
            survivors[t] = gate_count - np.count_nonzero(zero | linear)
        # k / gates, the same float as the mean of a bool array with k set
        fracs = survivors / gate_count
        mean = float(fracs.mean())
        half_width = 1.96 * float(fracs.std(ddof=1)) / float(np.sqrt(trials))
        rows_out.append(
            SurvivalRow(
                n=n,
                gate_count=gate_count,
                bound=bound,
                trials=trials,
                mean_survival=mean,
                ci95_lo=mean - half_width,
                ci95_hi=mean + half_width,
                seed=seed,
            )
        )
    return rows_out
