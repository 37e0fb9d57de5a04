"""Fixing inputs and collapsing the gates that stop mattering.

A restriction pins some +-1 coordinates.  Folding it into a bottom-layer form
gives interval bounds L = b' - sum|w'| and U = b' + sum|w'| over the free
cube (indeed over its whole convex hull): U <= 0 forces the ReLU to zero,
L >= 0 makes it linear, otherwise the gate survives as a genuine nonlinearity.
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
    affine,
)
from .hardfuncs import AndreevInput, andreev, andreev_layout, andreev_input_size
from .serialize import gate_wire


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


def fold(form: AffineForm, rho: Restriction) -> AffineForm:
    """Substitute the fixed coordinates into a form over the inputs.

    The free weights keep their positions; `apply_restriction` renumbers them.
    """
    weights = {}
    bias = form.bias
    for pos, w in form.weights.items():
        if not 0 <= pos < rho.arity:
            raise ArityError(
                f"form reads input {pos + 1} beyond restriction arity {rho.arity}"
            )
        val = rho.fixed.get(pos + 1)
        if val is None:
            weights[pos] = w
        else:
            bias += w * val
    return AffineForm(weights, bias)


def classify_folded(folded: AffineForm) -> Removability:
    span = folded.weight_sum_abs()
    if folded.bias + span <= 0:
        return Removability.CONSTANT_ZERO
    if folded.bias - span >= 0:
        return Removability.LINEARIZED
    return Removability.SURVIVES


def removability(form: AffineForm, rho: Restriction) -> Removability:
    return classify_folded(fold(form, rho))


@dataclass(frozen=True)
class CollapseReport:
    """Where each bottom-layer gate went under a restriction, by wire id."""

    removed_as_zero: tuple[str, ...]
    linearized: tuple[str, ...]
    survivors: tuple[str, ...]
    restricted: Circuit


def _renamed(form: AffineForm, new_index: Mapping[int, int]) -> AffineForm:
    return AffineForm({new_index[p]: c for p, c in form.weights.items()}, form.bias)


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

    folded = [fold(g.form, rho) for g in bottom]
    classes = [classify_folded(f) for f in folded]
    ids = [gate_wire(1, j + 1) for j in range(len(bottom))]
    removed = tuple(i for i, c in zip(ids, classes) if c is Removability.CONSTANT_ZERO)
    linear = tuple(i for i, c in zip(ids, classes) if c is Removability.LINEARIZED)
    alive = tuple(i for i, c in zip(ids, classes) if c is Removability.SURVIVES)

    skip_w: dict[int, Fraction] = {}
    skip_b = Fraction(0)
    if circuit.skip_wires is not None:
        folded_skip = _renamed(fold(circuit.skip_wires, rho), new_index)
        skip_w.update(folded_skip.weights)
        skip_b = folded_skip.bias

    if len(circuit.layers) == 1:
        out_form = circuit.output_gate.form
        new_gates = []
        new_out_w: dict[int, Fraction] = {}
        out_b = out_form.bias
        for j, (form, cls) in enumerate(zip(folded, classes)):
            alpha = out_form.weights.get(j, Fraction(0))
            if cls is Removability.SURVIVES:
                if alpha:
                    new_out_w[len(new_gates)] = alpha
                new_gates.append(Gate(GateKind.RELU, _renamed(form, new_index)))
            elif cls is Removability.LINEARIZED and alpha:
                renamed = _renamed(form, new_index)
                for p, c in renamed.weights.items():
                    skip_w[p] = skip_w.get(p, Fraction(0)) + alpha * c
                skip_b += alpha * renamed.bias
        skip = AffineForm(
            {w: c for w, c in skip_w.items() if c}, skip_b
        )
        restricted = Circuit(
            input_count=len(free),
            layers=(tuple(new_gates),) if new_gates else (),
            output_gate=Gate(
                circuit.output_gate.kind, AffineForm(new_out_w, out_b)
            ),
            skip_wires=None if not skip.weights and skip.bias == 0 else skip,
        )
        return CollapseReport(removed, linear, alive, restricted)

    # deeper circuits: rewrite the bottom layer in place, renumber its gates
    new_bottom = []
    pos_of: dict[int, int] = {}
    for j, (form, cls) in enumerate(zip(folded, classes)):
        if cls is Removability.CONSTANT_ZERO:
            continue
        kind = GateKind.RELU if cls is Removability.SURVIVES else GateKind.SUM
        pos_of[j] = len(new_bottom)
        new_bottom.append(Gate(kind, _renamed(form, new_index)))
    second = tuple(
        Gate(g.kind, AffineForm(
            {pos_of[p]: c for p, c in g.form.weights.items() if p in pos_of},
            g.form.bias,
        ))
        for g in circuit.layers[1]
    )
    # a vanished bottom layer leaves the second layer reading nothing, as the
    # new bottom layer
    new_layers = ((tuple(new_bottom),) if new_bottom else ()) + (second,) + circuit.layers[2:]
    skip = AffineForm({w: c for w, c in skip_w.items() if c}, skip_b)
    restricted = Circuit(
        input_count=len(free),
        layers=new_layers,
        output_gate=circuit.output_gate,
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
        index = 0
        for row in inp.rows:
            parity = 0
            for b in row:
                parity ^= b
            index = (index << 1) | parity
        if table[index] is not None:
            raise ContractError("row-parity indexing collided; restriction malformed")
        table[index] = andreev(inp)
    return tuple(table)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# survival statistics

@dataclass(frozen=True)
class WeightDistribution:
    """Independent integer weights, uniform on [-bound, bound]."""

    bound: int
    name: str = "uniform_int"

    def __post_init__(self):
        if self.name != "uniform_int":
            raise ArityError(f"unknown weight distribution {self.name!r}")
        if self.bound < 1:
            raise ArityError("weight bound must be >= 1")


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


def _selector_style_masks(n: int, rng: np.random.Generator) -> np.ndarray:
    """Boolean mask of free coordinates: one random column per matrix row."""
    half, rows, cols = andreev_layout(n)
    free = np.zeros(n, dtype=bool)
    for i in range(rows):
        j = int(rng.integers(cols))
        free[half + i * cols + j] = True
    return free


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
    dist: WeightDistribution,
    trials: int,
    seed: int,
) -> list[SurvivalRow]:
    """Fraction of bottom ReLUs surviving a random selector-style restriction.

    Each trial draws a fresh hidden layer of `gate_count` forms with weights
    and biases from `dist`, restricts all but one matrix-row coordinate per
    row (everything else uniform +-1), and counts gates with |b'| strictly
    below the free weight mass.  Larger n leaves fewer free coordinates
    relative to the folded bias spread, so the fraction falls.
    """
    if trials < 2:
        raise ArityError("need at least 2 trials for a confidence interval")
    if gate_count < 1 or seed < 0:
        raise ContractError("need at least one gate and a nonnegative seed")
    for n in n_list:
        andreev_layout(n)  # rejects n < 4 before any sampling
    rows_out = []
    bound = dist.bound
    for n in n_list:
        fracs = np.empty(trials, dtype=float)
        for t in range(trials):
            rng = np.random.default_rng([seed, n, t])
            free = _selector_style_masks(n, rng)
            w = rng.integers(-bound, bound + 1, size=(gate_count, n))
            b = rng.integers(-bound, bound + 1, size=gate_count)
            signs = rng.integers(0, 2, size=n) * 2 - 1
            folded_bias = b + w[:, ~free] @ signs[~free]
            free_mass = np.abs(w[:, free]).sum(axis=1)
            fracs[t] = float(np.mean(np.abs(folded_bias) < free_mass))
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
