"""Communication matrices of two-party circuits and their rank structure.

A circuit on 2m inputs splits into an x-half (coordinates 1..m, rows) and a
y-half (m+1..2m, columns).  When every bottom gate's half-weights order the
vertices consistently with shared row/column orderings, the output's pre-sign
matrix is block-constant with few blocks, which caps its exact rank and in
turn the sign-rank certified by the spectral lower bound.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .circuit import (
    AffineForm,
    ArityError,
    Circuit,
    ContractError,
    Gate,
    GateKind,
    InvariantViolationError,
    ResourceCapError,
    forward_on_cube,
    matrix_cap,
    vertex,
)
from .serialize import gate_wire


@dataclass(frozen=True)
class VertexOrdering:
    """A listing of all 2^m vertex indices of the m-cube."""

    m: int
    order: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.order) != list(range(1 << self.m)):
            raise ArityError("ordering must be a permutation of the vertex indices")

    @classmethod
    def identity(cls, m: int) -> "VertexOrdering":
        return cls(m, tuple(range(1 << m)))

    @classmethod
    def from_objective(cls, m: int, r: Sequence[int | Fraction]) -> "VertexOrdering":
        """Sort vertices by <r, x>; the objective must separate all vertices."""
        if len(r) != m:
            raise ArityError(f"objective needs {m} coordinates")
        dots = []
        for idx in range(1 << m):
            x = vertex(m, idx)
            dots.append((sum(ri * xi for ri, xi in zip(r, x)), idx))
        values = {d for d, _ in dots}
        if len(values) != len(dots):
            raise ContractError("objective does not separate the vertices")
        dots.sort()
        return cls(m, tuple(idx for _, idx in dots))

    @classmethod
    def standard(cls, m: int) -> "VertexOrdering":
        """Ordering generated by the objective (1, 2, 4, ..., 2^(m-1))."""
        return cls.from_objective(m, [1 << i for i in range(m)])


@dataclass(frozen=True)
class RationalMatrix:
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ArityError("ragged matrix")

    @property
    def shape(self) -> tuple[int, int]:
        rows = len(self.entries)
        return rows, len(self.entries[0]) if rows else 0


@dataclass(frozen=True)
class SignMatrix:
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        widths = set()
        for row in self.entries:
            widths.add(len(row))
            for v in row:
                if v not in (-1, 1):
                    raise ArityError("sign matrix entries must be +-1")
        if len(widths) > 1:
            raise ArityError("ragged matrix")

    @property
    def shape(self) -> tuple[int, int]:
        rows = len(self.entries)
        return rows, len(self.entries[0]) if rows else 0


def sign_pattern(matrix: RationalMatrix) -> SignMatrix:
    """Entrywise threshold sign, with 0 -> +1 to match the LTF convention."""
    return SignMatrix(
        tuple(
            tuple(1 if v >= 0 else -1 for v in row) for row in matrix.entries
        )
    )


def sign_matrix(
    f: Callable[[tuple[int, ...], tuple[int, ...]], int],
    m: int,
    row_order: VertexOrdering | None = None,
    col_order: VertexOrdering | None = None,
    cap: int | None = None,
) -> SignMatrix:
    """Tabulate a two-party +-1 function under the given vertex orderings."""
    if m > matrix_cap(cap):
        raise ResourceCapError(f"m = {m} exceeds matrix cap")
    row_order = row_order or VertexOrdering.identity(m)
    col_order = col_order or VertexOrdering.identity(m)
    xs = [vertex(m, i) for i in row_order.order]
    ys = [vertex(m, j) for j in col_order.order]
    rows = []
    for x in xs:
        row = []
        for y in ys:
            v = f(x, y)
            if v not in (-1, 1):
                raise ContractError(f"function value {v!r} is not +-1")
            row.append(v)
        rows.append(tuple(row))
    return SignMatrix(tuple(rows))


def inner_product_sign(x: Sequence[int], y: Sequence[int]) -> int:
    """Parity of coordinates where both sides are -1; the Hadamard pattern."""
    count = sum(1 for a, b in zip(x, y) if a == -1 and b == -1)
    return -1 if count & 1 else 1


def inner_product_matrix(m: int, cap: int | None = None) -> SignMatrix:
    if m < 0:
        raise ArityError("negative arity")
    if m > matrix_cap(cap):
        raise ResourceCapError(f"m = {m} exceeds matrix cap")
    rows = []
    for i in range(1 << m):
        rows.append(tuple(-1 if bin(i & j).count("1") & 1 else 1 for j in range(1 << m)))
    return SignMatrix(tuple(rows))


def _reorder(
    nums: np.ndarray, den: int, m: int, row_order: VertexOrdering, col_order: VertexOrdering
) -> RationalMatrix:
    rows = np.asarray(row_order.order, dtype=np.int64)
    cols = np.asarray(col_order.order, dtype=np.int64) << m
    picked = nums[np.add.outer(rows, cols)]
    return RationalMatrix(
        tuple(
            tuple(Fraction(int(v), den) for v in row) for row in picked
        )
    )


def pre_sign_matrix(
    circuit: Circuit,
    m: int,
    row_order: VertexOrdering | None = None,
    col_order: VertexOrdering | None = None,
    cap: int | None = None,
) -> RationalMatrix:
    """The output gate's argument (before its sign) over all (x, y) pairs."""
    if circuit.input_count != 2 * m:
        raise ArityError(f"circuit arity {circuit.input_count}, expected {2 * m}")
    if m > matrix_cap(cap):
        raise ResourceCapError(f"m = {m} exceeds matrix cap")
    row_order = row_order or VertexOrdering.identity(m)
    col_order = col_order or VertexOrdering.identity(m)
    fwd = forward_on_cube(circuit, cap=2 * m)
    return _reorder(fwd.output_pre_num, fwd.output_pre_den, m, row_order, col_order)


def top_decomposition(
    circuit: Circuit,
    m: int,
    row_order: VertexOrdering | None = None,
    col_order: VertexOrdering | None = None,
    cap: int | None = None,
) -> tuple[Fraction, list[Fraction], list[RationalMatrix]]:
    """(beta, alphas, F_j): the output argument as beta*J + sum_j alpha_j F_j.

    F_j is the value matrix of the j-th gate in the last hidden layer.  The
    circuit must have no skip wires so the decomposition is exact.
    """
    if circuit.skip_wires is not None:
        raise ContractError("decomposition expects a circuit without skip wires")
    if circuit.input_count != 2 * m:
        raise ArityError(f"circuit arity {circuit.input_count}, expected {2 * m}")
    if not circuit.layers:
        raise ContractError("no hidden layer to decompose over")
    row_order = row_order or VertexOrdering.identity(m)
    col_order = col_order or VertexOrdering.identity(m)
    fwd = forward_on_cube(circuit, cap=2 * m, keep_last_hidden=True)
    out_form = circuit.output_gate.form
    alphas = []
    mats = []
    for j in range(len(circuit.layers[-1])):
        alphas.append(out_form.weights.get(j, Fraction(0)))
        mats.append(
            _reorder(
                fwd.last_hidden_num[j], fwd.last_hidden_den, m, row_order, col_order
            )
        )
    return out_form.bias, alphas, mats


# ---------------------------------------------------------------------------
# cones of weight vectors compatible with an ordering

def cone_membership(a: Sequence[int | Fraction], ordering: VertexOrdering) -> bool:
    """True iff <a, x> is non-strictly monotone along the ordering."""
    m = ordering.m
    if len(a) != m:
        raise ArityError(f"weight vector needs {m} coordinates")
    prev = None
    for idx in ordering.order:
        x = vertex(m, idx)
        dot = sum(ai * xi for ai, xi in zip(a, x))
        if prev is not None and dot < prev:
            return False
        prev = dot
    return True


@lru_cache(maxsize=None)
def superincreasing_vectors(m: int, bound: int) -> tuple[tuple[int, ...], ...]:
    """All nonnegative vectors with a_i >= a_1 + ... + a_{i-1} and a_i <= bound.

    Every such vector orders the cube compatibly with the standard ordering:
    if two vertices first differ (from the top coordinate down) at i, the one
    with x_i = +1 gains 2 a_i >= 2(a_1 + ... + a_{i-1}), outweighing every
    lower coordinate.  Hence these vectors all lie in the standard cone.
    """
    if m < 0:
        raise ArityError("negative arity")
    out: list[tuple[int, ...]] = []

    def grow(prefix: list[int], total: int) -> None:
        if len(prefix) == m:
            out.append(tuple(prefix))
            return
        for a in range(total, bound + 1):
            prefix.append(a)
            grow(prefix, total + a)
            prefix.pop()

    grow([], 0)
    return tuple(out)


def random_cone_circuit(
    m: int,
    widths: Sequence[int],
    bound: int,
    rng: random.Random,
    upper_span: int = 6,
) -> Circuit:
    """Random LTF-of-ReLU circuit whose bottom half-weights sit in the standard cones.

    Bottom gates draw each half independently from the superincreasing family
    (negated y-halves would need the reversed ordering, so both halves stay
    nonnegative); upper layers and the output draw small rational weights.
    """
    if not widths:
        raise ArityError("need at least one hidden layer")
    pool = superincreasing_vectors(m, bound)
    if not pool:
        raise ContractError(f"no cone weight vectors within bound {bound}")
    layers = []
    bottom = []
    for _ in range(widths[0]):
        ax = rng.choice(pool)
        ay = rng.choice(pool)
        w = {i: Fraction(c) for i, c in enumerate(ax + ay) if c}
        bottom.append(
            Gate(GateKind.RELU, AffineForm(w, Fraction(rng.randint(-bound, bound))))
        )
    layers.append(tuple(bottom))
    for prev_width, width in zip(widths, widths[1:]):
        layer = []
        for _ in range(width):
            w = {}
            for p in range(prev_width):
                num = rng.randint(-upper_span, upper_span)
                if num:
                    w[p] = Fraction(num, rng.choice((1, 1, 2, 3)))
            layer.append(
                Gate(GateKind.RELU, AffineForm(w, Fraction(rng.randint(-upper_span, upper_span))))
            )
        layers.append(tuple(layer))
    out_w = {}
    for p in range(widths[-1]):
        num = rng.randint(-upper_span, upper_span)
        if num:
            out_w[p] = Fraction(num, rng.choice((1, 1, 2, 3)))
    out = Gate(
        GateKind.LTF, AffineForm(out_w, Fraction(rng.randint(-upper_span, upper_span)))
    )
    return Circuit(2 * m, tuple(layers), out)


# ---------------------------------------------------------------------------
# block structure

@dataclass(frozen=True)
class BlockPartition:
    """Minimal contiguous constant-block structure of a matrix.

    ``row_starts``/``col_starts`` are the strictly increasing first indices of
    each block; the partition is minimal, so adjacent blocks always differ.
    """

    row_starts: tuple[int, ...]
    col_starts: tuple[int, ...]

    @property
    def row_blocks(self) -> int:
        return len(self.row_starts)

    @property
    def col_blocks(self) -> int:
        return len(self.col_starts)


def block_partition(matrix: RationalMatrix | SignMatrix) -> BlockPartition:
    """Split at every row/column change; blocks are constant by construction
    (equal consecutive rows share a block, likewise columns), re-checked here."""
    entries = matrix.entries
    n_rows = len(entries)
    n_cols = len(entries[0]) if n_rows else 0
    row_starts = [0] + [
        i for i in range(1, n_rows) if entries[i] != entries[i - 1]
    ]
    col_starts = [0] + [
        j
        for j in range(1, n_cols)
        if any(row[j] != row[j - 1] for row in entries)
    ]
    for i, start in enumerate(row_starts):
        stop = row_starts[i + 1] if i + 1 < len(row_starts) else n_rows
        for r in range(start + 1, stop):
            if entries[r] != entries[start]:
                raise InvariantViolationError("row block is not constant")
    for j, start in enumerate(col_starts):
        stop = col_starts[j + 1] if j + 1 < len(col_starts) else n_cols
        for row in entries:
            for c in range(start + 1, stop):
                if row[c] != row[start]:
                    raise InvariantViolationError("column block is not constant")
    return BlockPartition(tuple(row_starts), tuple(col_starts))


# ---------------------------------------------------------------------------
# exact rank

def _integer_rows(matrix: RationalMatrix | SignMatrix | Sequence[Sequence]) -> list[tuple[int, ...]]:
    entries = getattr(matrix, "entries", matrix)
    rows = []
    for row in entries:
        scale = math.lcm(*(Fraction(v).denominator for v in row)) if row else 1
        rows.append(tuple(int(v * scale) for v in row))
    return rows


def exact_rank(matrix: RationalMatrix | SignMatrix | Sequence[Sequence]) -> int:
    """Rank over the rationals, by fraction-free elimination on scaled rows.

    Row scaling, duplicate-row and duplicate-column removal preserve rank, so
    the Bareiss sweep runs on a deduplicated integer matrix; every division
    is exact.
    """
    rows = _integer_rows(matrix)
    rows = [r for r in dict.fromkeys(rows) if any(r)]
    if not rows:
        return 0
    cols = list(dict.fromkeys(zip(*rows)))
    arr = np.array(cols, dtype=object).T  # rows x deduped-cols

    n_rows, n_cols = arr.shape
    rank = 0
    prev = 1
    for col in range(n_cols):
        if rank == n_rows:
            break
        nz = [i for i in range(rank, n_rows) if arr[i, col] != 0]
        if not nz:
            continue
        pivot_row = min(nz, key=lambda i: abs(arr[i, col]))
        if pivot_row != rank:
            arr[[rank, pivot_row]] = arr[[pivot_row, rank]]
        piv = arr[rank, col]
        below = arr[rank + 1 :, col].copy()
        if below.size:
            block = arr[rank + 1 :, col:]
            arr[rank + 1 :, col:] = (
                block * piv - np.outer(below, arr[rank, col:])
            ) // prev
        prev = piv
        rank += 1
    return rank


def float_singular_values(matrix: RationalMatrix | SignMatrix) -> np.ndarray:
    """Floating-point singular values, for tolerance cross-checks only."""
    return np.linalg.svd(
        np.array([[float(v) for v in row] for row in matrix.entries]),
        compute_uv=False,
    )


# ---------------------------------------------------------------------------
# spectral sign-rank bound

class SpectralNormDiverged(InvariantViolationError):
    """Power iteration missed its tolerance; carries the last estimate."""

    def __init__(self, message: str, last_estimate: float):
        super().__init__(message)
        self.last_estimate = last_estimate


def spectral_norm(
    matrix: SignMatrix | RationalMatrix,
    tol: float = 1e-9,
    max_iter: int = 100_000,
    seed: int = 0,
) -> float:
    """Largest singular value by power iteration on M^T M, seeded start."""
    a = np.array([[float(v) for v in row] for row in matrix.entries])
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    lam_prev = -1.0
    for _ in range(max_iter):
        w = a @ v
        lam = float(w @ w)
        u = a.T @ w
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            return 0.0
        v = u / nu
        if abs(lam - lam_prev) <= tol * max(lam, 1e-300):
            return math.sqrt(lam)
        lam_prev = lam
    raise SpectralNormDiverged(
        f"no convergence within {max_iter} iterations", math.sqrt(lam)
    )


def forster_lower_bound(
    matrix: SignMatrix,
    tol: float = 1e-9,
    max_iter: int = 100_000,
    seed: int = 0,
) -> float:
    """sqrt(rows*cols) / ||M||: a lower bound on the sign-rank of M."""
    rows, cols = matrix.shape
    norm = spectral_norm(matrix, tol=tol, max_iter=max_iter, seed=seed)
    return math.sqrt(rows * cols) / norm


def sign_rank_is_one(matrix: SignMatrix) -> bool:
    """True iff M = u v^T for +-1 vectors: every row is +-(first row)."""
    first = matrix.entries[0]
    neg_first = tuple(-v for v in first)
    return all(row == first or row == neg_first for row in matrix.entries)


# ---------------------------------------------------------------------------
# end-to-end block/rank verification

def verify_block_bound(
    circuit: Circuit,
    m: int,
    bound: int,
    sigma_row: VertexOrdering,
    sigma_col: VertexOrdering,
    cap: int | None = None,
) -> dict:
    """Check the cone preconditions, then the block-count and rank chain.

    Asserts: each axis has at most 2*m*bound*prod(widths) + 1 blocks, and the
    exact rank is at most min(row blocks, col blocks).  Returns a report of
    everything measured.
    """
    return _verified_block_bound(circuit, m, bound, sigma_row, sigma_col, cap)[0]


def _verified_block_bound(
    circuit: Circuit,
    m: int,
    bound: int,
    sigma_row: VertexOrdering,
    sigma_col: VertexOrdering,
    cap: int | None = None,
) -> tuple[dict, RationalMatrix]:
    """`verify_block_bound`'s report, with the pre-sign matrix it checked."""
    if circuit.skip_wires is not None:
        raise ContractError("skip wires are not supported here")
    if circuit.output_gate.kind is not GateKind.LTF:
        raise ContractError("output gate must be an LTF")
    for j, gate in enumerate(circuit.layers[0], start=1):
        a = [Fraction(0)] * circuit.input_count
        for i, w in gate.form.weights.items():
            if w.denominator != 1 or abs(w) > bound:
                raise ContractError(
                    f"gate {gate_wire(1, j)} weight {w} is not an integer within {bound}"
                )
            a[i] = w
        if not cone_membership(a[:m], sigma_row):
            raise ContractError(f"gate {gate_wire(1, j)}: x-half weights leave the row cone")
        if not cone_membership(a[m:], sigma_col):
            raise ContractError(f"gate {gate_wire(1, j)}: y-half weights leave the column cone")

    matrix = pre_sign_matrix(circuit, m, sigma_row, sigma_col, cap=cap)
    partition = block_partition(matrix)
    widths_product = 1
    for w in circuit.widths:
        widths_product *= w
    block_bound = 2 * m * bound * widths_product + 1
    if partition.row_blocks > block_bound or partition.col_blocks > block_bound:
        raise InvariantViolationError(
            f"block count ({partition.row_blocks}, {partition.col_blocks}) "
            f"exceeds bound {block_bound}"
        )
    rank = exact_rank(matrix)
    if rank > min(partition.row_blocks, partition.col_blocks):
        raise InvariantViolationError(
            f"rank {rank} exceeds min block count"
        )
    report = {
        "m": m,
        "W": bound,
        "widths": list(circuit.widths),
        "rowBlocks": partition.row_blocks,
        "colBlocks": partition.col_blocks,
        "bound": block_bound,
        "exactRank": rank,
    }
    return report, matrix
