"""Communication matrices of two-party circuits and their rank structure.

A circuit on 2m inputs splits into an x-half (coordinates 1..m, rows) and a
y-half (m+1..2m, columns).  When every bottom gate's half-weights order the
vertices consistently with shared row/column orderings, the output's pre-sign
matrix is block-constant with few blocks, which caps its exact rank.
`exact_rank` decides that rank in up to three exact stages: a rounded
float64 inverse whose integer residual, computed exactly, proves full rank;
elimination modulo a prime, exact when it reaches full rank; and a
fraction-free Bareiss sweep over Python ints.  The spectral sign-rank lower
bound `forster_lower_bound` divides by a power-iteration estimate of the
spectral norm; it is an estimate, not a certified bound.

`RationalMatrix` and `SignMatrix` store a 2-D numpy array ``num`` of integer
numerators over one positive denominator ``den`` in lowest terms (1 for sign
matrices).  The numerators are int64 when every one has absolute value below
2^62, and Python ints in an object array otherwise.  ``entries``, the
tuple-of-tuples view (Fractions, or ints for sign matrices), is built on
first access.
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
    _exact_dtype,
    cube_matrix,
    forward_on_cube,
    matrix_cap,
    vertex,
)
from .hardfuncs import ComposedParams, arkadev_nikhil
from .serialize import block_bound_report, gate_wire


def _cube_dots(m: int, r: Sequence[int | Fraction]) -> np.ndarray:
    """<r, x> for every vertex x of the m-cube, by vertex index, scaled by
    the lcm of r's denominators (a positive scale keeps every comparison)."""
    q = [Fraction(v) for v in r]
    scale = math.lcm(*(v.denominator for v in q))
    ints = [v.numerator * (scale // v.denominator) for v in q]
    dtype = _exact_dtype(sum(map(abs, ints)))
    return np.array(ints, dtype=dtype) @ cube_matrix(m, dtype=dtype)


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
        dots = _cube_dots(m, r)
        if np.unique(dots).size != dots.size:
            raise ContractError("objective does not separate the vertices")
        return cls(m, tuple(np.argsort(dots, kind="stable").tolist()))

    @classmethod
    def standard(cls, m: int) -> "VertexOrdering":
        """Ordering generated by the objective (1, 2, 4, ..., 2^(m-1))."""
        return cls.from_objective(m, [1 << i for i in range(m)])


def _rectangular(rows: tuple[tuple, ...]) -> tuple[int, int]:
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise ArityError("ragged matrix")
    return len(rows), widths.pop() if widths else 0


def _lowest_terms(num: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """(num, den) divided by their gcd; int64 numerators when all fit
    (`_exact_dtype` of the largest magnitude), Python ints otherwise."""
    g = math.gcd(den, int(np.gcd.reduce(num, axis=None))) if num.size else den
    if g > 1:
        num, den = num // g, den // g
    top = max(int(num.max(initial=0)), -int(num.min(initial=0)))
    return num.astype(_exact_dtype(top), copy=False), den


class _Matrix:
    """Integer numerators ``num`` (read-only) over one positive ``den``."""

    __slots__ = ("num", "den", "_entries")

    def _set(self, num: np.ndarray, den: int, entries: tuple | None = None) -> None:
        num.flags.writeable = False
        self.num, self.den, self._entries = num, den, entries

    @classmethod
    def _from_array(cls, num: np.ndarray, den: int = 1):
        """The matrix num / den, which must be in the form `_lowest_terms`
        gives; it takes ``num`` over, and checks no entry."""
        self = object.__new__(cls)
        self._set(num, den)
        return self

    @property
    def shape(self) -> tuple[int, int]:
        return self.num.shape

    @property
    def entries(self) -> tuple[tuple, ...]:
        if self._entries is None:
            self._entries = self._build_entries()
        return self._entries

    def _build_entries(self) -> tuple[tuple, ...]:
        raise NotImplementedError

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.den == other.den
            and self.num.shape == other.num.shape
            and np.array_equal(self.num, other.num)
        )

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"{type(self).__name__}(entries={self.entries!r})"


class RationalMatrix(_Matrix):
    """A matrix of rationals; ``entries`` holds Fractions."""

    __slots__ = ()

    def __init__(self, entries: Sequence[Sequence[int | Fraction]]):
        rows = tuple(tuple(Fraction(v) for v in row) for row in entries)
        shape = _rectangular(rows)
        den = math.lcm(*(v.denominator for row in rows for v in row))
        flat = [v.numerator * (den // v.denominator) for row in rows for v in row]
        num, den = _lowest_terms(np.array(flat, dtype=object).reshape(shape), den)
        self._set(num, den, rows)

    def _build_entries(self):
        den = self.den
        return tuple(tuple(Fraction(v, den) for v in row) for row in self.num.tolist())


class SignMatrix(_Matrix):
    """A +-1 matrix; ``entries`` holds ints and ``den`` is 1."""

    __slots__ = ()

    def __init__(self, entries: Sequence[Sequence[int]]):
        rows = tuple(tuple(row) for row in entries)
        shape = _rectangular(rows)
        flat = [v for row in rows for v in row]
        if not all(v in (1, -1) for v in flat):
            raise ArityError("sign matrix entries must be +-1")
        self._set(np.array(flat, dtype=np.int64).reshape(shape), 1)

    def _build_entries(self):
        return tuple(map(tuple, self.num.tolist()))


def sign_pattern(matrix: RationalMatrix) -> SignMatrix:
    """Entrywise threshold sign, with 0 -> +1 to match the LTF convention."""
    return SignMatrix._from_array(np.where(matrix.num >= 0, 1, -1))


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
        rows.append(row)
    return SignMatrix._from_array(np.array(rows, dtype=np.int64))


def inner_product_sign(x: Sequence[int], y: Sequence[int]) -> int:
    """Parity of coordinates where both sides are -1; the Hadamard pattern."""
    count = sum(1 for a, b in zip(x, y) if a == -1 and b == -1)
    return -1 if count & 1 else 1


def inner_product_matrix(m: int, cap: int | None = None) -> SignMatrix:
    if m < 0:
        raise ArityError("negative arity")
    if m > matrix_cap(cap):
        raise ResourceCapError(f"m = {m} exceeds matrix cap")
    idx = np.arange(1 << m, dtype=np.int64)
    parity = np.bitwise_count(np.bitwise_and.outer(idx, idx)) & 1
    return SignMatrix._from_array(np.where(parity, -1, 1))


def arkadev_nikhil_matrix(params: ComposedParams, cap: int | None = None) -> SignMatrix:
    """`sign_matrix(composed_function(params), params.side_bits)`.

    The XOR of coordinate j is true exactly where bit j of the vertex indices
    of x and y differs, so the value depends only on the XOR d of the two
    indices: it is tabulated once per d, at x = vertex 0 and y = vertex d.
    """
    m = params.side_bits
    if m > matrix_cap(cap):
        raise ResourceCapError(f"m = {m} exceeds matrix cap")
    ones = vertex(m, 0)
    table = np.array(
        [arkadev_nikhil(params, ones, vertex(m, d)) for d in range(1 << m)], dtype=np.int64
    )
    idx = np.arange(1 << m, dtype=np.int64)
    return SignMatrix._from_array(table[np.bitwise_xor.outer(idx, idx)])


def _reorder(
    nums: np.ndarray, den: int, m: int, row_order: VertexOrdering, col_order: VertexOrdering
) -> RationalMatrix:
    rows = np.asarray(row_order.order, dtype=np.int64)
    cols = np.asarray(col_order.order, dtype=np.int64) << m
    return RationalMatrix._from_array(*_lowest_terms(nums[np.add.outer(rows, cols)], den))


def _pair_orders(circuit: Circuit, m: int, row_order, col_order, cap) -> tuple:
    """The row and column orderings, identity by default, once the circuit
    is checked to read (x, y) pairs of m bits with m within the matrix cap."""
    if circuit.input_count != 2 * m:
        raise ArityError(f"circuit arity {circuit.input_count}, expected {2 * m}")
    if m > matrix_cap(cap):
        raise ResourceCapError(f"m = {m} exceeds matrix cap")
    return row_order or VertexOrdering.identity(m), col_order or VertexOrdering.identity(m)


def pre_sign_matrix(
    circuit: Circuit,
    m: int,
    row_order: VertexOrdering | None = None,
    col_order: VertexOrdering | None = None,
    cap: int | None = None,
) -> RationalMatrix:
    """The output gate's argument (before its sign) over all (x, y) pairs."""
    row_order, col_order = _pair_orders(circuit, m, row_order, col_order, cap)
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
    if not circuit.layers:
        raise ContractError("no hidden layer to decompose over")
    row_order, col_order = _pair_orders(circuit, m, row_order, col_order, cap)
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
    dots = _cube_dots(m, a)[np.asarray(ordering.order)]
    return bool(np.all(dots[1:] >= dots[:-1]))


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


# weight and bias numerators above the bottom layer of `random_cone_circuit`
_UPPER_SPAN = 6


def random_cone_circuit(
    m: int,
    widths: Sequence[int],
    bound: int,
    rng: random.Random,
) -> Circuit:
    """Random LTF-of-ReLU circuit whose bottom half-weights sit in the standard cones.

    Bottom gates draw each half independently from the superincreasing family
    (negated y-halves would need the reversed ordering, so both halves stay
    nonnegative); upper layers and the output draw each weight and bias
    numerator from [-_UPPER_SPAN, _UPPER_SPAN], weights over a denominator
    of 1, 2 or 3.
    """
    if not widths:
        raise ArityError("need at least one hidden layer")
    if bound < 0:  # the bottom biases are drawn from [-bound, bound] too
        raise ContractError(f"weight bound {bound} is negative")
    pool = superincreasing_vectors(m, bound)
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
                num = rng.randint(-_UPPER_SPAN, _UPPER_SPAN)
                if num:
                    w[p] = Fraction(num, rng.choice((1, 1, 2, 3)))
            layer.append(
                Gate(GateKind.RELU, AffineForm(w, Fraction(rng.randint(-_UPPER_SPAN, _UPPER_SPAN))))
            )
        layers.append(tuple(layer))
    out_w = {}
    for p in range(widths[-1]):
        num = rng.randint(-_UPPER_SPAN, _UPPER_SPAN)
        if num:
            out_w[p] = Fraction(num, rng.choice((1, 1, 2, 3)))
    out = Gate(
        GateKind.LTF, AffineForm(out_w, Fraction(rng.randint(-_UPPER_SPAN, _UPPER_SPAN)))
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


def _block_starts(changes: np.ndarray) -> np.ndarray:
    """First indices of the runs along an axis, given where it changes."""
    return np.concatenate(([0], np.flatnonzero(changes) + 1))


def block_partition(matrix: RationalMatrix | SignMatrix) -> BlockPartition:
    """Split at every row/column change; blocks are constant by construction
    (equal consecutive rows share a block, likewise columns), re-checked here
    by spreading each block's first entry over the block."""
    num = matrix.num
    n_rows, n_cols = num.shape
    row_starts = _block_starts(np.any(num[1:] != num[:-1], axis=1))
    col_starts = _block_starts(np.any(num[:, 1:] != num[:, :-1], axis=0))
    first_row = np.repeat(row_starts, np.diff(row_starts, append=n_rows))
    first_col = np.repeat(col_starts, np.diff(col_starts, append=n_cols))
    if not np.array_equal(num[np.ix_(first_row, first_col)], num):
        raise InvariantViolationError("block is not constant")
    return BlockPartition(tuple(row_starts.tolist()), tuple(col_starts.tolist()))


# ---------------------------------------------------------------------------
# exact rank

_PRIME = (1 << 31) - 1


def exact_rank(matrix: RationalMatrix | SignMatrix | Sequence[Sequence]) -> int:
    """Rank over the rationals.

    Zero rows go, then duplicate rows and columns; none of this changes the
    rank, and the denominator plays no part.  Three stages follow, each
    exact when it answers: `_full_rank_certified` proves full rank from a
    rounded float64 inverse; elimination modulo the prime p = 2^31 - 1 in
    int64 gives a rank that never exceeds the rank over the rationals (every
    minor that vanishes over Q vanishes mod p), so it is exact when it
    reaches the smaller dimension; otherwise a fraction-free Bareiss sweep
    over Python ints decides.
    """
    if not isinstance(matrix, (RationalMatrix, SignMatrix)):
        matrix = RationalMatrix(matrix)
    num = matrix.num
    num = num[np.any(num != 0, axis=1)]
    if not num.shape[0]:
        return 0
    num = _distinct_rows(_distinct_rows(num).T).T
    if _full_rank_certified(num):
        return min(num.shape)
    rank = _rank_mod_prime(num)
    if rank == min(num.shape):
        return rank
    return _bareiss_rank(num.astype(object))


def _full_rank_certified(num: np.ndarray) -> bool:
    """True only if ``num``, an integer matrix with a nonzero entry, has
    rank min(num.shape).

    With A = ``num`` oriented r x c, r <= c, X is a float64 inverse of A
    (square) or A^T (A A^T)^-1 (wide), and X' = rint(2^s X) for the largest
    s >= 1 with 2^s max|X| <= q = floor((2^52 - 1) / (c max|A|)).  Then
    c max|A| max|X'| < 2^52: every partial sum of A X' is an integer below
    2^52, so the float64 product is exact in any summation order, and
    A X' = 2^s I - E exactly.  If every row of |E| sums to less than 2^s,
    then ||I - A X'/2^s||_inf < 1, so A X' is nonsingular and rank A >= r.
    Object arrays, and c max|A| >= 2^52 (where q = 0; it covers every
    entry at or past 2^53, which float64 would round), are not tried.  No
    int64 sum wraps: s <= 62 - bit_length(r), so |E| <= 2^s + 2^52 < 2^63,
    the check fails as soon as an entry of |E| reaches 2^s, and after that
    each row sum is below r 2^s < 2^62.
    """
    if num.dtype == object:
        return False
    a = num if num.shape[0] <= num.shape[1] else num.T
    r, c = a.shape
    q = ((1 << 52) - 1) // (c * int(np.abs(a).max()))
    if not q:
        return False
    af = a.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            x = np.linalg.inv(af) if r == c else af.T @ np.linalg.inv(af @ af.T)
        except np.linalg.LinAlgError:
            return False
    x_max = float(np.abs(x).max())
    if not 0.0 < x_max < math.inf:
        return False
    s = min(math.frexp(q / x_max)[1] - 1, 62 - r.bit_length())
    if s < 1:
        return False
    x = np.rint(np.ldexp(x, s))
    if np.abs(x).max() > q:  # q / x_max was rounded up
        return False
    e = np.abs((1 << s) * np.eye(r, dtype=np.int64) - (af @ x).astype(np.int64))
    return bool((e < 1 << s).all() and (e.sum(axis=1) < 1 << s).all())


def _distinct_rows(a: np.ndarray) -> np.ndarray:
    """One copy of each distinct row of ``a``, in order of first appearance."""
    key = tuple if a.dtype == object else np.ndarray.tobytes
    return a[list({key(row): i for i, row in enumerate(a)}.values())]


def _rank_mod_prime(num: np.ndarray) -> int:
    """Rank over GF(p), by fraction-free row reduction: each later row with a
    nonzero entry e in the pivot column becomes pivot * row - e * pivot row.
    Entries stay below p < 2^31, so every product stays below 2^62."""
    a = (num % _PRIME).astype(np.int64)
    n_rows, n_cols = a.shape
    rank = 0
    for col in range(n_cols):
        nonzero = rank + np.flatnonzero(a[rank:, col])
        if not nonzero.size:
            continue
        if nonzero[0] != rank:  # row `rank` is zero here, so it is no later hit
            a[[rank, nonzero[0]]] = a[[nonzero[0], rank]]
        hits = nonzero[1:]
        if hits.size:
            pivot = a[rank, col:]
            a[hits, col:] = (a[hits, col:] * pivot[0] - np.outer(a[hits, col], pivot)) % _PRIME
        rank += 1
        if rank == n_rows:
            break
    return rank


def _bareiss_rank(arr: np.ndarray) -> int:
    """Rank of an object array of Python ints by the Bareiss sweep, in place;
    every division is exact."""
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


def _floats(matrix: RationalMatrix | SignMatrix) -> np.ndarray:
    return np.asarray(matrix.num / matrix.den, dtype=np.float64)


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
) -> float:
    """Largest singular value by power iteration on M^T M, from a fixed
    random start (seed 0).

    An estimate: the iteration converges from below, so it can fall short
    of the true norm."""
    a = _floats(matrix)
    rng = np.random.default_rng(0)
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


def forster_lower_bound(matrix: SignMatrix) -> float:
    """sqrt(rows*cols) / ||M||, Forster's lower bound on the sign-rank of M,
    with ||M|| from `spectral_norm`'s power-iteration estimate at its
    default tolerance and iteration limit.  An estimate below the true norm
    puts the value above the bound."""
    rows, cols = matrix.shape
    norm = spectral_norm(matrix)
    return math.sqrt(rows * cols) / norm


def sign_rank_is_one(matrix: SignMatrix) -> bool:
    """True iff M = u v^T for +-1 vectors: every row is +-(first row)."""
    num = matrix.num
    first = num[0]
    return bool(np.all(np.all(num == first, axis=1) | np.all(num == -first, axis=1)))


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
    return block_bound_report(m, bound, circuit.widths, partition, block_bound, rank), matrix
