"""Benchmark Boolean functions used by the lower-bound experiments.

The table-selector function works on {0,1} bits exactly as usually defined;
everything else uses the +-1 convention with +1 as logical TRUE.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .circuit import ArityError


def andreev_layout(n: int) -> tuple[int, int, int]:
    """(selector bits, rows, cols) of the n-bit instance.

    The first n//2 bits are a lookup table x; the remaining bits form a
    rows x cols bit matrix with rows = floor(log2(n/2)) and
    cols = floor(n / (2*rows)).  rows*cols <= n/2, so everything fits in n.
    """
    if n < 4:
        raise ArityError("selector function needs n >= 4")
    half = n // 2
    rows = half.bit_length() - 1
    cols = n // (2 * rows)
    return half, rows, cols


def andreev_input_size(n: int) -> int:
    half, rows, cols = andreev_layout(n)
    return half + rows * cols


@dataclass(frozen=True)
class AndreevInput:
    """A lookup table x plus a bit matrix whose row parities address it."""

    n: int
    x: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        half, r, c = andreev_layout(self.n)
        if len(self.x) != half:
            raise ArityError(f"x block needs {half} bits, got {len(self.x)}")
        if len(self.rows) != r or any(len(row) != c for row in self.rows):
            raise ArityError(f"matrix block must be {r}x{c}")
        for bit in self.x:
            if bit not in (0, 1):
                raise ArityError("x block must be 0/1 bits")
        for row in self.rows:
            for bit in row:
                if bit not in (0, 1):
                    raise ArityError("matrix block must be 0/1 bits")

    @classmethod
    def from_bits(cls, n: int, bits: Sequence[int]) -> "AndreevInput":
        half, r, c = andreev_layout(n)
        if len(bits) != half + r * c:
            raise ArityError(f"expected {half + r * c} bits, got {len(bits)}")
        x = tuple(bits[:half])
        rows = tuple(
            tuple(bits[half + i * c : half + (i + 1) * c]) for i in range(r)
        )
        return cls(n, x, rows)


def row_parity_index(rows: Sequence[Sequence[int]]) -> int:
    """The parities of the 0/1 rows, read as bits, first row most significant."""
    index = 0
    for row in rows:
        parity = 0
        for bit in row:
            parity ^= bit
        index = (index << 1) | parity
    return index


def andreev(inp: AndreevInput) -> int:
    """Row parities of the matrix, read most-significant-first, index x."""
    return inp.x[row_parity_index(inp.rows)]


def omb(x: Sequence[int]) -> int:
    """ODD-MAX-BIT: -1 iff sum_i (-1)^(i+1) 2^i (1 + x_i) >= 1/2.

    Since the highest term dominates the rest of the sum, this is -1 exactly
    when the largest 1-based index with x_i = +1 is odd; all-(-1) gives +1.
    """
    total = 0
    for i, xi in enumerate(x, start=1):
        if xi == 1:
            total += (-1) ** (i + 1) * (1 << i) * 2
        elif xi != -1:
            raise ArityError(f"coordinate {i} is {xi}, expected +1 or -1")
    return -1 if 2 * total >= 1 else 1


@dataclass(frozen=True)
class ComposedParams:
    """Block sizes for the OMB-of-OR-of-XOR composition.

    ``blocks`` OR-groups of width ``block_width`` feed ODD-MAX-BIT.  Both are
    free here; the asymptotic regime of interest takes blocks = n with width
    about n**(1/3) - log2(n), but desk-scale instances are what get built.
    """

    blocks: int
    block_width: int

    def __post_init__(self):
        if self.blocks < 1 or self.block_width < 1:
            raise ArityError("block counts must be positive")

    @property
    def side_bits(self) -> int:
        return self.blocks * self.block_width

    @classmethod
    def asymptotic_scale(cls, n: int) -> "ComposedParams":
        width = max(1, round(n ** (1 / 3) - math.log2(n)))
        return cls(blocks=n, block_width=width)


def arkadev_nikhil(params: ComposedParams, x: Sequence[int], y: Sequence[int]) -> int:
    """OMB over per-block ORs of two-party XORs, +1 = TRUE.

    z_{i,j} = XOR2(x_{i,j}, y_{i,j}) = -x_{i,j} * y_{i,j}; u_i = OR_j z_{i,j};
    the result is omb(u).
    """
    k, b = params.blocks, params.block_width
    if len(x) != k * b or len(y) != k * b:
        raise ArityError(f"each side needs {k * b} coordinates")
    u = []
    for i in range(k):
        block_true = False
        for j in range(b):
            xi, yi = x[i * b + j], y[i * b + j]
            if xi not in (-1, 1) or yi not in (-1, 1):
                raise ArityError("coordinates must be +-1")
            if -xi * yi == 1:
                block_true = True
        u.append(1 if block_true else -1)
    return omb(u)


def composed_function(params: ComposedParams) -> Callable[[Sequence[int], Sequence[int]], int]:
    """Two-party callable for building sign matrices."""
    return lambda x, y: arkadev_nikhil(params, x, y)
