"""Independent computations that the benchmark checks the library against.

Nothing here imports relucirc.  Circuits are read from their JSON documents
(the stable exchange format: wire ids "x<i>" and "g<layer>.<pos>", rationals
as "p/q" strings) and evaluated gate by gate, each gate as one integer dot
product over its inputs' common denominator, giving exact Fractions.  Ranks are
taken modulo primes, Fourier spectra by a butterfly on Python ints, and one-sided
derivatives by difference quotients, so none of these shares a code path with
the functions it checks.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np


class CheckFailed(AssertionError):
    """An output of the library disagrees with its independent computation."""


def ensure(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# the cube: index bit i set <=> coordinate i+1 is -1

def vertex(n: int, index: int) -> tuple[int, ...]:
    return tuple(-1 if (index >> i) & 1 else 1 for i in range(n))


def standard_order(m: int) -> list[int]:
    """Vertex indices sorted by <(1, 2, ..., 2^(m-1)), x>."""
    return sorted(range(1 << m), key=lambda idx: sum(v << i for i, v in enumerate(vertex(m, idx))))


# ---------------------------------------------------------------------------
# scalar Fraction evaluation of circuit documents

def _ratio(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    return int(num), int(den or 1)


def _form(doc: Mapping) -> tuple[list[tuple[str, int]], int, int]:
    """(integer weights, integer bias, scale): the form times its scale, the
    lcm of its denominators."""
    ratios = [(w, *_ratio(q)) for w, q in doc["weights"].items()]
    b_num, b_den = _ratio(doc["bias"])
    scale = math.lcm(b_den, *(den for _, _, den in ratios))
    return [(w, num * (scale // den)) for w, num, den in ratios], b_num * (scale // b_den), scale


def _affine(form, wires: Mapping[str, Fraction]) -> Fraction:
    """The form's exact value: one integer dot product over the values'
    common denominator, then a single Fraction."""
    weights, bias, scale = form
    den = math.lcm(*(wires[w].denominator for w, _ in weights)) if weights else 1
    total = bias * den
    for w, c in weights:
        v = wires[w]
        total += c * v.numerator * (den // v.denominator)
    return Fraction(total, scale * den)


class DocCircuit:
    """A circuit JSON document, parsed once and evaluated point by point."""

    def __init__(self, doc: Mapping):
        self.n = doc["inputCount"]
        self.layers = [
            [(g["kind"], _form(g)) for g in layer] for layer in doc["layers"]
        ]
        out = doc["outputGate"]
        self.out_kind = out["kind"]
        self.out_form = _form(out)
        skip = doc.get("skipWires")
        self.skip_form = None if skip is None else _form(skip)

    def hidden(self, point: Sequence) -> dict[str, Fraction]:
        """Every wire's value at the point, inputs included."""
        ensure(len(point) == self.n, f"point has {len(point)} coordinates, expected {self.n}")
        wires = {f"x{i + 1}": Fraction(v) for i, v in enumerate(point)}
        for k, layer in enumerate(self.layers, start=1):
            level = {}
            for j, (kind, form) in enumerate(layer, start=1):
                level[f"g{k}.{j}"] = _activate(kind, _affine(form, wires))
            wires.update(level)
        return wires

    def pre(self, point: Sequence) -> Fraction:
        """The output gate's argument, skip wires included."""
        wires = self.hidden(point)
        t = _affine(self.out_form, wires)
        if self.skip_form is not None:
            t += _affine(self.skip_form, wires)
        return t

    def value(self, point: Sequence) -> Fraction:
        return _activate(self.out_kind, self.pre(point))


def _activate(kind: str, t: Fraction) -> Fraction:
    if kind == "RELU":
        return t if t > 0 else Fraction(0)
    if kind == "LTF":
        return Fraction(1) if t >= 0 else Fraction(-1)
    ensure(kind == "SUM", f"unknown gate kind {kind!r}")
    return t


def table_value(bits: int, index: int) -> int:
    """+-1 value of a bit-packed table (bit set <=> -1)."""
    return -1 if (bits >> index) & 1 else 1


# ---------------------------------------------------------------------------
# Walsh-Hadamard spectrum and the Fourier route's gate budget

def spectrum(n: int, bits: int) -> list[int]:
    """2^n times the Fourier coefficients of a +-1 table, by subset mask:
    entry S is sum_x f(x) * (-1)^|S & index(x)|, by the butterfly."""
    vals = [table_value(bits, x) for x in range(1 << n)]
    h = 1
    while h < len(vals):
        for start in range(0, len(vals), 2 * h):
            for j in range(start, start + h):
                a, b = vals[j], vals[j + h]
                vals[j], vals[j + h] = a + b, a - b
        h *= 2
    return vals


def fourier_budget(n: int, bits: int) -> int:
    """sum over the support S of (|S| + 1)."""
    return sum(bin(s).count("1") + 1 for s, v in enumerate(spectrum(n, bits)) if v)


# ---------------------------------------------------------------------------
# ranks modulo primes

_PRIMES = (2_147_483_647, 2_147_483_629)  # below 2^31, so products fit int64


def _integer_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    out = []
    for row in rows:
        qs = [Fraction(v) for v in row]
        scale = math.lcm(*(q.denominator for q in qs)) if qs else 1
        out.append([int(q * scale) for q in qs])
    return out


def rank_mod(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over GF(p) of an integer matrix."""
    a = np.array([[v % p for v in row] for row in rows], dtype=np.int64).reshape(len(rows), -1)
    n_rows, n_cols = a.shape
    rank = 0
    for col in range(n_cols):
        if rank == n_rows:
            break
        nz = np.flatnonzero(a[rank:, col])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank] = (a[rank] * inv) % p
        below = a[rank + 1 :, col].copy()
        if below.size:
            a[rank + 1 :] = (a[rank + 1 :] - np.outer(below, a[rank]) % p) % p
        rank += 1
    return rank


def rational_rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals, as the larger of two ranks modulo primes.

    A rank modulo p never exceeds the rational rank and falls short only when
    p divides every maximal nonzero minor, which two primes near 2^31 make
    vanishingly unlikely for the small-integer matrices checked here.
    """
    ints = _integer_rows(rows)
    if not ints or not ints[0]:
        return 0
    return max(rank_mod(ints, p) for p in _PRIMES)


def block_counts(entries: Sequence[Sequence]) -> tuple[int, int]:
    """(row blocks, column blocks): 1 + the number of changes between
    consecutive rows, and between consecutive columns."""
    rows = [tuple(r) for r in entries]
    cols = list(zip(*rows))
    row_blocks = 1 + sum(rows[i] != rows[i - 1] for i in range(1, len(rows)))
    col_blocks = 1 + sum(cols[j] != cols[j - 1] for j in range(1, len(cols)))
    return row_blocks, col_blocks


def inner_product_sign(i: int, j: int) -> int:
    return -1 if bin(i & j).count("1") & 1 else 1


def top_singular_value(entries: Sequence[Sequence]) -> float:
    return float(np.linalg.svd(np.array(entries, dtype=float), compute_uv=False)[0])


# ---------------------------------------------------------------------------
# planar ReLU sums and max{0, x1, x2}

Triple = tuple[Fraction, tuple[Fraction, Fraction], Fraction]


def pwl_value(triples: Sequence[Triple], p: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for c, (a1, a2), b in triples:
        arg = a1 * p[0] + a2 * p[1] + b
        if arg > 0:
            total += c * arg
    return total


def max0(p: Sequence[Fraction]) -> Fraction:
    return max(Fraction(0), Fraction(p[0]), Fraction(p[1]))


def sided_slope(value: Callable, p: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    """Right difference quotient of value along v at p, once it stops changing.

    Both functions here are piecewise linear, so the quotient is constant for
    every step below the distance to the nearest kink; three equal quotients
    in a row, halving the step each time, are taken as that constant.
    """
    eps = Fraction(1)
    seen: list[Fraction] = []
    base = value(p)
    for _ in range(64):
        seen.append((value((p[0] + eps * v[0], p[1] + eps * v[1])) - base) / eps)
        if len(seen) >= 3 and seen[-1] == seen[-2] == seen[-3]:
            return seen[-1]
        eps /= 2
    raise CheckFailed("difference quotient did not stabilize")


def grid(radius: Fraction, step: Fraction) -> list[Fraction]:
    count = math.floor(Fraction(radius) / Fraction(step))
    return [k * Fraction(step) for k in range(-count, count + 1)]


def grid_max_error(triples: Sequence[Triple], radius: Fraction, step: Fraction) -> Fraction:
    axis = grid(radius, step)
    return max(abs(pwl_value(triples, (p1, p2)) - max0((p1, p2))) for p1 in axis for p2 in axis)


# ---------------------------------------------------------------------------
# restriction: interval classification of folded bottom gates

def classify_bottom(circuit: DocCircuit, fixed: Mapping[int, int]) -> dict[str, list[str]]:
    """Gate ids of the bottom layer by where a restriction sends them.

    Folding the fixed coordinates into a gate gives bias b'; over the free
    cube the argument ranges over [b' - mass, b' + mass] with mass the free
    weights' absolute sum.  The upper end <= 0 removes the ReLU, the lower
    end >= 0 linearizes it, anything else survives.  The integer forms are
    the gates times a positive scale, which leaves each test's outcome alone.
    """
    out: dict[str, list[str]] = {"removed": [], "linearized": [], "survivors": []}
    for j, (_, (weights, bias, _)) in enumerate(circuit.layers[0], start=1):
        mass = 0
        for wire, w in weights:
            value = fixed.get(int(wire[1:]))
            if value is None:
                mass += abs(w)
            else:
                bias += w * value
        if bias + mass <= 0:
            out["removed"].append(f"g1.{j}")
        elif bias - mass >= 0:
            out["linearized"].append(f"g1.{j}")
        else:
            out["survivors"].append(f"g1.{j}")
    return out
