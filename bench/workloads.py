"""The benchmark's workloads: seeded inputs, timed operations, and checks.

A workload hands out rounds.  Every round is the same fixed list of
operation slots, with fresh inputs drawn from the workload seed and the round
index, so runs of any length and any seed attempt whole rounds of the same
operations.  Each slot's sizes are fixed and only the drawn values change
with the seed, which keeps the cost of a round steady across seeds.  The
slots are ordered by cost so that the median and the 90th percentile of the
operation times fall inside one slot's times rather than on the edge between
two.

An operation's `run` calls the library and is timed; its `check` compares the
result with the independent computations in `oracles` and is not timed.  A
`probe` repeats part of an operation in traced runs only (a warm repeat of
`truth_table`), outside the operation's timing.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import oracles
from oracles import DocCircuit, ensure


@dataclass
class Op:
    slot: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    probe: Callable[[Any], None] | None = None


class Workload:
    name = ""

    def __init__(self, rc, seed: int, workdir: str):
        self.rc = rc
        self.seed = seed
        self.workdir = workdir
        self.notes: dict[str, Any] = {}

    def rng(self, index: int, slot: str = "") -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}:{slot}")

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# universal routes

class Universal(Workload):
    """Both universal routes on random tables, each table checked by `truth_table`."""

    arities: tuple[int, ...] = ()
    full_check_every = 1   # rounds between scalar evaluations of a circuit pair
    points_checked = 4     # cube points per circuit in those evaluations

    def round(self, index: int) -> list[Op]:
        rng = self.rng(index)
        # the scalar evaluation visits the slots in turn
        full = -1
        if index % self.full_check_every == 0:
            full = index // self.full_check_every % len(self.arities)
        return [
            self._op(f"n{n}", n, rng.getrandbits(1 << n), k == full, rng)
            for k, n in enumerate(self.arities)
        ]

    def _op(self, slot: str, n: int, bits: int, full: bool, rng: random.Random) -> Op:
        rc = self.rc
        size = 1 << n
        points = (
            list(range(size)) if size <= self.points_checked
            else rng.sample(range(size), self.points_checked)
        )

        def run():
            table = rc.TruthTable(n, bits)
            vertex_c = rc.universal_vertex_indicators(table)
            fourier_c = rc.universal_fourier(table)
            return vertex_c, fourier_c, rc.truth_table(vertex_c), rc.truth_table(fourier_c)

        def check(out):
            vertex_c, fourier_c, vertex_t, fourier_t = out
            ensure(vertex_t.bits == bits, f"vertex route tabulates wrongly at n={n}")
            ensure(fourier_t.bits == bits, f"Fourier route tabulates wrongly at n={n}")
            ensure(vertex_c.relu_count == size, "vertex route does not use 2^n ReLUs")
            budget = oracles.fourier_budget(n, bits)
            ensure(
                fourier_c.relu_count <= budget,
                f"Fourier route uses {fourier_c.relu_count} ReLUs, budget {budget}",
            )
            if full:
                for circuit in (vertex_c, fourier_c):
                    doc = DocCircuit(rc.circuit_to_json(circuit))
                    for idx in points:
                        ensure(
                            doc.value(oracles.vertex(n, idx)) == oracles.table_value(bits, idx),
                            f"circuit value differs from the table at vertex {idx}",
                        )

        def probe(out):
            vertex_c, fourier_c, vertex_t, fourier_t = out
            ensure(rc.truth_table(vertex_c) == vertex_t, "repeat truth_table differs")
            ensure(rc.truth_table(fourier_c) == fourier_t, "repeat truth_table differs")

        return Op(slot, run, check, probe)


class UniversalSmall(Universal):
    name = "universal-small"
    arities = (4, 4, 4, 4, 4)
    full_check_every = 16


class UniversalWide(Universal):
    name = "universal-wide"
    arities = (8, 8, 9, 9, 10)
    full_check_every = 4
    points_checked = 2


# ---------------------------------------------------------------------------
# sign-rank chain

class SignRank(Workload):
    """Cone circuits through the block/rank/Forster chain, and the inner product."""

    name = "signrank"
    widths = (3, 2)
    weight_bound = 2
    slots = (("cone-m1-3", (1, 2, 3)), ("cone-m4", (4,)), ("cone-m5", (5,)), ("cone-m6", (6,)))
    inner_product_m = (6, 7)
    rank_check_every = 2   # rounds between the top gates' and sign matrix's ranks

    def __init__(self, rc, seed, workdir):
        super().__init__(rc, seed, workdir)
        self.notes.update(forster_patterns=0, forster_above_svd=0, forster_max_rel_excess=0.0)

    def round(self, index: int) -> list[Op]:
        ops = []
        full = index % self.rank_check_every == 0
        for slot, ms in self.slots:
            rng = self.rng(index, slot)
            items = [
                (m, self.rc.random_cone_circuit(m, list(self.widths), self.weight_bound, rng))
                for m in ms
            ]
            ops.append(self._cone_op(slot, items, rng, full))
        ops.append(self._inner_product_op())
        return ops

    def _cone_op(self, slot: str, items, rng: random.Random, full: bool) -> Op:
        rc, bound = self.rc, self.weight_bound
        samples = [
            [(rng.randrange(1 << m), rng.randrange(1 << m)) for _ in range(8)] for m, _ in items
        ]

        def run():
            out = []
            for m, circuit in items:
                sigma = rc.VertexOrdering.standard(m)
                report = rc.verify_block_bound(circuit, m, bound, sigma, sigma)
                decomposition = rc.top_decomposition(circuit, m, sigma, sigma)
                pre = rc.pre_sign_matrix(circuit, m, sigma, sigma)
                forster = rc.forster_lower_bound(rc.sign_pattern(pre))
                out.append((report, decomposition, pre, forster))
            return out

        def check(out):
            for (m, circuit), positions, (report, (beta, alphas, mats), pre, forster) in zip(
                items, samples, out
            ):
                self._check_cone(m, circuit, positions, report, beta, alphas, mats, pre, forster, full)

        return Op(slot, run, check)

    def _check_cone(self, m, circuit, positions, report, beta, alphas, mats, pre, forster, full):
        entries = pre.entries
        order = oracles.standard_order(m)
        doc = DocCircuit(self.rc.circuit_to_json(circuit))
        for r, c in positions:
            point = oracles.vertex(m, order[r]) + oracles.vertex(m, order[c])
            ensure(doc.pre(point) == entries[r][c], f"pre-sign entry ({r}, {c}) is wrong at m={m}")
            ensure(
                beta + sum(a * f.entries[r][c] for a, f in zip(alphas, mats)) == entries[r][c],
                f"top decomposition misses entry ({r}, {c}) at m={m}",
            )
        row_blocks, col_blocks = oracles.block_counts(entries)
        ensure(
            (report["rowBlocks"], report["colBlocks"]) == (row_blocks, col_blocks),
            f"block counts {report['rowBlocks']}, {report['colBlocks']}, "
            f"expected {row_blocks}, {col_blocks}",
        )
        block_bound = 2 * m * self.weight_bound * math.prod(circuit.widths) + 1
        ensure(report["bound"] == block_bound, "block bound misstated")
        ensure(max(row_blocks, col_blocks) <= block_bound, "block count over its bound")
        rank = oracles.rational_rank(entries)
        ensure(report["exactRank"] == rank, f"exact rank {report['exactRank']}, expected {rank}")
        ensure(rank <= min(row_blocks, col_blocks), "rank exceeds the block count")
        if full:
            ensure(
                rank <= 1 + sum(oracles.rational_rank(f.entries) for f in mats),
                "rank exceeds 1 + the top gates' ranks",
            )
        signs = [[1 if v >= 0 else -1 for v in row] for row in entries]
        rows, cols = len(signs), len(signs[0])
        svd_bound = math.sqrt(rows * cols) / oracles.top_singular_value(signs)
        excess = forster / svd_bound - 1
        self.notes["forster_patterns"] += 1
        if excess > 0:
            self.notes["forster_above_svd"] += 1
            self.notes["forster_max_rel_excess"] = max(self.notes["forster_max_rel_excess"], excess)
        ensure(excess <= 1e-6, f"Forster bound exceeds sqrt(rc)/sigma1 by {excess:.3g} relative")
        if full:
            ensure(forster <= oracles.rational_rank(signs) + 1e-6, "Forster bound exceeds the rank")

    def _inner_product_op(self) -> Op:
        rc = self.rc

        def run():
            out = []
            for m in self.inner_product_m:
                matrix = rc.inner_product_matrix(m)
                out.append((matrix, rc.exact_rank(matrix), rc.forster_lower_bound(matrix)))
            return out

        def check(out):
            for m, (matrix, rank, forster) in zip(self.inner_product_m, out):
                size = 1 << m
                want = [[oracles.inner_product_sign(i, j) for j in range(size)] for i in range(size)]
                ensure([list(row) for row in matrix.entries] == want, f"inner product matrix wrong at m={m}")
                ensure(rank == size, f"inner product rank {rank}, expected {size}")
                ensure(abs(forster - 2 ** (m / 2)) < 1e-6, f"inner product Forster bound {forster}")

        return Op("inner-product", run, check)


# ---------------------------------------------------------------------------
# PWL refutation and grid verification

class Refute(Workload):
    """Refutations of random ReLU sums, and grid checks of depth-2 circuits."""

    name = "refute"
    term_counts = (1, 2, 3, 4)
    radius = Fraction(10)
    step = Fraction(1, 2)
    grid_check_every = 4   # rounds between full-grid oracle scans

    def round(self, index: int) -> list[Op]:
        full = index % self.grid_check_every == 0
        ops = [self._refute_op(k, self.rng(index, f"terms{k}"), full) for k in self.term_counts]
        ops.append(self._verify_op(self.rng(index, "verify"), full))
        return ops

    def _refute_op(self, k: int, rng: random.Random, full: bool) -> Op:
        rc, radius, step = self.rc, self.radius, self.step
        triples = [
            (
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))),
                Fraction(rng.randint(-4, 4), rng.randint(1, 2)),
            )
            for _ in range(k)
        ]

        def run():
            return rc.refute_max0xy(rc.pwl_sum(triples), radius, step)

        def check(report):
            w = report.witness

            def f(p):
                return oracles.pwl_value(triples, p)

            if w.kind == "value":
                ensure(f(w.point) == w.f_result, "value witness misreports f")
                ensure(oracles.max0(w.point) == w.target_result, "value witness misreports the target")
                ensure(w.f_result != w.target_result, "value witness does not separate")
            else:
                ensure(w.kind == "differentiability", f"unknown witness kind {w.kind!r}")
                v = w.direction
                neg = (-v[0], -v[1])
                ours = oracles.sided_slope(f, w.point, v) + oracles.sided_slope(f, w.point, neg)
                target = oracles.sided_slope(oracles.max0, w.point, v) + oracles.sided_slope(
                    oracles.max0, w.point, neg
                )
                ensure(ours == w.f_result, f"witness derivative sum {w.f_result}, quotients give {ours}")
                ensure(target == w.target_result, "witness misreports the target's derivative sum")
                ensure(ours != target, "derivative witness does not separate")
            if full:
                want = oracles.grid_max_error(triples, radius, step)
                ensure(report.grid_max_error == want, f"gridMaxError {report.grid_max_error}, expected {want}")

        return Op(f"refute-{k}", run, check)

    def _verify_op(self, rng: random.Random, full: bool) -> Op:
        """Two exact circuits scanned in full, one perturbed circuit scanned to
        its first mismatch.

        The exact ones are max0xy_depth2 with every hidden gate scaled by a
        positive rational and its readers' weights divided back.  The perturbed
        one also lowers the bias of ReLU(x1) by t in (0, 1/2), which changes
        the output exactly where x1 > 0: the scan stops near its middle.
        """
        rc, radius, step = self.rc, self.radius, self.step
        base = rc.circuit_to_json(rc.max0xy_depth2())
        docs = [_scaled_max_doc(base, rng) for _ in range(3)]
        shift = Fraction(rng.randint(1, 9), 20)
        gate = docs[2]["layers"][0][0]
        scale = Fraction(gate["weights"]["x1"])
        gate["bias"] = _q(Fraction(gate["bias"]) - shift * scale)
        circuits = [rc.circuit_from_json(doc) for doc in docs]

        def run():
            return (
                rc.verify_depth2_max(circuits[0], radius, step),
                rc.verify_depth2_max(circuits[1], radius, step),
                rc.first_grid_mismatch(circuits[2], radius, step),
            )

        def check(out):
            exact_a, exact_b, mismatch = out
            ensure(exact_a and exact_b, "an exact max{0,x1,x2} circuit failed its grid check")
            ensure(mismatch is not None, "the perturbed circuit passed its grid check")
            point, got, want = mismatch
            perturbed = DocCircuit(docs[2])
            ensure(perturbed.value(point) == got, "mismatch reports a wrong circuit value")
            ensure(oracles.max0(point) == want != got, "mismatch reports a wrong target value")
            if full:
                exact = DocCircuit(docs[0])
                axis = oracles.grid(radius, step)
                for p in ((p1, p2) for p1 in axis for p2 in axis):
                    ensure(exact.value(p) == oracles.max0(p), f"exact circuit differs at {p}")
                first = next(
                    (p1, p2) for p1 in axis for p2 in axis
                    if perturbed.value((p1, p2)) != oracles.max0((p1, p2))
                )
                ensure(tuple(point) == first, f"mismatch at {point}, first is {first}")

        return Op("grid-verify", run, check)


def _q(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _scaled_max_doc(base: dict, rng: random.Random) -> dict:
    doc = json.loads(json.dumps(base))
    readers = doc["layers"][1:] + [[doc["outputGate"]]]
    for k, layer in enumerate(doc["layers"], start=1):
        for j, gate in enumerate(layer, start=1):
            c = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            gate["weights"] = {w: _q(Fraction(q) * c) for w, q in gate["weights"].items()}
            gate["bias"] = _q(Fraction(gate["bias"]) * c)
            wire = f"g{k}.{j}"
            for reader in readers[k - 1]:
                if wire in reader["weights"]:
                    reader["weights"][wire] = _q(Fraction(reader["weights"][wire]) / c)
    return doc


# ---------------------------------------------------------------------------
# Andreev restrictions through the CLI

class Restrict(Workload):
    """Selector restrictions applied by `relucirc restrict apply`, and the
    survival sweep by `relucirc restrict survival`."""

    name = "restrict"
    lengths = (64, 64, 128, 256, 512, 1024)
    gates = 16
    weight_bound = 4
    points = 4
    survival_lengths = (64, 128, 256, 512, 1024)
    survival_gates = 32
    survival_trials = 300
    table_check_max = 128   # andreev_restricted_table is checked up to this length

    def __init__(self, rc, seed, workdir):
        super().__init__(rc, seed, workdir)
        self._circuits: dict[str, tuple[str, DocCircuit]] = {}

    def _circuit_file(self, slot: str, arity: int) -> tuple[str, DocCircuit]:
        """(path, parsed document) of the slot's circuit.

        Each slot draws its circuit once per run and every round restricts it
        afresh: writing a 1016-input circuit costs a quarter of a round.
        """
        if slot not in self._circuits:
            rng = self.rng(0, f"circuit-{slot}")
            circuit = self.rc.random_ltf_of_relu(arity, self.gates, self.weight_bound, rng)
            path = self._path(f"{slot}.in.json")
            self.rc.dump_circuit(circuit, path)
            with open(path, encoding="utf-8") as fh:
                self._circuits[slot] = path, DocCircuit(json.load(fh))
        return self._circuits[slot]

    def round(self, index: int) -> list[Op]:
        ops = [
            self._apply_op(f"apply-{n}-{k}", n, self.rng(index, f"apply{k}"))
            for k, n in enumerate(self.lengths)
        ]
        ops.append(self._survival_op(self.rng(index, "survival")))
        return ops

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _apply_op(self, slot: str, n: int, rng: random.Random) -> Op:
        rc = self.rc
        half, rows, cols = rc.andreev_layout(n)
        arity = rc.andreev_input_size(n)
        in_path, original = self._circuit_file(slot, arity)
        out_path = self._path(f"{slot}.out.json")
        x_star = tuple(rng.randint(0, 1) for _ in range(half))
        restriction_seed = rng.randrange(1 << 31)
        free_points = [tuple(rng.choice((-1, 1)) for _ in range(rows)) for _ in range(self.points)]

        def run():
            rho = rc.sample_andreev_restriction(n, x_star, restriction_seed)
            fix = ",".join(f"{i}={v:+d}" for i, v in sorted(rho.fixed.items()))
            argv = ["restrict", "apply", "--circuit", in_path, "--fix", fix, "--out", out_path]
            with contextlib.redirect_stderr(io.StringIO()):
                code = rc.cli.main(argv)
            with open(out_path, encoding="utf-8") as fh:
                payload = json.load(fh)
            restricted = rc.circuit_from_json(payload["restrictedCircuit"])
            return rho, code, payload, [rc.evaluate(restricted, z) for z in free_points]

        def check(out):
            rho, code, payload, values = out
            ensure(code == 0, f"restrict apply exited {code}")
            fixed = dict(rho.fixed)
            ensure(rho.arity == arity, "restriction has the wrong arity")
            free = [i for i in range(1, arity + 1) if i not in fixed]
            ensure(
                sorted((i - half - 1) // cols for i in free) == list(range(rows)),
                "restriction does not free one coordinate per matrix row",
            )
            ensure(
                all(fixed[i + 1] == 1 - 2 * b for i, b in enumerate(x_star)),
                "restriction does not pin the lookup block to x*",
            )
            want = oracles.classify_bottom(original, fixed)
            got = {
                "removed": payload["removedAsZero"],
                "linearized": payload["linearizedAndRewired"],
                "survivors": payload["survivors"],
            }
            ensure(got == want, "gate classes differ from interval classification")
            restricted = DocCircuit(payload["restrictedCircuit"])
            for z, value in zip(free_points, values):
                ensure(restricted.value(z) == value, "evaluate disagrees with the restricted document")
            # the original circuit is large: one point of the slice suffices
            full = dict(fixed)
            full.update(zip(free, free_points[0]))
            point = [full[i] for i in range(1, arity + 1)]
            ensure(original.value(point) == values[0], "restricted circuit misses the slice")
            if n <= self.table_check_max:
                ensure(
                    tuple(rc.andreev_restricted_table(rho, n)) == x_star,
                    "restricted selector table is not x*",
                )

        return Op(slot, run, check)

    def _survival_op(self, rng: random.Random) -> Op:
        rc = self.rc
        seed = rng.randrange(1 << 31)
        out_path = self._path("survival.out.json")
        lengths = list(self.survival_lengths)
        argv = [
            "restrict", "survival", "--n-list", ",".join(map(str, lengths)),
            "--gates", str(self.survival_gates), "--weight-bound", "4",
            "--trials", str(self.survival_trials), "--seed", str(seed), "--out", out_path,
        ]

        def run():
            with contextlib.redirect_stderr(io.StringIO()):
                code = rc.cli.main(argv)
            with open(out_path, encoding="utf-8") as fh:
                return code, json.load(fh)

        def check(out):
            code, payload = out
            ensure(code == 0, f"restrict survival exited {code}")
            rows = payload["rows"]
            ensure([r["n"] for r in rows] == lengths, "survival rows cover the wrong lengths")
            per_trial = self.survival_trials * self.survival_gates
            for r in rows:
                mean = r["meanSurvival"]
                ensure(r["trials"] == self.survival_trials and r["seed"] == seed, "survival row config")
                ensure(0 <= mean <= 1, f"survival fraction {mean} outside [0, 1]")
                ensure(r["ci95lo"] <= mean <= r["ci95hi"], "confidence interval misses the mean")
                # each trial's fraction is a count over the gates
                ensure(abs(mean * per_trial - round(mean * per_trial)) < 1e-6, "mean is not a gate count")
            ensure(rows[-1]["meanSurvival"] < rows[0]["meanSurvival"], "survival does not fall with n")

        return Op("survival", run, check)


WORKLOADS = {w.name: w for w in (UniversalSmall, UniversalWide, SignRank, Refute, Restrict)}
