"""
Collapsing circuits with random restrictions
============================================

Fixing some inputs makes ReLU gates sign-definite: a gate whose argument
can no longer go positive vanishes, one that can no longer go negative turns
affine and folds into the layer above.  This drives two experiments: pinning
a selector function's lookup table, and measuring how many bottom gates
survive as the arity grows.
"""
import random
from fractions import Fraction

from relucirc import (
    Restriction,
    andreev_layout,
    andreev_restricted_table,
    apply_restriction,
    evaluate,
    sample_andreev_restriction,
    survival_csv,
    survival_experiment,
)
from relucirc.circuit import vertex
from relucirc.restriction import random_ltf_of_relu
from relucirc.serialize import gate_wire

# --- watch a single circuit collapse ----------------------------------------
rng = random.Random(7)
circuit = random_ltf_of_relu(n=6, gate_count=8, bound=3, rng=rng)
rho = Restriction(6, {1: -1, 2: 1, 5: 1, 6: -1})
report = apply_restriction(circuit, rho)
print(f"restricted a {circuit.relu_count}-gate circuit, fixing 4 of 6 inputs:")
print(f"  removed as constant zero: {[gate_wire(1, j + 1) for j in report.removed_as_zero]}")
print(f"  linearized and folded:    {[gate_wire(1, j + 1) for j in report.linearized]}")
print(f"  still nonlinear:          {[gate_wire(1, j + 1) for j in report.survivors]}")
print(f"  gates left: {report.restricted.relu_count}")

# the restricted circuit is the exact slice of the original
for idx in range(4):
    free = vertex(2, idx)
    full = (-1, 1, free[0], free[1], 1, -1)
    assert evaluate(report.restricted, free) == evaluate(circuit, full)
print("  slice equality checked on all 4 free vertices")

# --- pinning a selector function's table ------------------------------------
# The selector reads an address built from row parities of a bit matrix and
# returns that position of a lookup table x.  A restriction that fixes x and
# all but one matrix bit per row leaves the free bits addressing the table:
# the restricted truth table IS the x string.
n = 16
table_bits, rows, cols = andreev_layout(n)
table_rng = random.Random(3)
x_star = tuple(table_rng.randint(0, 1) for _ in range(table_bits))
rho = sample_andreev_restriction(n, x_star, seed=11)
restricted_table = andreev_restricted_table(rho, n)
print(f"\nselector on {n} bits ({rows}x{cols} matrix, {table_bits}-bit table):")
print(f"  planted table:    {x_star}")
print(f"  restricted table: {restricted_table}")
assert restricted_table == x_star

# --- survival falls as the arity grows ---------------------------------------
# With one free coordinate per matrix row, the folded bias of a random gate
# spreads out as sqrt(n) while the free weight mass stays put, so the odds a
# bottom gate stays nonlinear shrink.
rows = survival_experiment(
    [64, 256, 1024], gate_count=32, bound=4,
    trials=400, seed=9,
)
print("\nbottom-gate survival under selector-style restrictions:")
print(survival_csv(rows), end="")
