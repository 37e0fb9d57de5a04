"""
Building Boolean functions out of ReLU gates
============================================

Three exact constructions: parity from a ladder of k+1 ReLUs, a threshold
gate from just 2 ReLUs, and two universal recipes that realize *any* Boolean
function as a Sum-of-ReLU circuit.
"""
from fractions import Fraction

from relucirc import (
    Gate,
    GateKind,
    TruthTable,
    affine,
    evaluate,
    ltf_to_relu,
    parity_sum_of_relu,
    truth_table,
    universal_fourier,
    universal_vertex_indicators,
    walsh_hadamard,
)

# --- parity needs only k+1 gates -------------------------------------------
# (x1 + ... + xk) mod 2 on 0/1 inputs: hinge functions at integer thresholds
# combine with alternating +-2 coefficients into the sawtooth wave that parity
# traces along the Hamming levels.
for k in (3, 8):
    circuit = parity_sum_of_relu(k)
    print(f"parity on {k} bits: {circuit.relu_count} ReLU gates (budget {k + 1})")
    sample = (1,) * k
    print(f"  parity({sample}) = {evaluate(circuit, sample)}")

# --- a threshold gate costs two ReLUs --------------------------------------
# sign(w.x + b) = (ReLU(t + 1/2) - ReLU(t - 1/2)) scaled: the gap between two
# shifted hinges is 1 exactly when the argument clears the threshold.
majority = Gate(
    GateKind.LTF,
    affine({0: 1, 1: 1, 2: 1}, 0),
)
two_relu = ltf_to_relu(majority, 3)
print(f"\nmajority of 3 as ReLUs: {two_relu.relu_count} gates")
print(f"  table: {truth_table(two_relu).to_hex()} (hex, vertex 0 first)")

# --- route one: one indicator gate per vertex -------------------------------
# Every input vertex gets a ReLU that fires only there, so 2^n gates always
# suffice, whatever the function.
target = TruthTable.from_hex(3, "96")  # parity of three +-1 inputs
direct = universal_vertex_indicators(target)
print(f"\nvertex route for table 0x96: {direct.relu_count} gates (cap {2 ** 3})")
print(f"  reproduces the table: {truth_table(direct).to_hex() == '96'}")

# --- route two: one ladder per Fourier monomial -----------------------------
# The multilinear expansion of the table pays |S| + 1 gates per nonzero
# coefficient, which is far cheaper whenever the spectrum is sparse.
spectrum = walsh_hadamard(target)
budget = sum(s + 1 for s in spectrum.support_sizes())
spectral = universal_fourier(target)
print(f"spectral route for table 0x96: {spectral.relu_count} gates (budget {budget})")
print(f"  reproduces the table: {truth_table(spectral).to_hex() == '96'}")

# Parity's spectrum is a single full-degree monomial, so the spectral route
# collapses to the parity ladder; a dense random table flips the comparison.
dense = TruthTable(3, 0b10110100)
dense_budget = sum(s + 1 for s in walsh_hadamard(dense).support_sizes())
print(f"\ndense table 0xb4 spectral budget: {dense_budget} vs vertex cap: 8")
