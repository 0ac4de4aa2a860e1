"""
GHZ generation from one central gate
====================================

Evolving |0...0> to t*, a Hadamard on the central site, and a second t*
evolution turn the chain into a two-branch superposition of |0...0> and
|1...1>, i.e. a GHZ state up to a relative phase. The protocol needs no
further gates.
"""
from bellchain import ChainSpec, ghz_protocol

for n in (3, 5, 7):
    result = ghz_protocol(ChainSpec(n))
    print(f"N = {n}")
    print(f"  GHZ fidelity (phase-maximized): {result.ghz_fidelity:.12f}")
    print(f"  relative branch phase: {result.relative_phase:+.6f} rad")

# Small fields degrade the branches smoothly rather than abruptly.
perturbed = ghz_protocol(ChainSpec(3, fields_b=(0.05, 0.05, 0.05)))
print(f"N = 3 with B = 0.05 on every site: fidelity {perturbed.ghz_fidelity:.6f}")
