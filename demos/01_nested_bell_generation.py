"""
Nested Bell-pair generation on an alternating XX/YY chain
=========================================================

Evolve |00...0> for the quarter-period t* and check that every mirror
pair (i, N-i+1) lands on a maximally entangled Bell state while the
central site stays pure.
"""
from bellchain import (
    ChainSpec,
    Propagator,
    StateVector,
    bell_schedule,
    build_hamiltonian,
    matryoshka_time,
    verify_matryoshka,
)

for n in (3, 5, 7):
    spec = ChainSpec(n)
    schedule = bell_schedule(n)
    propagator = Propagator(build_hamiltonian(spec))
    state = propagator.evolve(StateVector.zero_state(n), matryoshka_time(spec.lam))

    report = verify_matryoshka(state, schedule)
    print(f"N = {n}")
    print(f"  global fidelity to the nested Bell product: {report.global_fidelity:.12f}")
    for pair in report.pair_reports:
        i, j = pair.sites
        print(
            f"  pair ({i},{j}): {pair.label.value:4s}"
            f"  concurrence {pair.concurrence:.12f}"
            f"  fidelity {pair.bell_fidelity:.12f}"
        )
    print(
        f"  central site {schedule.central_site}:"
        f" purity {report.central_purity:.12f}, <Z> {report.central_z:+.6f}"
    )

# The dominant amplitudes show the two-branch structure directly.
spec = ChainSpec(3)
state = Propagator(build_hamiltonian(spec)).evolve(
    StateVector.zero_state(3), matryoshka_time()
)
print("N = 3 amplitudes:", state.dominant_components())
