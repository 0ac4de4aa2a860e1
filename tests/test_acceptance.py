"""Acceptance gate: one test per headline criterion, stated tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion; each test prints its measured numbers for the
record (visible with -s or on failure).
"""

import time

import numpy as np
import pytest

from bellchain import (
    ChainClass,
    ChainSpec,
    Propagator,
    StateVector,
    bell_schedule,
    build_hamiltonian,
    concurrence,
    conveyor_run,
    field_sweep,
    flux_check,
    ghz_protocol,
    matryoshka_time,
    mirror_pair_sign,
    reduced_density,
    reference_point_fidelity,
    verify_matryoshka,
)
from _helpers import random_custom_spec, random_state
from _reference import closed_form_three_site_all0


def evolved_state(n: int, t: float | None = None) -> StateVector:
    propagator = Propagator(build_hamiltonian(ChainSpec(n)))
    return propagator.evolve(StateVector.zero_state(n), t if t is not None else matryoshka_time())


def test_criterion_01_three_site_matryoshka_generation():
    start = time.perf_counter()
    state = evolved_state(3)
    target = closed_form_three_site_all0(matryoshka_time())
    fidelity = abs(np.vdot(target, state.amplitudes))
    elapsed = time.perf_counter() - start
    print(f"criterion 1: fidelity to |1>2 Psi-13 = {fidelity:.15f}, {elapsed:.3f}s")
    assert fidelity >= 1 - 1e-10
    assert elapsed < 1.0


def test_criterion_02_seven_site_pairs_and_central_spin():
    start = time.perf_counter()
    state = evolved_state(7)
    values = {}
    for pair in ((1, 7), (3, 5), (2, 6)):
        values[pair] = concurrence(reduced_density(state, pair))
    central_purity = float(
        np.real(np.trace(np.linalg.matrix_power(reduced_density(state, (4,)).matrix, 2)))
    )
    elapsed = time.perf_counter() - start
    print(f"criterion 2: concurrences {values}, central purity {central_purity:.15f}, {elapsed:.3f}s")
    for pair, value in values.items():
        assert value >= 1 - 1e-8, f"pair {pair}"
    assert central_purity >= 1 - 1e-10
    assert elapsed < 1.0


def test_criterion_03_five_site_generalization():
    start = time.perf_counter()
    state = evolved_state(5)
    values = {}
    for pair in ((1, 5), (2, 4)):
        values[pair] = concurrence(reduced_density(state, pair))
    elapsed = time.perf_counter() - start
    print(f"criterion 3: concurrences {values}, {elapsed:.3f}s")
    for pair, value in values.items():
        assert value >= 1 - 1e-8, f"pair {pair}"
    assert elapsed < 1.0


def test_criterion_04_operator_flow_matches_z_strings():
    start = time.perf_counter()
    t_star = matryoshka_time()
    three = {(m.pair_index, m.kind): m for m in flux_check(ChainSpec(3, 1.0), t_star)}
    xx = three[(1, "XX")]
    yy = three[(1, "YY")]
    assert xx.z_sites == (1, 2) and xx.sign == -1 and xx.residual < 1e-9
    assert yy.z_sites == (2, 3) and yy.sign == -1 and yy.residual < 1e-9
    for n in (5, 7):
        for match in flux_check(ChainSpec(n, 1.0), t_star):
            assert match.matched, (n, match.pair_index, match.kind)
            assert match.residual < 1e-9, (n, match.pair_index, match.kind)
            assert match.sign == mirror_pair_sign(n, match.pair_index)
    elapsed = time.perf_counter() - start
    print(f"criterion 4: all pair operators match signed Z-strings, {elapsed:.3f}s")
    assert elapsed < 30.0


def test_criterion_05_field_robustness_sweep():
    start = time.perf_counter()
    results = field_sweep(ChainSpec(3), grid_points=21, b3_ratios=(0.0, 0.05, 0.1))
    elapsed = time.perf_counter() - start
    total_points = sum(len(r.grid) for r in results)
    worst = min(r.min_fidelity for r in results)
    origin = results[0].grid[0][2]
    print(f"criterion 5: {total_points} points, min F {worst:.12f}, origin {origin:.15f}, {elapsed:.3f}s")
    assert total_points == 1323
    assert worst > 0.99
    assert abs(origin - 1.0) < 1e-10
    assert elapsed < 10.0


def test_criterion_06_reference_operating_point():
    start = time.perf_counter()
    fidelity = reference_point_fidelity()
    elapsed = time.perf_counter() - start
    print(f"criterion 6: F = {fidelity:.12f}, {elapsed:.3f}s")
    assert abs(fidelity - 0.998) <= 0.002
    assert elapsed < 1.0


def test_criterion_07_ghz_protocol():
    start = time.perf_counter()
    values = {}
    for n in (3, 5, 7):
        values[n] = ghz_protocol(ChainSpec(n)).ghz_fidelity
    elapsed = time.perf_counter() - start
    print(f"criterion 7: GHZ fidelities {values}, {elapsed:.3f}s")
    for n, value in values.items():
        assert value >= 1 - 1e-8, f"N={n}"
    assert elapsed < 5.0


def test_criterion_08_conveyor_belt():
    start = time.perf_counter()
    records = conveyor_run(ChainSpec(7), 4)
    elapsed = time.perf_counter() - start
    classes = [r.chain_class for r in records]
    concurrences = [r.extraction_concurrence for r in records]
    print(f"criterion 8: concurrences {concurrences}, classes {[c.value for c in classes]}, {elapsed:.3f}s")
    assert len(records) == 4
    for value in concurrences:
        assert value >= 1 - 1e-8
    assert classes == [
        ChainClass.MATRYOSHKA_LIKE,
        ChainClass.Z_BASIS_SEPARABLE,
        ChainClass.MATRYOSHKA_LIKE,
        ChainClass.Z_BASIS_SEPARABLE,
    ]
    assert elapsed < 5.0


def test_criterion_09_revival_to_product_state():
    t_star = matryoshka_time()
    values = {}
    for n in (3, 5, 7):
        propagator = Propagator(build_hamiltonian(ChainSpec(n)))
        matryoshka = propagator.evolve(StateVector.zero_state(n), t_star)
        revived = propagator.evolve(matryoshka, t_star)
        values[n] = float(np.max(np.abs(revived.amplitudes)))
    print(f"criterion 9: max basis overlap after 2 t* {values}")
    for n, value in values.items():
        assert value >= 1 - 1e-9, f"N={n}"


def test_criterion_10_property_suites():
    rng = np.random.default_rng(424242)

    # norm conservation within 1e-10
    for n in (3, 5, 7):
        propagator = Propagator(build_hamiltonian(random_custom_spec(rng, n)))
        for _ in range(3):
            out = propagator.evolve(random_state(rng, n), float(rng.uniform(-4, 4)))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10

    # energy conservation within 1e-9
    for n in (3, 5):
        h = build_hamiltonian(random_custom_spec(rng, n))
        propagator = Propagator(h)
        state = random_state(rng, n)
        before = np.vdot(state.amplitudes, h.apply(state.amplitudes)).real
        evolved = propagator.evolve(state, 2.31)
        after = np.vdot(evolved.amplitudes, h.apply(evolved.amplitudes)).real
        assert abs(before - after) < 1e-9

    # eigendecomposition vs Krylov within 1e-8 for N <= 10
    for n in (3, 7, 9):
        h = build_hamiltonian(random_custom_spec(rng, n))
        state = random_state(rng, n)
        t = float(rng.uniform(0.3, 2.5))
        eager = Propagator(h, method="eigen").evolve(state, t)
        lazy = Propagator(h, method="krylov").evolve(state, t)
        assert np.linalg.norm(eager.amplitudes - lazy.amplitudes) < 1e-8, f"N={n}"

    # the dense reference vs the propagator within 1e-9 on 50 randomized cases:
    # test_oracle.py::test_oracle_vs_propagator_random_cases

    # concurrence is invariant under local unitaries within 1e-9
    for _ in range(10):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho).real
        u1, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u2, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        local = np.kron(u1, u2)
        assert concurrence(local @ rho @ local.conj().T) == pytest.approx(
            concurrence(rho), abs=1e-9
        )

    # the alternating pattern does not conserve total Z
    for n in (3, 5, 7):
        h = build_hamiltonian(ChainSpec(n)).dense()
        total_z = sum(
            np.diag([(-1.0) ** ((k >> (s - 1)) & 1) for k in range(1 << n)])
            for s in range(1, n + 1)
        ).astype(complex)
        commutator = h @ total_z - total_z @ h
        assert np.linalg.norm(commutator) > 1.0, f"N={n}"


def test_matryoshka_verification_full_report():
    # companion detail for criteria 1-3: the schedule-driven scorecard
    for n in (3, 5, 7):
        report = verify_matryoshka(evolved_state(n), bell_schedule(n))
        assert report.global_fidelity >= 1 - 1e-10
        assert report.central_purity >= 1 - 1e-10
        for pair in report.pair_reports:
            assert pair.concurrence >= 1 - 1e-8
            assert pair.bell_fidelity >= 1 - 1e-8
