"""The dense reference layer of ``_reference`` and the oracle's contract.

``bellchain.oracle.dense_expm_evolve`` serves the benchmark's checks;
this is the one test module that imports it, and it holds the oracle
against the package-free reference routes.
"""

import numpy as np
import pytest

from bellchain import (
    ChainSpec,
    PauliString,
    Pattern,
    Propagator,
    StateVector,
    ValidationError,
    build_hamiltonian,
    heisenberg_evolve,
    matryoshka_time,
)
from bellchain.oracle import dense_expm_evolve
from _helpers import random_custom_spec, random_state
from _reference import (
    basis_vec,
    chain_hamiltonian,
    closed_form_three_site_all0,
    closed_form_three_site_unitary,
    couplings,
    evolve_dense,
    exhaustive_pauli_decompose,
    letters_dense,
    spec_hamiltonian,
    t_star_unitary,
)


def test_evolved_states_still_match_frozen_reference():
    # against the test-side dense route: |0..0> at t* and 2t*, |111> at 2t*
    t_star = matryoshka_time()
    cases = [(n, 0, periods) for n in (3, 5, 7) for periods in (1, 2)] + [(3, 0b111, 2)]
    for n, start_index, periods in cases:
        reference = basis_vec(n, start_index)
        for _ in range(periods):
            reference = t_star_unitary(n) @ reference
        start = StateVector(basis_vec(n, start_index))
        state = Propagator(build_hamiltonian(ChainSpec(n))).evolve(start, periods * t_star)
        assert np.linalg.norm(state.amplitudes - reference) < 1e-8, (n, start_index, periods)


def test_dense_hamiltonian_matches_terms():
    # the reference reads the spec's numbers; the library assembles Pauli-string terms
    rng = np.random.default_rng(6)
    specs = (
        ChainSpec(5, fields_b=(0.1, 0.2, 0.3, 0.4, 0.5)),
        ChainSpec(5, 1.7, Pattern.PERFECT_TRANSFER, (0.3, 0.0, -0.2, 0.0, 0.1)),
        random_custom_spec(rng, 5),
    )
    for spec in specs:
        np.testing.assert_allclose(
            spec_hamiltonian(spec), build_hamiltonian(spec).dense(), rtol=0, atol=1e-12
        )


def test_dense_expm_evolve_identity_at_zero_time():
    rng = np.random.default_rng(12)
    state = random_state(rng, 3)
    h = build_hamiltonian(ChainSpec(3))
    out = dense_expm_evolve(h, state, 0.0)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)


def test_dense_expm_evolve_site_cap():
    with pytest.raises(ValidationError):
        dense_expm_evolve(build_hamiltonian(ChainSpec(11)), StateVector.zero_state(11), 0.1)


def test_oracle_vs_propagator_random_cases():
    # 50 random (H, v, t) cases: the propagator within 1e-9 of the reference built
    # from the spec's numbers, and the oracle the benchmark checks with within 1e-12
    rng = np.random.default_rng(2024)
    for case in range(50):
        n = int(rng.choice((3, 5, 7)))
        spec = random_custom_spec(rng, n)
        h = build_hamiltonian(spec)
        state = random_state(rng, n)
        t = float(rng.uniform(-3.0, 3.0))
        reference = evolve_dense(spec_hamiltonian(spec), state.amplitudes, t)
        fast = Propagator(h).evolve(state, t)
        oracle = dense_expm_evolve(h, state, t)
        assert np.linalg.norm(fast.amplitudes - reference) < 1e-9, f"case {case}"
        assert np.linalg.norm(oracle.amplitudes - reference) < 1e-12, f"case {case}"


def test_closed_form_unitary_matches_expm():
    h = chain_hamiltonian(*couplings(3))
    for t in (0.0, 0.3, matryoshka_time(), 2.0):
        w, v = np.linalg.eigh(h)
        direct = v @ np.diag(np.exp(-1j * w * t)) @ v.conj().T
        np.testing.assert_allclose(
            closed_form_three_site_unitary(t), direct, atol=1e-12
        )


def test_closed_form_three_site_state():
    # U(t*)|000> = -i |1>_2 Psi-_13: amplitude +i/sqrt(2) on |110>,
    # -i/sqrt(2) on |011> (site-ordered labels)
    state = closed_form_three_site_all0(matryoshka_time())
    expected = np.zeros(8, dtype=complex)
    expected[0b011] = 1j / np.sqrt(2)   # sites 1,2 up
    expected[0b110] = -1j / np.sqrt(2)  # sites 2,3 up
    np.testing.assert_allclose(state, expected, atol=1e-12)


def test_closed_form_matches_propagator_everywhere():
    rng = np.random.default_rng(77)
    propagator = Propagator(build_hamiltonian(ChainSpec(3)))
    for _ in range(10):
        t = float(rng.uniform(0.0, 6.0))
        state = random_state(rng, 3)
        via_closed_form = closed_form_three_site_unitary(t) @ state.amplitudes
        via_propagator = propagator.evolve(state, t)
        assert np.linalg.norm(via_closed_form - via_propagator.amplitudes) < 1e-10


def test_half_period_returns_minus_identity():
    np.testing.assert_allclose(
        closed_form_three_site_unitary(2 * matryoshka_time()), -np.eye(8), atol=1e-12
    )


def test_exhaustive_decompose_z_string():
    terms = exhaustive_pauli_decompose(letters_dense("ZZI"))
    assert len(terms) == 1
    coefficient, letters = terms[0]
    assert letters == "ZZI"
    assert coefficient == pytest.approx(1.0)


def test_exhaustive_decompose_hadamard():
    terms = exhaustive_pauli_decompose(letters_dense("HI"))  # Hadamard on site 1 of 2
    as_map = {letters: coefficient for coefficient, letters in terms}
    assert set(as_map) == {"XI", "ZI"}
    assert as_map["XI"] == pytest.approx(1 / np.sqrt(2))
    assert as_map["ZI"] == pytest.approx(1 / np.sqrt(2))


def test_exhaustive_decompose_closed_form_flux():
    # third route for the N=3 flux identity: dense traces of the expm route
    # and of the library's heisenberg_evolve
    u = t_star_unitary(3)
    hamiltonian = build_hamiltonian(ChainSpec(3))
    for word, expected in (("XIX", "ZZI"), ("YIY", "IZZ")):
        for evolved in (
            u.conj().T @ letters_dense(word) @ u,
            heisenberg_evolve(hamiltonian, PauliString.from_letters(word), matryoshka_time()),
        ):
            terms = exhaustive_pauli_decompose(evolved)
            assert len(terms) == 1, word
            coefficient, letters = terms[0]
            assert letters == expected
            assert coefficient == pytest.approx(-1.0, abs=1e-12)


def test_exhaustive_decompose_reconstructs():
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    terms = exhaustive_pauli_decompose(matrix)
    rebuilt = sum(c * letters_dense(letters) for c, letters in terms)
    assert np.max(np.abs(rebuilt - matrix)) < 1e-10


def test_exhaustive_decompose_site_cap():
    with pytest.raises(ValueError, match="5 sites"):
        exhaustive_pauli_decompose(np.eye(1 << 6, dtype=complex))
