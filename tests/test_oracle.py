import numpy as np
import pytest

from bellchain import (
    ChainSpec,
    PauliString,
    Propagator,
    StateVector,
    ValidationError,
    build_hamiltonian,
    matryoshka_time,
)
from bellchain.oracle import (
    OracleReport,
    closed_form_three_site_all0,
    closed_form_three_site_unitary,
    compare_scalars,
    compare_states,
    dense_expm_evolve,
    dense_hamiltonian,
    dense_pauli,
    exhaustive_pauli_decompose,
    state_discrepancy,
)
from _helpers import random_custom_spec, random_state, unpack_complex


def test_fixture_gate_all_cases_below_tolerance(oracle_cases):
    # the build gate: both routes agree on every recorded case
    assert len(oracle_cases) >= 25
    for case_id, case in oracle_cases.items():
        assert case["discrepancy"] < 1e-8, f"{case_id} drifted: {case['discrepancy']}"


def test_evolved_states_still_match_frozen_reference(oracle_cases):
    for n in (3, 5, 7):
        for case_id, t in (
            (f"n{n}_matryoshka_state", matryoshka_time()),
            (f"n{n}_revival_all0", 2 * matryoshka_time()),
        ):
            reference = unpack_complex(oracle_cases[case_id]["reference_value"])
            state = Propagator(build_hamiltonian(ChainSpec(n))).evolve(
                StateVector.zero_state(n), t
            )
            assert np.linalg.norm(state.amplitudes - reference) < 1e-8, case_id


def test_dense_hamiltonian_matches_terms():
    h = build_hamiltonian(ChainSpec(5, fields_b=(0.1, 0.2, 0.3, 0.4, 0.5)))
    np.testing.assert_allclose(dense_hamiltonian(h), h.dense(), atol=1e-12)


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
    # the oracle contract: 50 random (H, v, t) cases agree within 1e-9
    rng = np.random.default_rng(2024)
    for case in range(50):
        n = int(rng.choice((3, 5, 7)))
        spec = random_custom_spec(rng, n)
        h = build_hamiltonian(spec)
        state = random_state(rng, n)
        t = float(rng.uniform(-3.0, 3.0))
        fast = Propagator(h).evolve(state, t)
        slow = dense_expm_evolve(h, state, t)
        assert np.linalg.norm(fast.amplitudes - slow.amplitudes) < 1e-9, f"case {case}"


def test_closed_form_unitary_matches_expm():
    h = dense_hamiltonian(build_hamiltonian(ChainSpec(3)))
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
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


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
    matrix = dense_pauli(PauliString.from_letters("ZZI"))
    terms = exhaustive_pauli_decompose(matrix)
    assert len(terms) == 1
    coefficient, string = terms[0]
    assert string.letters == "ZZI"
    assert coefficient == pytest.approx(1.0)


def test_exhaustive_decompose_hadamard():
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    matrix = np.kron(np.eye(2), hadamard)  # Hadamard on site 1 of 2
    terms = exhaustive_pauli_decompose(matrix)
    as_map = {string.letters: coefficient for coefficient, string in terms}
    assert set(as_map) == {"XI", "ZI"}
    assert as_map["XI"] == pytest.approx(1 / np.sqrt(2))
    assert as_map["ZI"] == pytest.approx(1 / np.sqrt(2))


def test_exhaustive_decompose_closed_form_flux():
    # third route for the N=3 flux identity: expm + dense traces
    from scipy.linalg import expm

    h = dense_hamiltonian(build_hamiltonian(ChainSpec(3)))
    u = expm(-1j * matryoshka_time() * h)
    evolved = u.conj().T @ dense_pauli(PauliString.from_letters("XIX")) @ u
    terms = exhaustive_pauli_decompose(evolved)
    assert len(terms) == 1
    coefficient, string = terms[0]
    assert string.letters == "ZZI"
    assert coefficient == pytest.approx(-1.0, abs=1e-12)


def test_exhaustive_decompose_reconstructs():
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    terms = exhaustive_pauli_decompose(matrix)
    rebuilt = sum(c * dense_pauli(s) for c, s in terms)
    assert np.max(np.abs(rebuilt - matrix)) < 1e-10


def test_exhaustive_decompose_site_cap():
    with pytest.raises(ValidationError):
        exhaustive_pauli_decompose(np.eye(1 << 6, dtype=complex))


def test_heisenberg_terms_match_exhaustive_route(oracle_cases):
    # stored reference decompositions were computed with dense traces
    for case_id, letters in (("n3_heisenberg_xx", "ZZI"), ("n3_heisenberg_yy", "IZZ")):
        reference = oracle_cases[case_id]["reference_value"]
        assert len(reference) == 1
        assert reference[0]["letters"] == letters
        assert reference[0]["re"] == pytest.approx(-1.0, abs=1e-12)
        assert reference[0]["im"] == pytest.approx(0.0, abs=1e-12)


def test_report_comparisons():
    a = StateVector.zero_state(3)
    report = compare_states("same", a, a)
    assert report.discrepancy == 0.0
    payload = report.to_json_dict()
    assert payload["case_id"] == "same"
    assert payload["reference_value"][0] == [1.0, 0.0]
    scalar = compare_scalars("scalars", 1.0, 1.0 - 5e-9)
    assert scalar.discrepancy == pytest.approx(5e-9)
    assert isinstance(scalar, OracleReport)


def test_state_discrepancy_is_phase_blind():
    state = StateVector.zero_state(5)
    rotated = StateVector(state.amplitudes * np.exp(1.3j))
    assert state_discrepancy(state, rotated) == pytest.approx(0.0, abs=1e-15)
