import math

import numpy as np
import pytest
import scipy.linalg

from bellchain import (
    ChainSpec,
    DimensionMismatchError,
    HamiltonianTerms,
    Pattern,
    PauliString,
    Propagator,
    StateVector,
    ValidationError,
    all_pauli_strings,
    build_hamiltonian,
    heisenberg_evolve,
    matryoshka_time,
    pauli_coefficients,
)
from bellchain.oracle import dense_expm_evolve
from _helpers import random_custom_spec, random_state


def test_matryoshka_time_scales_inversely():
    assert matryoshka_time(1.0) == pytest.approx(math.pi / 4)
    assert matryoshka_time(2.0) == pytest.approx(math.pi / 8)
    with pytest.raises(ValidationError):
        matryoshka_time(0.0)


def test_zero_time_is_identity():
    rng = np.random.default_rng(0)
    state = random_state(rng, 5)
    propagator = Propagator(build_hamiltonian(ChainSpec(5)))
    out = propagator.evolve(state, 0.0)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)


def test_norm_conservation():
    rng = np.random.default_rng(1)
    propagator = Propagator(build_hamiltonian(ChainSpec(7, fields_b=(0.3,) * 7)))
    for t in (0.1, 1.0, 17.3):
        out = propagator.evolve(random_state(rng, 7), t)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


def test_energy_conservation():
    rng = np.random.default_rng(2)
    h = build_hamiltonian(ChainSpec(5, fields_b=(0.2,) * 5))
    propagator = Propagator(h)
    state = random_state(rng, 5)
    before = np.vdot(state.amplitudes, h.apply(state.amplitudes)).real
    evolved = propagator.evolve(state, 3.7)
    after = np.vdot(evolved.amplitudes, h.apply(evolved.amplitudes)).real
    assert abs(before - after) < 1e-9


def test_composition():
    rng = np.random.default_rng(3)
    propagator = Propagator(build_hamiltonian(ChainSpec(5)))
    state = random_state(rng, 5)
    one_shot = propagator.evolve(state, 1.1)
    stepped = propagator.evolve(propagator.evolve(state, 0.4), 0.7)
    np.testing.assert_allclose(one_shot.amplitudes, stepped.amplitudes, atol=1e-10)


def test_negative_time_inverts():
    rng = np.random.default_rng(4)
    propagator = Propagator(build_hamiltonian(ChainSpec(3, fields_b=(0.1, 0.2, 0.3))))
    state = random_state(rng, 3)
    back = propagator.evolve(propagator.evolve(state, 0.9), -0.9)
    np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-10)


def test_eigen_vs_krylov_agreement():
    # random custom couplings and fields; eigen against Krylov and the dense expm oracle
    rng = np.random.default_rng(5)
    for n in (3, 5, 7, 9):
        spec = random_custom_spec(rng, n)
        h = build_hamiltonian(spec)
        state = random_state(rng, n)
        t = float(rng.uniform(0.2, 4.0))
        eager = Propagator(h, method="eigen").evolve(state, t)
        lazy = Propagator(h, method="krylov").evolve(state, t)
        reference = dense_expm_evolve(h, state, t)
        assert np.linalg.norm(eager.amplitudes - lazy.amplitudes) < 1e-8
        assert np.linalg.norm(eager.amplitudes - reference.amplitudes) < 1e-11


def _terms(n_sites: int, *weighted: tuple[float, str]) -> HamiltonianTerms:
    return HamiltonianTerms(
        n_sites, tuple((w, PauliString.from_letters(letters)) for w, letters in weighted)
    )


# (terms, number of parity blocks, eigenvector dtype)
_HAND_BUILT = [
    # one spin flip and an imaginary Y: neither parity-conserving nor real
    (_terms(3, (0.7, "XII"), (0.4, "IYI"), (0.3, "ZZZ")), 1, np.complex128),
    # one spin flip but real entries
    (_terms(3, (0.7, "XII"), (0.5, "IZI")), 1, np.float64),
    # parity-conserving but imaginary (XY - YX is a Dzyaloshinskii-Moriya bond)
    (_terms(3, (0.6, "XYI"), (-0.6, "YXI"), (0.9, "IXX"), (0.2, "ZII")), 2, np.complex128),
]


@pytest.mark.parametrize("h, n_blocks, dtype", _HAND_BUILT)
def test_eigen_blocks_follow_the_terms(h, n_blocks, dtype):
    rng = np.random.default_rng(11)
    eager = Propagator(h, method="eigen")
    assert len(eager._blocks) == n_blocks
    assert sorted(np.concatenate([idx for idx, _, _ in eager._blocks])) == list(range(8))
    assert all(v.dtype == dtype for _, _, v in eager._blocks)
    state = random_state(rng, 3)
    for t in (0.3, -1.7, 4.2):
        reference = dense_expm_evolve(h, state, t).amplitudes
        lazy = Propagator(h, method="krylov").evolve(state, t).amplitudes
        np.testing.assert_allclose(eager.evolve(state, t).amplitudes, reference, atol=1e-12)
        np.testing.assert_allclose(lazy, reference, atol=1e-8)
    pauli = PauliString.from_letters("XIY")
    matrix, _ = heisenberg_evolve(h, pauli, 0.8)
    u = scipy.linalg.expm(-0.8j * h.dense())
    np.testing.assert_allclose(matrix, u.conj().T @ pauli.dense() @ u, atol=1e-12)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_chain_hamiltonians_split_into_two_real_parity_blocks(n):
    rng = np.random.default_rng(n)
    specs = [
        ChainSpec(n),
        ChainSpec(n, pattern=Pattern.PERFECT_TRANSFER),
        ChainSpec(n, fields_b=tuple(rng.uniform(-1.0, 1.0, size=n))),
        ChainSpec(n, 2.5, Pattern.PERFECT_TRANSFER, tuple(rng.uniform(-1.0, 1.0, size=n))),
        random_custom_spec(rng, n),
    ]
    half = 1 << (n - 1)
    for spec in specs:
        blocks = Propagator(build_hamiltonian(spec), method="eigen")._blocks
        assert len(blocks) == 2
        for (idx, w, v), parity in zip(blocks, (0, 1)):
            assert idx.shape == (half,) and w.shape == (half,) and v.shape == (half, half)
            assert w.dtype == np.float64 and v.dtype == np.float64
            assert all(int(i).bit_count() % 2 == parity for i in idx)


def test_auto_method_picks_eigen_for_small_chains():
    propagator = Propagator(build_hamiltonian(ChainSpec(3)))
    assert propagator.method == "eigen"


def test_method_validation():
    h = build_hamiltonian(ChainSpec(3))
    with pytest.raises(ValidationError):
        Propagator(h, method="magic")
    with pytest.raises(ValidationError):
        Propagator(h, tolerance=0.0)
    with pytest.raises(ValidationError):
        Propagator(h, max_subspace=1)


def test_eigen_refuses_large_chains():
    with pytest.raises(ValidationError):
        Propagator(build_hamiltonian(ChainSpec(13)), method="eigen")


def test_dimension_guard():
    propagator = Propagator(build_hamiltonian(ChainSpec(5)))
    with pytest.raises(DimensionMismatchError):
        propagator.evolve(StateVector.zero_state(3), 1.0)


def test_evolve_composes():
    propagator = Propagator(build_hamiltonian(ChainSpec(3)))
    state = StateVector.zero_state(3)
    t = matryoshka_time()
    twice = propagator.evolve(propagator.evolve(state, t), t)
    np.testing.assert_allclose(
        twice.amplitudes, propagator.evolve(state, 2 * t).amplitudes, atol=1e-12
    )


def test_krylov_handles_product_start():
    # happy breakdown: the all-down state has tiny Krylov depth at N=3
    propagator = Propagator(build_hamiltonian(ChainSpec(3)), method="krylov")
    out = propagator.evolve(StateVector.zero_state(3), matryoshka_time())
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_all_pauli_strings_order():
    strings = all_pauli_strings(3)
    assert len(strings) == 64
    assert strings[0].letters == "III"
    assert strings[1].letters == "XII"  # site 1 varies fastest
    assert strings[4].letters == "IXI"
    assert len({s.letters for s in strings}) == 64


def test_pauli_coefficients_identity():
    matrix = 0.5 * PauliString.from_letters("XXI").dense()
    coefficients = pauli_coefficients(matrix, all_pauli_strings(3))
    assert len(coefficients) == 1
    value, string = coefficients[0]
    assert string.letters == "XXI"
    assert value == pytest.approx(0.5)


def test_pauli_coefficients_dimension_guard():
    matrix = np.eye(8, dtype=complex)
    with pytest.raises(DimensionMismatchError):
        pauli_coefficients(matrix, [PauliString.from_letters("XX")])


def test_heisenberg_identity_is_fixed_point():
    h = build_hamiltonian(ChainSpec(3))
    matrix, coefficients = heisenberg_evolve(h, PauliString.identity(3), 0.77)
    np.testing.assert_allclose(matrix, np.eye(8), atol=1e-12)
    assert [(c, s.letters) for c, s in coefficients] == [(pytest.approx(1.0), "III")]


def test_heisenberg_closed_form_n3():
    # the X1 X3 pair operator lands on -Z1 Z2 at t*
    h = build_hamiltonian(ChainSpec(3))
    _, coefficients = heisenberg_evolve(h, PauliString.from_letters("XIX"), matryoshka_time())
    assert len(coefficients) == 1
    value, string = coefficients[0]
    assert string.letters == "ZZI"
    assert value == pytest.approx(-1.0, abs=1e-12)


def test_heisenberg_site_limits():
    with pytest.raises(ValidationError):
        heisenberg_evolve(build_hamiltonian(ChainSpec(9)), PauliString.identity(9), 0.1)
    h7 = build_hamiltonian(ChainSpec(7))
    with pytest.raises(ValidationError):
        heisenberg_evolve(h7, PauliString.identity(7), 0.1)  # exhaustive needs N <= 5
    candidates = [PauliString.identity(7)]
    matrix, coefficients = heisenberg_evolve(h7, PauliString.identity(7), 0.1, candidates)
    assert coefficients[0][0] == pytest.approx(1.0)


def test_reconstruction_from_coefficients():
    rng = np.random.default_rng(8)
    h = build_hamiltonian(ChainSpec(3, fields_b=(0.1, -0.4, 0.2)))
    matrix, coefficients = heisenberg_evolve(h, PauliString.from_letters("YIY"), 0.6)
    rebuilt = sum(c * s.dense() for c, s in coefficients)
    np.testing.assert_allclose(rebuilt, matrix, atol=1e-10)
