import math

import numpy as np
import pytest
import scipy.linalg

from bellchain import (
    BellchainError,
    ChainSpec,
    ConvergenceError,
    DimensionMismatchError,
    HamiltonianTerms,
    Pattern,
    PauliString,
    Propagator,
    StateVector,
    ValidationError,
    build_hamiltonian,
    heisenberg_evolve,
    matryoshka_time,
)
import bellchain.evolve
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
    np.testing.assert_allclose(
        h.apply(state.amplitudes), h.dense() @ state.amplitudes, rtol=0, atol=1e-12
    )
    for t in (0.3, -1.7, 4.2):
        reference = dense_expm_evolve(h, state, t).amplitudes
        lazy = Propagator(h, method="krylov").evolve(state, t).amplitudes
        np.testing.assert_allclose(eager.evolve(state, t).amplitudes, reference, atol=1e-12)
        np.testing.assert_allclose(lazy, reference, atol=1e-8)
    pauli = PauliString.from_letters("XIY")
    matrix = heisenberg_evolve(h, pauli, 0.8)
    u = scipy.linalg.expm(-0.8j * h.dense())
    np.testing.assert_allclose(matrix, u.conj().T @ pauli.dense() @ u, atol=1e-12)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_apply_matches_dense_with_fields(n):
    rng = np.random.default_rng(100 + n)
    for spec in (random_custom_spec(rng, n), ChainSpec(n, 1.3, Pattern.PERFECT_TRANSFER)):
        h = build_hamiltonian(spec)
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        np.testing.assert_allclose(h.apply(v), h.dense() @ v, rtol=0, atol=1e-12)


def _count_applies(monkeypatch) -> list[int]:
    calls = [0]
    original = HamiltonianTerms.apply

    def counted(self, amplitudes):
        calls[0] += 1
        return original(self, amplitudes)

    monkeypatch.setattr(HamiltonianTerms, "apply", counted)
    return calls


def test_krylov_matches_independent_routes_backwards_in_time():
    rng = np.random.default_rng(13)
    for n in (9, 11):
        h = build_hamiltonian(random_custom_spec(rng, n))
        state = random_state(rng, n)
        t = float(-rng.uniform(0.5, 2.0))
        # the dense expm oracle stops at 10 sites; at 11 the exact eigen route stands in
        if n < 11:
            expected = dense_expm_evolve(h, state, t)
        else:
            expected = Propagator(h, method="eigen").evolve(state, t)
        lazy = Propagator(h, method="krylov").evolve(state, t)
        assert np.linalg.norm(lazy.amplitudes - expected.amplitudes) < 1e-9


def test_krylov_shrinks_the_step_when_the_full_basis_fails(monkeypatch):
    rng = np.random.default_rng(14)
    h = build_hamiltonian(random_custom_spec(rng, 7))
    state = random_state(rng, 7)
    calls = _count_applies(monkeypatch)
    for t in (4.0, -4.0):
        lazy = Propagator(h, method="krylov", max_subspace=8).evolve(state, t)
        reference = dense_expm_evolve(h, state, t)
        assert np.linalg.norm(lazy.amplitudes - reference.amplitudes) < 1e-8
    # eight vectors cannot carry t = 4 in one step, nor in a few
    assert calls[0] > 2 * 10 * 8


def test_krylov_gives_up_promptly(monkeypatch):
    h = build_hamiltonian(ChainSpec(5))
    propagator = Propagator(h, method="krylov", tolerance=1e-300, max_subspace=2)
    calls = _count_applies(monkeypatch)
    with pytest.raises(ConvergenceError):
        propagator.evolve(StateVector.zero_state(5), 1.0)
    # the step shrinks on the first basis until it falls below t / 2^20
    assert calls[0] == 2


def test_krylov_stops_at_the_first_converged_basis(monkeypatch):
    # a full 40-vector basis was built for every step before the early exit
    propagator = Propagator(build_hamiltonian(ChainSpec(13)), method="krylov")
    calls = _count_applies(monkeypatch)
    propagator.evolve(StateVector.zero_state(13), matryoshka_time())
    assert 0 < calls[0] < 40


def test_krylov_basis_must_fit_in_memory(monkeypatch):
    with pytest.raises(ValidationError, match="physical memory"):
        Propagator(build_hamiltonian(ChainSpec(31)), method="krylov")
    # 40 vectors of 2^13 complex amplitudes: exactly at the limit passes, a byte less fails
    need = 40 * (1 << 13) * 16
    h = build_hamiltonian(ChainSpec(13))
    for pages, fits in ((need, True), (need - 1, False)):
        sizes = {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(bellchain.evolve.os, "sysconf", sizes.__getitem__)
        if fits:
            Propagator(h, method="krylov")
        else:
            with pytest.raises(ValidationError):
                Propagator(h, method="krylov")


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method", ["eigen", "krylov"])
def test_overflowing_evolution_raises(method):
    # J ~ 1e308 overflows inside the eigendecomposition or the Lanczos basis
    propagator = Propagator(build_hamiltonian(ChainSpec(3, 1e308)), method=method)
    with pytest.raises(BellchainError, match="overflowed") as excinfo:
        propagator.evolve(StateVector.zero_state(3), 0.5)
    assert not isinstance(excinfo.value, ValidationError)  # a result fault, not an input one


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_heisenberg_evolution_raises():
    hamiltonian = build_hamiltonian(ChainSpec(3, 1e308))
    with pytest.raises(BellchainError, match="overflowed") as excinfo:
        heisenberg_evolve(hamiltonian, PauliString.from_letters("XIX"), 0.5)
    assert not isinstance(excinfo.value, ValidationError)


def test_krylov_handles_product_start():
    # happy breakdown: the all-down state has tiny Krylov depth at N=3
    propagator = Propagator(build_hamiltonian(ChainSpec(3)), method="krylov")
    out = propagator.evolve(StateVector.zero_state(3), matryoshka_time())
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_heisenberg_identity_is_fixed_point():
    h = build_hamiltonian(ChainSpec(3))
    matrix = heisenberg_evolve(h, PauliString.identity(3), 0.77)
    np.testing.assert_allclose(matrix, np.eye(8), atol=1e-12)


def test_heisenberg_closed_form_n3():
    # the X1 X3 pair operator lands on -Z1 Z2 at t*
    h = build_hamiltonian(ChainSpec(3))
    matrix = heisenberg_evolve(h, PauliString.from_letters("XIX"), matryoshka_time())
    np.testing.assert_allclose(matrix, -PauliString.from_letters("ZZI").dense(), atol=1e-12)


def test_heisenberg_site_limits():
    with pytest.raises(ValidationError):
        heisenberg_evolve(build_hamiltonian(ChainSpec(9)), PauliString.identity(9), 0.1)


def test_reconstruction_from_coefficients():
    h = build_hamiltonian(ChainSpec(3, fields_b=(0.1, -0.4, 0.2)))
    pauli = PauliString.from_letters("YIY")
    matrix = heisenberg_evolve(h, pauli, 0.6)
    u = scipy.linalg.expm(-0.6j * h.dense())
    np.testing.assert_allclose(matrix, u.conj().T @ pauli.dense() @ u, atol=1e-12)
