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
    gate_apply,
    heisenberg_evolve,
    matryoshka_time,
)
import bellchain.evolve
from _helpers import random_custom_spec, random_state
from _reference import evolve_dense, letters_dense, spec_hamiltonian, terms_hamiltonian


def test_matryoshka_time_scales_inversely():
    assert matryoshka_time(1.0) == pytest.approx(math.pi / 4)
    assert matryoshka_time(2.0) == pytest.approx(math.pi / 8)
    with pytest.raises(ValidationError):
        matryoshka_time(0.0)
    with pytest.raises(ValidationError):
        matryoshka_time(1e308)  # 4 lam overflows, so t* would underflow to 0
    with pytest.raises(ValidationError, match="coupling scale"):
        matryoshka_time(1e-320)  # pi/(4 lam) overflows to inf


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
    # random custom couplings and fields; eigen against Krylov and the dense expm reference
    rng = np.random.default_rng(5)
    for n in (3, 5, 7, 9):
        spec = random_custom_spec(rng, n)
        h = build_hamiltonian(spec)
        state = random_state(rng, n)
        t = float(rng.uniform(0.2, 4.0))
        eager = Propagator(h, method="eigen").evolve(state, t)
        lazy = Propagator(h, method="krylov").evolve(state, t)
        reference = evolve_dense(spec_hamiltonian(spec), state.amplitudes, t)
        assert np.linalg.norm(eager.amplitudes - lazy.amplitudes) < 1e-8
        assert np.linalg.norm(eager.amplitudes - reference) < 1e-11
    # long times on the equally spaced perfect-transfer spectrum and on the matryoshka one,
    # where a Lanczos basis that lost its orthogonality would show
    for n in (9, 11):
        for pattern in (Pattern.PERFECT_TRANSFER, Pattern.MATRYOSHKA_ALTERNATING):
            h = build_hamiltonian(ChainSpec(n, pattern=pattern))
            eigen, krylov = Propagator(h, method="eigen"), Propagator(h, method="krylov")
            state = random_state(rng, n)
            for t in (-31.0, 100.0):
                lazy = krylov.evolve(state, t).amplitudes
                assert np.linalg.norm(eigen.evolve(state, t).amplitudes - lazy) <= 1e-9
                assert abs(np.linalg.norm(lazy) - 1.0) <= 1e-10


# (three-site H as (weight, letters) pairs, number of parity sectors, eigenvector dtype)
_HAND_BUILT = [
    # one spin flip and an imaginary Y: neither parity-conserving nor real
    (((0.7, "XII"), (0.4, "IYI"), (0.3, "ZZZ")), 1, np.complex128),
    # one spin flip but real entries
    (((0.7, "XII"), (0.5, "IZI")), 1, np.float64),
    # parity-conserving but imaginary (XY - YX is a Dzyaloshinskii-Moriya bond)
    (((0.6, "XYI"), (-0.6, "YXI"), (0.9, "IXX"), (0.2, "ZII")), 2, np.complex128),
    # single-site X plus ZZ bonds
    (((0.8, "IXI"), (0.5, "ZZI"), (-0.3, "IZZ")), 1, np.float64),
]


@pytest.mark.parametrize("h, n_sectors, dtype", _HAND_BUILT)
def test_eigen_blocks_follow_the_terms(h, n_sectors, dtype):
    # the library and the reference each build H from the same (weight, letters) pairs
    rng = np.random.default_rng(11)
    reference_h = terms_hamiltonian(3, h)
    h = HamiltonianTerms(3, tuple((w, PauliString.from_letters(letters)) for w, letters in h))
    eager = Propagator(h, method="eigen")
    sectors = h._parity_sectors
    assert len(sectors) == n_sectors
    assert sorted(np.concatenate([idx for idx, _ in sectors])) == list(range(8))
    if n_sectors == 1:
        assert sectors[0][1] is h  # a parity-breaking term list keeps H on the full space
    # each list breaks the parity or has a term that commutes with the chiral map's W
    assert h._chiral_signs is None
    dense = h.dense()
    for idx, sector in sectors:
        assert sector.n_sites == 4 - n_sectors
        np.testing.assert_array_equal(sector.dense(), dense[np.ix_(idx, idx)])
        w, v = sector._eigh
        assert w.dtype == np.float64 and v.dtype == dtype
    np.testing.assert_allclose(dense, reference_h, rtol=0, atol=1e-15)
    state = random_state(rng, 3)
    np.testing.assert_allclose(
        h.apply(state.amplitudes), reference_h @ state.amplitudes, rtol=0, atol=1e-12
    )
    for t in (0.3, -1.7, 4.2):
        reference = evolve_dense(reference_h, state.amplitudes, t)
        lazy = Propagator(h, method="krylov").evolve(state, t).amplitudes
        np.testing.assert_allclose(eager.evolve(state, t).amplitudes, reference, atol=1e-12)
        np.testing.assert_allclose(lazy, reference, atol=1e-9)
    matrix = heisenberg_evolve(h, PauliString.from_letters("XIY"), 0.8)
    u = scipy.linalg.expm(-0.8j * reference_h)
    np.testing.assert_allclose(matrix, u.conj().T @ letters_dense("XIY") @ u, atol=1e-12)


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
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    for n in (9, 11):
        spec = random_custom_spec(rng, n)
        h = build_hamiltonian(spec)
        # both fill the two parity sectors: a random state, and a Hadamard on the middle site
        states = (
            random_state(rng, n),
            gate_apply(StateVector.zero_state(n), (n + 1) // 2, hadamard),
        )
        t = float(-rng.uniform(0.5, 2.0))
        for state in states:
            # the dense expm reference runs to 9 sites; at 11 the exact eigen route stands in
            if n < 11:
                expected = evolve_dense(spec_hamiltonian(spec), state.amplitudes, t)
            else:
                expected = Propagator(h, method="eigen").evolve(state, t).amplitudes
            lazy = Propagator(h, method="krylov").evolve(state, t)
            assert np.linalg.norm(lazy.amplitudes - expected) < 1e-9


def test_krylov_shrinks_the_step_when_the_full_basis_fails(monkeypatch):
    rng = np.random.default_rng(14)
    spec = random_custom_spec(rng, 7)
    h = build_hamiltonian(spec)
    state = random_state(rng, 7)
    monkeypatch.setattr(bellchain.evolve, "_KRYLOV_MAX_SUBSPACE", 8)
    calls = _count_applies(monkeypatch)
    for t in (4.0, -4.0):
        lazy = Propagator(h, method="krylov").evolve(state, t)
        reference = evolve_dense(spec_hamiltonian(spec), state.amplitudes, t)
        assert np.linalg.norm(lazy.amplitudes - reference) < 1e-8
    # eight vectors cannot carry t = 4 in one step, nor in a few
    assert calls[0] > 2 * 10 * 8


def test_tridiagonal_solve_matches_scipy():
    # the Lanczos step's dense eigh of T against scipy's tridiagonal solver
    rng = np.random.default_rng(16)
    for m in range(1, bellchain.evolve._KRYLOV_MAX_SUBSPACE + 1):
        alphas = list(rng.normal(size=m))
        betas = list(rng.uniform(0.05, 2.0, size=m - 1))  # empty for m = 1
        dt = rng.uniform(-3.0, 3.0)
        w, q = bellchain.evolve._tridiagonal_eigh(alphas, betas)
        w_ref, q_ref = scipy.linalg.eigh_tridiagonal(np.array(alphas), np.array(betas))
        np.testing.assert_allclose(
            q @ (np.exp(-1j * w * dt) * q[0]),
            q_ref @ (np.exp(-1j * w_ref * dt) * q_ref[0]),
            rtol=0,
            atol=1e-13,
        )


def test_krylov_tolerance_bounds_the_whole_evolution(monkeypatch):
    # eight vectors need many short steps, whose error estimates must sum to 1e-10
    rng = np.random.default_rng(14)
    spec = random_custom_spec(rng, 7)
    state = random_state(rng, 7)
    monkeypatch.setattr(bellchain.evolve, "_KRYLOV_MAX_SUBSPACE", 8)
    lazy = Propagator(build_hamiltonian(spec), method="krylov").evolve(state, 4.0)
    reference = evolve_dense(spec_hamiltonian(spec), state.amplitudes, 4.0)
    assert np.linalg.norm(lazy.amplitudes - reference) < 1e-10


def test_krylov_gives_up_promptly(monkeypatch):
    monkeypatch.setattr(bellchain.evolve, "_KRYLOV_TOLERANCE", 1e-300)
    monkeypatch.setattr(bellchain.evolve, "_KRYLOV_MAX_SUBSPACE", 2)
    propagator = Propagator(build_hamiltonian(ChainSpec(5)), method="krylov")
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


def test_krylov_evolves_a_definite_parity_on_half_the_amplitudes(monkeypatch):
    sizes = []
    original = HamiltonianTerms.apply

    def recorded(self, amplitudes):
        sizes.append(amplitudes.size)
        return original(self, amplitudes)

    monkeypatch.setattr(HamiltonianTerms, "apply", recorded)
    propagator = Propagator(build_hamiltonian(ChainSpec(13)), method="krylov")
    propagator.evolve(StateVector.zero_state(13), matryoshka_time())
    assert sizes and set(sizes) == {1 << 12}


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
        h = build_hamiltonian(spec)
        sectors = h._parity_sectors
        assert len(sectors) == 2
        dense = h.dense()
        for (idx, sector), parity in zip(sectors, (0, 1)):
            assert idx.shape == (half,) and sector.n_sites == n - 1
            assert all(int(i).bit_count() % 2 == parity for i in idx)
            np.testing.assert_array_equal(sector.dense(), dense[np.ix_(idx, idx)])
            w, v = sector._eigh
            assert w.shape == (half,) and v.shape == (half, half)
            assert w.dtype == np.float64 and v.dtype == np.float64


def test_parity_sectors_are_exact_slices_at_11_sites():
    # beyond the dense reference's sizes, eigen and Krylov are each other's only
    # reference, and both run on these sectors
    h = build_hamiltonian(random_custom_spec(np.random.default_rng(111), 11))
    dense = h.dense()
    for idx, sector in h._parity_sectors:
        np.testing.assert_array_equal(sector.dense(), dense[np.ix_(idx, idx)])


def _bipartite_spec(rng: np.random.Generator, n: int, pattern: Pattern) -> ChainSpec:
    """A chain of ``pattern`` with seeded fields, one of them -0.0.

    Custom couplings are seeded too, with a 0.0, a -0.0 and a negative one.
    """
    fields = rng.uniform(-1.0, 1.0, size=n)
    fields[n // 2] = -0.0
    if pattern is not Pattern.CUSTOM:
        return ChainSpec(n, 1.3, pattern, tuple(fields))
    j_x, j_y = rng.uniform(-1.5, 1.5, size=(2, n - 1))
    j_x[0], j_y[-1], j_x[-1] = 0.0, -0.0, -abs(j_x[-1])
    return ChainSpec(n, pattern=pattern, fields_b=tuple(fields), j_x=tuple(j_x), j_y=tuple(j_y))


@pytest.mark.parametrize("pattern", list(Pattern))
def test_odd_sector_is_the_even_one_under_the_chiral_map(pattern):
    # W = prod_s X_s prod_{s odd} Z_s anticommutes with every bond and field, and for
    # odd N it flips every spin, so H_odd = -M H_even M^T with M reversing the index
    # and signing position j by (-1)^popcount(x_j & odd sites)
    rng = np.random.default_rng(2800 + len(pattern.value))
    for n in (3, 5, 7, 9, 11):
        h = build_hamiltonian(_bipartite_spec(rng, n, pattern))
        (even, h_even), (odd, h_odd) = h._parity_sectors
        np.testing.assert_array_equal(odd, ((1 << n) - 1) ^ even[::-1])
        odd_sites = sum(1 << bit for bit in range(0, n, 2))
        signs = np.array([(-1.0) ** (int(x) & odd_sites).bit_count() for x in even])
        np.testing.assert_array_equal(h._chiral_signs, signs)
        mapped = -(np.outer(signs, signs) * h_even.dense())[::-1, ::-1]
        assert np.array_equal(h_odd.dense(), mapped)


@pytest.mark.parametrize("pattern", list(Pattern))
def test_derived_odd_sector_evolution_matches_independent_routes(pattern):
    # a state on the odd sector alone is evolved through the even sector's diagonalisation
    rng = np.random.default_rng(2810 + len(pattern.value))
    for n in (3, 5, 7, 9, 11):
        spec = _bipartite_spec(rng, n, pattern)
        h = build_hamiltonian(spec)
        (even, _), (odd, h_odd) = h._parity_sectors
        amps = np.zeros(1 << n, dtype=complex)
        amps[odd] = rng.normal(size=odd.size) + 1j * rng.normal(size=odd.size)
        state = StateVector(amps / np.linalg.norm(amps))
        propagator = Propagator(h, method="eigen")
        w, v = np.linalg.eigh(h_odd.dense())
        for t in (0.7, -0.7, 31.0):
            out = propagator.evolve(state, t).amplitudes
            direct = v @ (np.exp(-1j * w * t) * (v.T @ state.amplitudes[odd]))
            np.testing.assert_allclose(out[odd], direct, rtol=0, atol=1e-12)
            assert not out[even].any()
            if n <= 9:
                reference = evolve_dense(spec_hamiltonian(spec), state.amplitudes, t)
                np.testing.assert_allclose(out, reference, rtol=0, atol=1e-12)


def test_derived_odd_sector_holds_for_complex_sectors():
    # XY - YX between the two odd sites anticommutes with W too, and makes both
    # sectors complex: there U_even(-t) is not the conjugate of U_even(t)
    terms = ((0.7, "YYI"), (0.9, "IXX"), (0.4, "XIY"), (-0.4, "YIX"), (0.3, "ZII"))
    reference_h = terms_hamiltonian(3, terms)
    h = HamiltonianTerms(3, tuple((w, PauliString.from_letters(letters)) for w, letters in terms))
    assert h._chiral_signs is not None
    assert h._parity_sectors[0][1]._eigh[1].dtype == np.complex128
    state = random_state(np.random.default_rng(2820), 3)
    for t in (0.7, -0.7, 31.0):
        reference = evolve_dense(reference_h, state.amplitudes, t)
        out = Propagator(h, method="eigen").evolve(state, t).amplitudes
        np.testing.assert_allclose(out, reference, rtol=0, atol=1e-12)
        u = scipy.linalg.expm(-1j * t * reference_h)
        expected = u.conj().T @ letters_dense("XIY") @ u
        matrix = heisenberg_evolve(h, PauliString.from_letters("XIY"), t)
        np.testing.assert_allclose(matrix, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [5, 7])
def test_heisenberg_evolution_matches_the_kronecker_reference(n):
    rng = np.random.default_rng(2830 + n)
    pad = "I" * (n - 4)
    operators = ("XII" + pad + "X", "IY" + pad + "YI", "Z" * n, "XZII" + pad)
    for pattern in Pattern:
        spec = _bipartite_spec(rng, n, pattern)
        h = build_hamiltonian(spec)
        for t in (0.9, -2.3):
            u = scipy.linalg.expm(-1j * t * spec_hamiltonian(spec))
            for letters in operators:
                expected = u.conj().T @ letters_dense(letters) @ u
                matrix = heisenberg_evolve(h, PauliString.from_letters(letters), t)
                np.testing.assert_allclose(matrix, expected, rtol=0, atol=1e-12)


# term lists that W does not anticommute with: a ZZ bond, an XY bond, an even chain
_CHAIN_5 = ((0.8, "XXIII"), (0.6, "IYYII"), (0.9, "IIXXI"), (0.7, "IIIYY"), (0.3, "ZIIII"))
_NOT_BIPARTITE = [
    _CHAIN_5 + ((0.5, "ZZIII"),),
    _CHAIN_5 + ((0.4, "IXYII"),),
    ((0.8, "XXII"), (0.6, "IYYI"), (0.9, "IIXX"), (0.3, "ZIII"), (-0.2, "IIZI")),
]


@pytest.mark.parametrize("terms", _NOT_BIPARTITE, ids=["zz-bond", "xy-bond", "even-length"])
def test_term_lists_without_the_chiral_map_diagonalise_both_sectors(monkeypatch, terms):
    sizes = []
    original = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    n = len(terms[0][1])
    reference_h = terms_hamiltonian(n, terms)
    h = HamiltonianTerms(n, tuple((w, PauliString.from_letters(letters)) for w, letters in terms))
    assert h._chiral_signs is None and len(h._parity_sectors) == 2
    if n % 2:  # a state has an odd number of sites; heisenberg_evolve takes any
        state = random_state(np.random.default_rng(2840 + n), n)
        out = Propagator(h, method="eigen").evolve(state, 0.7).amplitudes
        reference = evolve_dense(reference_h, state.amplitudes, 0.7)
        np.testing.assert_allclose(out, reference, rtol=0, atol=1e-12)
    letters = "X" + "I" * (n - 2) + "X"
    u = scipy.linalg.expm(-0.7j * reference_h)
    matrix = heisenberg_evolve(h, PauliString.from_letters(letters), 0.7)
    np.testing.assert_allclose(matrix, u.conj().T @ letters_dense(letters) @ u, rtol=0, atol=1e-12)
    assert sizes == [1 << (n - 1)] * 2


def test_auto_method_picks_eigen_for_small_chains():
    h = build_hamiltonian(ChainSpec(3))
    propagator = Propagator(h)
    assert propagator.method == "eigen"
    propagator.evolve(StateVector.zero_state(3), 0.3)


def test_eigen_route_diagonalises_only_the_sectors_it_touches(monkeypatch):
    sizes = []
    original = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    zero = StateVector.zero_state(9)
    # |0..0> is even, so the odd sector is never diagonalised
    Propagator(build_hamiltonian(ChainSpec(9)), method="eigen").evolve(zero, 0.7)
    assert sizes == [256]
    sizes.clear()
    # a Hadamard on the middle site fills both sectors; the odd one follows from
    # the even one's diagonalisation by the chain's chiral symmetry
    propagator = Propagator(build_hamiltonian(ChainSpec(9)), method="eigen")
    mixed = gate_apply(zero, 5, hadamard)
    propagator.evolve(mixed, 0.7)
    assert sizes == [256]
    sizes.clear()
    # the Hamiltonian keeps its sectors' diagonalisations
    propagator.evolve(mixed, -1.1)
    Propagator(propagator.hamiltonian, method="eigen").evolve(zero, 0.7)
    assert sizes == []


def test_method_validation():
    h = build_hamiltonian(ChainSpec(3))
    with pytest.raises(ValidationError):
        Propagator(h, method="magic")


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
    matrix = heisenberg_evolve(h, PauliString(3, 0, 0), 0.77)
    np.testing.assert_allclose(matrix, np.eye(8), atol=1e-12)


def test_heisenberg_closed_form_n3():
    # the X1 X3 pair operator lands on -Z1 Z2 at t*
    h = build_hamiltonian(ChainSpec(3))
    matrix = heisenberg_evolve(h, PauliString.from_letters("XIX"), matryoshka_time())
    np.testing.assert_allclose(matrix, -PauliString.from_letters("ZZI").dense(), atol=1e-12)


def test_heisenberg_site_limits():
    with pytest.raises(ValidationError):
        heisenberg_evolve(build_hamiltonian(ChainSpec(9)), PauliString(9, 0, 0), 0.1)


def test_reconstruction_from_coefficients():
    spec = ChainSpec(3, fields_b=(0.1, -0.4, 0.2))
    matrix = heisenberg_evolve(build_hamiltonian(spec), PauliString.from_letters("YIY"), 0.6)
    u = scipy.linalg.expm(-0.6j * spec_hamiltonian(spec))
    np.testing.assert_allclose(matrix, u.conj().T @ letters_dense("YIY") @ u, atol=1e-12)
