import numpy as np
import pytest

import bellchain.evolve
import bellchain.protocols
from bellchain import (
    BellchainError,
    BellLabel,
    ChainClass,
    ChainSpec,
    PairNotPureError,
    Pattern,
    Propagator,
    StateVector,
    ValidationError,
    bell_schedule,
    build_hamiltonian,
    closest_bell,
    concurrence,
    conveyor_run,
    extract_pair,
    gate_apply,
    ghz_protocol,
    ideal_matryoshka_state,
    matryoshka_time,
    reduced_density,
)
from bellchain.pauli import _TIE_TOL
from _helpers import random_state
from _reference import (
    REFERENCE_RATIOS,
    classify_ref,
    conveyor_ref,
    ghz_ref,
    ghz_state_ref,
    perturbed_extraction_ref,
)


def evolved(spec: ChainSpec) -> StateVector:
    propagator = Propagator(build_hamiltonian(spec))
    return propagator.evolve(StateVector.zero_state(spec.n_sites), matryoshka_time(spec.lam))


def test_extract_pair_on_ideal_state():
    state = ideal_matryoshka_state(bell_schedule(7))
    extraction = extract_pair(state)
    assert extraction.purity == pytest.approx(1.0, abs=1e-10)
    assert extraction.fidelity == pytest.approx(1.0, abs=1e-10)
    label, fidelity = closest_bell(extraction.pair_state)
    assert label is BellLabel.PSI_MINUS
    assert fidelity == pytest.approx(1.0, abs=1e-10)


def test_extract_pair_resets_boundary_sites():
    state = ideal_matryoshka_state(bell_schedule(5))
    after = extract_pair(state).chain_after
    assert after.n_sites == 5
    for site in (1, 5):
        rho = reduced_density(after, (site,)).matrix
        assert rho[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(after.amplitudes) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("nudged", [1, 4])
def test_extract_pair_gauge_ignores_rounding_on_a_tie(nudged):
    # psi- on the boundary sites (1, 3) of N = 3, site 2 down; indices 1 and 4
    # hold the |10> and |01> components, and one of them is nudged by 1e-15
    amps = np.zeros(8, dtype=complex)
    amps[4], amps[1] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
    amps[nudged] *= 1.0 + 1e-15
    pair = extract_pair(StateVector(amps, normalize=True)).pair_state
    np.testing.assert_allclose(pair, [0.0, 1.0, -1.0, 0.0] / np.sqrt(2.0), atol=1e-14)
    assert closest_bell(pair)[0] is BellLabel.PSI_MINUS


def test_extract_pair_raises_on_impure_boundary():
    spec = ChainSpec(3, fields_b=(0.3, 0.3, 0.3))
    state = evolved(spec)
    with pytest.raises(PairNotPureError) as info:
        extract_pair(state)
    assert info.value.purity < 1 - 1e-6
    assert 0.0 < info.value.threshold < 1.0


def test_extract_pair_force_matches_oracle():
    case = perturbed_extraction_ref()
    j_edge = np.sqrt(2.0)
    spec = ChainSpec(3, fields_b=(0.05 * j_edge,) * 3)
    extraction = extract_pair(evolved(spec), force=True)
    assert extraction.purity == pytest.approx(case["purity"], abs=1e-10)
    assert extraction.fidelity == pytest.approx(case["overlap"], abs=1e-10)
    label, fidelity = closest_bell(extraction.pair_state)
    assert label.value == case["label"]
    assert fidelity == pytest.approx(case["label_fidelity"], abs=1e-10)


def test_extract_pair_custom_tolerance_lets_mild_impurity_pass():
    # the purity tolerance is fixed; force=True accepts a mildly impure pair
    spec = ChainSpec(3, fields_b=(0.01, 0.01, 0.01))
    state = evolved(spec)
    extraction = extract_pair(state, force=True)
    assert extraction.fidelity > 0.99


def test_extraction_reports_the_boundary_pairs_concurrence():
    rng = np.random.default_rng(3001)
    states = [ideal_matryoshka_state(bell_schedule(7)), evolved(ChainSpec(5, fields_b=(0.05,) * 5))]
    for state in states + [random_state(rng, n) for n in (3, 5, 7)]:
        rho = reduced_density(state, (1, state.n_sites))
        assert extract_pair(state, force=True).concurrence == concurrence(rho)


# Z parity of the pair basis |00>, |01>, |10>, |11> of sites (1, N)
_PAIR_PARITY = np.array([0, 1, 1, 0])


def _index_parity(n_sites: int) -> np.ndarray:
    """Z parity (popcount mod 2) of every basis index, counted bit by bit."""
    return np.array([bin(j).count("1") % 2 for j in range(1 << n_sites)])


@pytest.mark.parametrize("n_sites", [5, 9, 13])
def test_extract_pair_of_a_one_sector_state_is_exactly_zero_in_the_other_parity(n_sites):
    # from |0..0> the evolution keeps the even sector exactly; with fields the
    # boundary pair's other-parity entries would otherwise be rounding
    fields = tuple(1e-4 * np.sin(np.arange(1.0, n_sites + 1)))
    state = evolved(ChainSpec(n_sites, fields_b=fields))
    parity = _index_parity(n_sites)
    assert not state.amplitudes[parity == 1].any()
    extraction = extract_pair(state)
    pair = extraction.pair_state
    kept = _PAIR_PARITY[int(np.argmax(np.abs(pair)))]
    assert (pair[_PAIR_PARITY != kept] == 0.0).all()
    assert np.linalg.norm(pair) == pytest.approx(1.0, abs=1e-15)
    # so the chain left behind lies in one sector exactly
    after = extraction.chain_after.amplitudes
    assert not after[parity != kept].any()


def test_extract_pair_forced_across_a_parity_degenerate_density_stays_unit():
    # N = 3 in the even sector, (|e>|0> + |o>|1>)/sqrt(2) with |e> an even pair
    # and |o> an odd one: the pair density's top eigenvalue 1/2 belongs to both
    # parities, so eigh may return a mix of them, as it does for some of these seeds
    for seed in range(3200, 3220):
        rng = np.random.default_rng(seed)
        e, o = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        amps = np.zeros(8, dtype=complex)
        # index = site 1 + 2 * site 2 + 4 * site 3
        amps[[0b000, 0b101]] = e / np.linalg.norm(e)
        amps[[0b110, 0b011]] = o / np.linalg.norm(o)
        extraction = extract_pair(StateVector(amps, normalize=True), force=True)
        assert np.linalg.norm(extraction.pair_state) == pytest.approx(1.0, abs=1e-15), seed
        assert extraction.fidelity == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12), seed


def test_extract_pair_of_a_two_sector_state_is_the_gauged_top_eigenvector():
    # a state with amplitudes in both sectors takes the unchanged path
    rng = np.random.default_rng(3204)
    for n_sites in (3, 7, 11):
        pair = rng.normal(size=4) + 1j * rng.normal(size=4)
        rest = rng.normal(size=1 << (n_sites - 2)) + 1j * rng.normal(size=1 << (n_sites - 2))
        # axes of the amplitudes as (2, 2^(N-2), 2): site N, middle block, site 1
        product = np.einsum("ab,m->bma", pair.reshape(2, 2), rest).ravel()
        for state, force in (
            (StateVector(product, normalize=True), False),
            (random_state(rng, n_sites), True),
        ):
            _, vectors = np.linalg.eigh(reduced_density(state, (1, n_sites)).matrix)
            top = vectors[:, -1]
            anchor = int(np.flatnonzero(np.abs(top) >= np.abs(top).max() - _TIE_TOL)[0])
            expected = top * (np.conj(top[anchor]) / abs(top[anchor]))
            got = extract_pair(state, force=force).pair_state
            assert np.abs(got - expected).max() <= 1e-15


@pytest.mark.parametrize(
    "weight, flipped, separable",
    [(5e-9, 0b001, True), (2e-8, 0b101, False)],
    ids=["5e-9", "2e-8"],
)
def test_inner_chain_is_separable_within_the_overlap_tolerance(weight, flipped, separable):
    # |000> plus one other basis state of squared weight ``weight``: flipping one
    # site keeps every site pure, flipping two entangles them, so the per-site rule
    # of classify_ref reaches the same class here
    inner = np.zeros(8, dtype=complex)
    inner[0], inner[flipped] = np.sqrt(1.0 - weight), np.sqrt(weight)
    assert (weight <= bellchain.protocols._Z_SEP_TOL) is separable
    ref_class, ref_fidelity = classify_ref(inner, 3)
    if separable:
        assert ref_class == ChainClass.Z_BASIS_SEPARABLE.value
        chain_class = bellchain.protocols._classify_internal(inner, 3)
        assert chain_class == (ChainClass.Z_BASIS_SEPARABLE, ref_fidelity)
    else:
        assert ref_class == ChainClass.MATRYOSHKA_LIKE.value and ref_fidelity < 0.999
        with pytest.raises(BellchainError, match="neither class"):
            bellchain.protocols._classify_internal(inner, 3)


def test_conveyor_reads_a_near_basis_inner_chain_as_separable():
    # in round 4 the inner chain holds 1 - 5.9e-9 of its weight on one basis state,
    # but its sites' purities fall 1.1e-8 below 1: a per-site purity test at 1e-8
    # called it neither class
    fields = tuple(float(f"{3e-4 * np.cos(3 * k):.6f}") for k in range(9))
    record = conveyor_run(ChainSpec(9, 0.7, fields_b=fields), 4)[-1]
    assert record.chain_class is ChainClass.Z_BASIS_SEPARABLE
    assert 1.0 - 1e-8 <= record.internal_state_fidelity**2 < 1.0 - 5e-9


def test_conveyor_matches_oracle():
    reference = conveyor_ref(7, 4)
    records = conveyor_run(ChainSpec(7), 4)
    assert len(records) == 4
    for record, ref in zip(records, reference):
        assert record.round == ref["round"]
        # both routes put the phase on the lowest of the largest entries
        assert np.max(np.abs(record.pair_state - ref["pair_state"])) < 1e-9
        assert record.label.value == ref["label"]
        assert record.label_fidelity == pytest.approx(ref["label_fidelity"], abs=1e-9)
        assert record.chain_class.value == ref["chain_class"]
        assert record.extraction_concurrence == pytest.approx(
            ref["boundary_concurrence"], abs=1e-9
        )
        assert record.internal_state_fidelity == pytest.approx(
            ref["internal_fidelity"], abs=1e-9
        )


def test_conveyor_alternates_classes():
    records = conveyor_run(ChainSpec(7), 4)
    classes = [r.chain_class for r in records]
    assert classes == [
        ChainClass.MATRYOSHKA_LIKE,
        ChainClass.Z_BASIS_SEPARABLE,
        ChainClass.MATRYOSHKA_LIKE,
        ChainClass.Z_BASIS_SEPARABLE,
    ]
    labels = [r.label for r in records]
    assert labels == [
        BellLabel.PSI_MINUS,
        BellLabel.PSI_PLUS,
        BellLabel.PSI_MINUS,
        BellLabel.PSI_PLUS,
    ]


def test_conveyor_every_pair_is_maximally_entangled():
    for record in conveyor_run(ChainSpec(5), 4):
        assert record.extraction_concurrence > 1 - 1e-8
        assert record.label_fidelity > 1 - 1e-8


def test_conveyor_takes_one_boundary_density_per_round(monkeypatch):
    calls = []

    def counted(state, sites):
        calls.append(tuple(sites))
        return reduced_density(state, sites)

    monkeypatch.setattr(bellchain.protocols, "reduced_density", counted)
    conveyor_run(ChainSpec(7), 4)
    assert calls == [(1, 7)] * 4


def test_conveyor_evolves_one_parity_sector_per_round(monkeypatch):
    # each extraction leaves the chain in one sector exactly, so no round
    # evolves the rounding of the other
    eigen_sectors, krylov_sizes, depth = [], [], []
    eigen_expm, krylov_expm = bellchain.evolve._eigen_expm, bellchain.evolve._krylov_expm

    def eigen_recorded(hamiltonian, p, *args):
        if not depth:  # the odd sector nests a call on the even one's diagonalisation
            eigen_sectors.append(p)
        depth.append(p)
        try:
            return eigen_expm(hamiltonian, p, *args)
        finally:
            depth.pop()

    def krylov_recorded(apply_h, amplitudes, t):
        krylov_sizes.append(amplitudes.size)
        return krylov_expm(apply_h, amplitudes, t)

    monkeypatch.setattr(bellchain.evolve, "_eigen_expm", eigen_recorded)
    monkeypatch.setattr(bellchain.evolve, "_krylov_expm", krylov_recorded)
    # eigen up to 12 sites: the rounds alternate between the sectors
    conveyor_run(ChainSpec(9), 4)
    assert (eigen_sectors, krylov_sizes) == ([0, 1, 0, 1], [])
    eigen_sectors.clear()
    # Krylov beyond: one sector of 2^12 amplitudes per round
    conveyor_run(ChainSpec(13), 4)
    assert (eigen_sectors, krylov_sizes) == ([], [1 << 12] * 4)


def test_conveyor_zero_rounds():
    assert conveyor_run(ChainSpec(7), 0) == []


def test_conveyor_validation():
    with pytest.raises(ValidationError):
        conveyor_run(ChainSpec(7), -1)
    with pytest.raises(ValidationError):
        conveyor_run(ChainSpec(7, pattern=Pattern.PERFECT_TRANSFER), 2)


def test_conveyor_record_serializes():
    record = conveyor_run(ChainSpec(5), 1)[0]
    payload = record.to_json_dict()
    assert payload["round"] == 1
    assert payload["label"] == "psi+"
    assert payload["chain_class"] == "matryoshka-like"
    assert len(payload["pair_state"]) == 4
    assert all(len(entry) == 2 for entry in payload["pair_state"])


def test_ghz_matches_oracle():
    for n in (3, 5, 7):
        case = ghz_ref(n)
        result = ghz_protocol(ChainSpec(n))
        assert result.ghz_fidelity == pytest.approx(case["fidelity"], abs=1e-10)
        factor = np.exp(1j * result.relative_phase)
        assert factor == pytest.approx(case["phase_factor"], abs=1e-9)


def test_ghz_perturbed_matches_oracle():
    fields = tuple(r * np.sqrt(2.0) for r in REFERENCE_RATIOS)
    case = ghz_ref(3, fields)
    result = ghz_protocol(ChainSpec(3, fields_b=fields))
    assert result.ghz_fidelity == pytest.approx(case["fidelity"], abs=1e-10)
    factor = np.exp(1j * result.relative_phase)
    assert factor == pytest.approx(case["phase_factor"], abs=1e-9)


def test_ghz_with_fields_matches_oracle():
    # with fields the chain stays real and chiral, so both branch amplitudes still
    # come from the one even-sector evolution
    rng = np.random.default_rng(2850)
    for n in (5, 7, 9):
        fields = tuple(0.05 * rng.uniform(-1.0, 1.0, size=n))
        case = ghz_ref(n, fields)
        result = ghz_protocol(ChainSpec(n, fields_b=fields))
        assert result.ghz_fidelity == pytest.approx(case["fidelity"], abs=1e-12)
        factor = np.exp(1j * result.relative_phase)
        assert factor == pytest.approx(case["phase_factor"], abs=1e-12)


def test_ghz_phase_on_the_branch_cut_is_plus_pi():
    # zero-field N = 5 and 7 end on -|1..1>, where rounding picks the sign of pi
    for n in (5, 7):
        assert ghz_protocol(ChainSpec(n)).relative_phase == pytest.approx(np.pi, abs=1e-12)


def test_ghz_state_components():
    # the reference final state concentrates on |00..0> and |11..1>, and the
    # protocol scores exactly those two amplitudes
    amps = ghz_state_ref(5)
    assert abs(amps[0]) == pytest.approx(1 / np.sqrt(2), abs=1e-8)
    assert abs(amps[-1]) == pytest.approx(1 / np.sqrt(2), abs=1e-8)
    assert np.linalg.norm(amps[1:-1]) < 1e-8
    result = ghz_protocol(ChainSpec(5))
    assert result.n_sites == 5
    assert result.ghz_fidelity == pytest.approx((abs(amps[0]) + abs(amps[-1])) / np.sqrt(2), abs=1e-12)
    factor = np.exp(1j * result.relative_phase)
    cross = amps[-1] * np.conj(amps[0])
    assert factor == pytest.approx(cross / abs(cross), abs=1e-12)


def _two_evolution_krylov_ghz(spec: ChainSpec) -> tuple[float, complex]:
    """Fidelity and phase factor from both evolutions on the Krylov route."""
    propagator = Propagator(build_hamiltonian(spec), method="krylov")
    t = matryoshka_time(spec.lam)
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    state = propagator.evolve(StateVector.zero_state(spec.n_sites), t)
    state = propagator.evolve(gate_apply(state, (spec.n_sites + 1) // 2, hadamard), t)
    a, b = complex(state.amplitudes[0]), complex(state.amplitudes[-1])
    cross = b * np.conj(a)
    return (abs(a) + abs(b)) / np.sqrt(2.0), cross / abs(cross)


@pytest.mark.parametrize("scale", [0.0, 1e-3, 0.05])
def test_one_sector_ghz_matches_two_evolution_references(scale):
    rng = np.random.default_rng(29)
    for n in (3, 5, 7, 9, 11, 13):
        fields = tuple(scale * rng.uniform(-1.0, 1.0, size=n))
        result = ghz_protocol(ChainSpec(n, fields_b=fields))
        factor = np.exp(1j * result.relative_phase)
        if n <= 9:
            case = ghz_ref(n, fields)
            assert result.ghz_fidelity == pytest.approx(case["fidelity"], abs=1e-12)
            assert factor == pytest.approx(case["phase_factor"], abs=1e-12)
        else:
            fidelity, phase_factor = _two_evolution_krylov_ghz(ChainSpec(n, fields_b=fields))
            assert result.ghz_fidelity == pytest.approx(fidelity, abs=1e-9)
            assert factor == pytest.approx(phase_factor, abs=1e-9)


def test_ghz_evolves_one_parity_sector(monkeypatch):
    eigen_sectors, krylov_sizes = [], []
    eigen_expm, krylov_expm = bellchain.evolve._eigen_expm, bellchain.evolve._krylov_expm

    def eigen_recorded(hamiltonian, p, *args):
        eigen_sectors.append(p)
        return eigen_expm(hamiltonian, p, *args)

    def krylov_recorded(apply_h, amplitudes, t):
        krylov_sizes.append(amplitudes.size)
        return krylov_expm(apply_h, amplitudes, t)

    monkeypatch.setattr(bellchain.evolve, "_eigen_expm", eigen_recorded)
    monkeypatch.setattr(bellchain.evolve, "_krylov_expm", krylov_recorded)
    # eigen up to 12 sites: only the even sector of |0..0>, once
    ghz_protocol(ChainSpec(9, fields_b=(0.01,) * 9))
    assert (eigen_sectors, krylov_sizes) == ([0], [])
    eigen_sectors.clear()
    # Krylov beyond: one sector of 2^12 amplitudes
    ghz_protocol(ChainSpec(13))
    assert (eigen_sectors, krylov_sizes) == ([], [1 << 12])


def test_ghz_validation():
    with pytest.raises(ValidationError):
        ghz_protocol(ChainSpec(5, pattern=Pattern.PERFECT_TRANSFER))


def test_ghz_serializes():
    payload = ghz_protocol(ChainSpec(3)).to_json_dict()
    assert set(payload) == {"n_sites", "ghz_fidelity", "relative_phase"}
    assert payload["n_sites"] == 3
