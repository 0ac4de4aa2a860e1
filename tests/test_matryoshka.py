import functools

import numpy as np
import pytest
import scipy.linalg

import bellchain.matryoshka
from bellchain import (
    BellLabel,
    ChainSpec,
    HamiltonianTerms,
    InitialState,
    MatryoshkaSchedule,
    Pattern,
    PauliString,
    Propagator,
    StateVector,
    ValidationError,
    bell_product_amplitudes,
    bell_schedule,
    bell_state,
    build_hamiltonian,
    closest_bell,
    flux_check,
    heisenberg_evolve,
    ideal_matryoshka_state,
    matryoshka_time,
    mirror_pair_sign,
    verify_matryoshka,
)
from _reference import (
    basis_vec,
    letters_at,
    letters_dense,
    schedule_case_ref,
    spec_hamiltonian,
    t_star_unitary,
)

SQ2 = 1 / np.sqrt(2)


def evolved(n: int, start_bits: str | None = None) -> StateVector:
    propagator = Propagator(build_hamiltonian(ChainSpec(n)))
    start = StateVector.zero_state(n) if start_bits is None else StateVector.from_bits(start_bits)
    return propagator.evolve(start, matryoshka_time())


def test_bell_state_vectors():
    np.testing.assert_allclose(bell_state(BellLabel.PSI_PLUS), [0, SQ2, SQ2, 0], atol=1e-15)
    np.testing.assert_allclose(bell_state(BellLabel.PSI_MINUS), [0, SQ2, -SQ2, 0], atol=1e-15)
    np.testing.assert_allclose(bell_state(BellLabel.PHI_PLUS), [SQ2, 0, 0, SQ2], atol=1e-15)
    np.testing.assert_allclose(bell_state(BellLabel.PHI_MINUS), [SQ2, 0, 0, -SQ2], atol=1e-15)


def test_closest_bell_on_vectors():
    label, fidelity = closest_bell(bell_state(BellLabel.PSI_MINUS))
    assert label is BellLabel.PSI_MINUS
    assert fidelity == pytest.approx(1.0)
    # global phase does not matter
    label, fidelity = closest_bell(1j * bell_state(BellLabel.PHI_PLUS))
    assert label is BellLabel.PHI_PLUS
    assert fidelity == pytest.approx(1.0)


def test_bell_fidelity_counts_overlaps_below_the_concurrence_cutoff_as_zero():
    # rho = (1 - e) |phi+><phi+| + e |psi+><psi+|, so <psi+|rho|psi+> = e
    phi, psi = bell_state(BellLabel.PHI_PLUS), bell_state(BellLabel.PSI_PLUS)
    for overlap, fidelity in ((1e-13, 0.0), (4e-12, 2e-6)):
        rho = (1 - overlap) * np.outer(phi, phi.conj()) + overlap * np.outer(psi, psi.conj())
        reported = bellchain.matryoshka._mixed_bell_fidelity(psi, rho)
        assert reported == pytest.approx(fidelity, rel=1e-9)


def test_bell_fidelity_clips_rounding_above_one():
    # <b|rho|b> just above 1, within the trace tolerance of a density
    psi = bell_state(BellLabel.PSI_PLUS)
    rho = (1.0 + 1e-13) * np.outer(psi, psi.conj())
    assert bellchain.matryoshka._mixed_bell_fidelity(psi, rho) == 1.0


def test_closest_bell_on_density_matrix():
    vec = bell_state(BellLabel.PSI_PLUS)
    label, fidelity = closest_bell(np.outer(vec, vec.conj()))
    assert label is BellLabel.PSI_PLUS
    assert fidelity == pytest.approx(1.0)


def test_closest_bell_rejects_non_finite_and_misshapen_input():
    for bad in (np.nan, np.inf):
        vec = bell_state(BellLabel.PSI_PLUS)
        vec[0] = bad
        rho = np.eye(4, dtype=complex) / 4
        rho[1, 1] = bad
        for pair in (vec, rho):
            with pytest.raises(ValidationError):
                closest_bell(pair)
    for shape in ((2,), (4, 2), (2, 2, 4)):
        with pytest.raises(ValidationError):
            closest_bell(np.zeros(shape))


def test_closest_bell_tie_prefers_enum_order():
    # |01> overlaps psi+ and psi- equally; psi+ is listed first
    vec = np.array([0, 1, 0, 0], dtype=complex)
    label, fidelity = closest_bell(vec)
    assert label is BellLabel.PSI_PLUS
    assert fidelity == pytest.approx(SQ2)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
@pytest.mark.parametrize("initial", ["all0", "all1"])
def test_schedule_matches_oracle(n, initial):
    # labels, central value and nested fidelity read off the dense-route state
    start_bits = {"all0": "0", "all1": "1"}[initial] * n
    reference = schedule_case_ref(n, int(start_bits, 2))
    schedule = bell_schedule(n, initial)
    assert [(p, q, label.value) for (p, q), label in schedule.pairs] == reference["pairs"]
    assert schedule.central_value == reference["central_value"]
    fidelity = abs(ideal_matryoshka_state(schedule).inner(evolved(n, start_bits)))
    assert fidelity == pytest.approx(reference["fidelity"], abs=1e-10)


def test_schedule_structure_n7():
    schedule = bell_schedule(7)
    assert schedule.central_site == 4
    assert schedule.central_value == 1  # central spin flips when (N+1)/2 is even
    assert dict(schedule.pairs) == {
        (1, 7): BellLabel.PSI_MINUS,
        (2, 6): BellLabel.PSI_PLUS,
        (3, 5): BellLabel.PSI_MINUS,
    }


def test_schedule_all1_flips_central_only():
    base = bell_schedule(5, InitialState.ALL0)
    flipped = bell_schedule(5, InitialState.ALL1)
    assert base.pairs == flipped.pairs
    assert base.central_value == 0
    assert flipped.central_value == 1


def test_schedule_validation():
    with pytest.raises(ValidationError):
        bell_schedule(4)
    with pytest.raises(ValidationError):
        bell_schedule(1)
    with pytest.raises(ValidationError):
        bell_schedule(5, "all2")


def test_schedule_rejects_non_mirror_pairs():
    with pytest.raises(ValidationError):
        MatryoshkaSchedule(5, 0, (((1, 4), BellLabel.PSI_PLUS), ((2, 4), BellLabel.PSI_MINUS)))


def test_schedule_rejects_partial_cover():
    with pytest.raises(ValidationError):
        MatryoshkaSchedule(5, 0, (((1, 5), BellLabel.PSI_PLUS),))


def test_schedules_take_bell_labels_by_value():
    # a label's value once passed the schedule's checks and failed later with a
    # KeyError or AttributeError
    for pairs in ((((1, 3), "psi+"),), (((1, 5), "phi-"), ((2, 4), "psi-"))):
        by_value = MatryoshkaSchedule(2 * len(pairs) + 1, 0, pairs)
        by_member = MatryoshkaSchedule(
            by_value.n_sites, 0, tuple((sites, BellLabel(label)) for sites, label in pairs)
        )
        assert by_value == by_member
        assert by_value.to_json_dict() == by_member.to_json_dict()
        state = ideal_matryoshka_state(by_value)
        assert state.amplitudes.tolist() == ideal_matryoshka_state(by_member).amplitudes.tolist()
        assert verify_matryoshka(state, by_value) == verify_matryoshka(state, by_member)


def test_ideal_state_matches_evolution():
    for n in (3, 5, 7):
        reference = t_star_unitary(n) @ basis_vec(n, 0)
        ideal = ideal_matryoshka_state(bell_schedule(n))
        overlap = abs(np.vdot(ideal.amplitudes, reference))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_bell_product_amplitudes_n3():
    amps = bell_product_amplitudes(3, [(1, 3, BellLabel.PSI_MINUS)], 2, 1)
    # site 2 up always; psi- means (|0,1> - |1,0>)/sqrt(2) on sites (1,3)
    expected = np.zeros(8, dtype=complex)
    expected[0b110] = SQ2   # site1=0, site2=1, site3=1
    expected[0b011] = -SQ2  # site1=1, site2=1, site3=0
    np.testing.assert_allclose(amps, expected, atol=1e-15)


def test_bell_product_amplitudes_validates():
    pair = [(1, 3, BellLabel.PSI_MINUS)]
    for args in (
        (0, [], 1, 0),  # no sites
        (3, pair, 4, 1),  # central site outside the chain
        (3, [(1, 4, BellLabel.PSI_MINUS)], 2, 1),  # pair site outside the chain
        (3, pair, 2, 2),  # central value not a bit
    ):
        with pytest.raises(ValidationError):
            bell_product_amplitudes(*args)


def test_verify_matryoshka_on_ideal_state():
    for n in (3, 5, 7, 9):
        schedule = bell_schedule(n)
        report = verify_matryoshka(ideal_matryoshka_state(schedule), schedule)
        assert report.global_fidelity == pytest.approx(1.0, abs=1e-12)
        assert report.central_purity == pytest.approx(1.0, abs=1e-12)
        for pair in report.pair_reports:
            assert pair.concurrence == pytest.approx(1.0, abs=1e-10)
            assert pair.bell_fidelity == pytest.approx(1.0, abs=1e-10)
            assert pair.purity == pytest.approx(1.0, abs=1e-10)


def test_verify_matryoshka_on_evolved_state():
    report = verify_matryoshka(evolved(7), bell_schedule(7))
    assert report.global_fidelity > 1 - 1e-10
    assert abs(report.central_z) == pytest.approx(1.0, abs=1e-10)


def test_verification_report_serializes():
    report = verify_matryoshka(evolved(3), bell_schedule(3))
    payload = report.to_json_dict()
    assert set(payload) == {"schedule", "pairs", "central", "global_fidelity"}
    assert payload["central"]["site"] == 2
    assert payload["pairs"][0]["label"] == "psi-"


def test_verify_rejects_length_mismatch():
    with pytest.raises(ValidationError):
        verify_matryoshka(evolved(5), bell_schedule(3))


def test_mirror_pair_sign_values():
    assert mirror_pair_sign(3, 1) == -1
    assert mirror_pair_sign(5, 1) == 1
    assert mirror_pair_sign(5, 2) == -1
    assert mirror_pair_sign(7, 1) == -1
    assert mirror_pair_sign(7, 2) == 1
    assert mirror_pair_sign(7, 3) == -1


def test_mirror_pair_sign_validation():
    with pytest.raises(ValidationError):
        mirror_pair_sign(4, 1)
    with pytest.raises(ValidationError):
        mirror_pair_sign(5, 3)


def test_flux_check_n3_closed_form():
    matches = {
        (m.pair_index, m.kind): m for m in flux_check(ChainSpec(3, 1.0), matryoshka_time())
    }
    xx = matches[(1, "XX")]
    assert xx.matched
    assert xx.z_sites == (1, 2)
    assert xx.sign == -1
    assert xx.residual < 1e-9
    yy = matches[(1, "YY")]
    assert yy.matched
    assert yy.z_sites == (2, 3)
    assert yy.sign == -1
    assert yy.residual < 1e-9


def test_flux_check_off_protocol_time_does_not_match():
    matches = flux_check(ChainSpec(3, 1.0), matryoshka_time() / 2)
    assert not all(m.matched for m in matches)


def test_flux_check_site_cap(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("an operator-sized array was built")

    monkeypatch.setattr(bellchain.matryoshka, "_walsh", unreachable)
    monkeypatch.setattr(HamiltonianTerms, "dense", unreachable)
    for n in (9, 31):
        with pytest.raises(ValidationError):
            flux_check(ChainSpec(n, 1.0), 0.1)


@pytest.mark.parametrize("n", range(1, 9))
def test_walsh_matrix_matches_scipy(n):
    walsh, expected = bellchain.matryoshka._walsh(n), scipy.linalg.hadamard(2**n)
    assert walsh.dtype == expected.dtype
    np.testing.assert_array_equal(walsh, expected)


def test_one_hamiltonian_is_diagonalised_once(monkeypatch):
    calls = []
    original = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for n in (5, 7):
        calls.clear()
        flux_check(ChainSpec(n), matryoshka_time())
        # the even Z-parity block, shared by all 2(N-1) pair operators; the odd
        # block follows from it by the chain's chiral symmetry
        assert len(calls) == 1
    calls.clear()
    h = build_hamiltonian(ChainSpec(5, pattern=Pattern.PERFECT_TRANSFER))
    Propagator(h, method="eigen").evolve(StateVector.zero_state(5), 0.4)
    heisenberg_evolve(h, PauliString.from_letters("XIIIX"), 0.4)
    assert len(calls) == 1


@functools.lru_cache
def _dense_z_strings(n: int) -> list[np.ndarray]:
    """Kronecker-built Z-strings for masks 1 .. 2^N - 1 (bit s - 1 holds site s)."""
    return [
        letters_dense("".join("IZ"[mask >> (s - 1) & 1] for s in range(1, n + 1)))
        for mask in range(1, 1 << n)
    ]


def _dense_flux_reference(spec: ChainSpec, t: float) -> list[tuple]:
    """(z_sites, sign, matched, coefficient, residual) per pair operator,
    from expm of the Hamiltonian built from the spec's numbers and explicit traces."""
    n = spec.n_sites
    u = scipy.linalg.expm(-1j * t * spec_hamiltonian(spec))
    z_strings = _dense_z_strings(n)
    out = []
    for i in range(1, (n - 1) // 2 + 1):
        for letter in ("X", "Y"):
            pair = letters_dense(letters_at(n, {i: letter, n - i + 1: letter}))
            m = u.conj().T @ pair @ u
            coefficients = np.array(
                [np.einsum("ij,ji->", z, m).real / (1 << n) for z in z_strings]
            )
            order = np.argsort(-np.abs(coefficients))
            best, second = np.abs(coefficients[order[:2]])
            if best <= 1e-12:
                out.append((None, None, False, 0.0, np.linalg.norm(m, 2)))
                continue
            assert best - second > 1e-6 * best, "a tied case cannot tell the routes apart"
            mask = int(order[0]) + 1
            sign = 1 if coefficients[order[0]] > 0 else -1
            z_sites = tuple(p + 1 for p in range(n) if (mask >> p) & 1)
            matched = best >= 1 - 1e-6 and second <= 1e-6
            residual = np.linalg.norm(m - sign * z_strings[mask - 1], 2)
            out.append((z_sites, sign, matched, coefficients[order[0]], residual))
    return out


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("chain", ["matryoshka", "perfect-transfer", "fields"])
def test_flux_check_matches_dense_route(n, chain):
    fields = tuple(np.random.default_rng(n).uniform(-0.05, 0.05, size=n))
    spec = {
        "matryoshka": ChainSpec(n),
        "perfect-transfer": ChainSpec(n, pattern=Pattern.PERFECT_TRANSFER),
        "fields": ChainSpec(n, fields_b=fields),
    }[chain]
    t_star = matryoshka_time()
    # at t = 1e-5 every Z coefficient is below 1e-9: the identity must not win
    for t in (0.0, 1e-5, t_star / 2, 0.3, t_star):
        matches = flux_check(spec, t)
        reference = _dense_flux_reference(spec, t)
        assert len(matches) == len(reference)
        for match, (z_sites, sign, matched, coefficient, residual) in zip(matches, reference):
            assert (match.z_sites, match.sign, match.matched) == (z_sites, sign, matched)
            assert match.coefficient == pytest.approx(coefficient, abs=1e-12)
            assert match.residual == pytest.approx(residual, abs=1e-12)


@pytest.mark.parametrize("t", [1.3, 1.85])
def test_flux_check_ties_go_to_the_smallest_letter_string(t):
    # pair 2 of this chain has two mirror-image Z-strings, Z[1,3,4,7] and
    # Z[1,4,5,7], whose coefficients differ only by rounding
    spec = ChainSpec(7, pattern=Pattern.PERFECT_TRANSFER)
    pair = [m for m in flux_check(spec, t) if m.pair_index == 2]
    assert [m.z_sites for m in pair] == [(1, 4, 5, 7), (1, 4, 5, 7)]


def test_flux_match_serializes():
    match = flux_check(ChainSpec(3, 1.0), matryoshka_time())[0]
    payload = match.to_json_dict()
    assert payload["kind"] == "XX"
    assert payload["z_sites"] == [1, 2]
    assert payload["matched"] is True
