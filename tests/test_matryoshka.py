import numpy as np
import pytest

from bellchain import (
    BellLabel,
    ChainSpec,
    InitialState,
    MatryoshkaSchedule,
    Propagator,
    StateVector,
    ValidationError,
    bell_product_amplitudes,
    bell_schedule,
    bell_state,
    build_hamiltonian,
    closest_bell,
    flux_check,
    ideal_matryoshka_state,
    matryoshka_time,
    mirror_pair_sign,
    verify_matryoshka,
)
from _helpers import unpack_complex

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


def test_closest_bell_on_density_matrix():
    vec = bell_state(BellLabel.PSI_PLUS)
    label, fidelity = closest_bell(np.outer(vec, vec.conj()))
    assert label is BellLabel.PSI_PLUS
    assert fidelity == pytest.approx(1.0)


def test_closest_bell_tie_prefers_enum_order():
    # |01> overlaps psi+ and psi- equally; psi+ is listed first
    vec = np.array([0, 1, 0, 0], dtype=complex)
    label, fidelity = closest_bell(vec)
    assert label is BellLabel.PSI_PLUS
    assert fidelity == pytest.approx(SQ2)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
@pytest.mark.parametrize("initial", ["all0", "all1"])
def test_schedule_matches_oracle(oracle_cases, n, initial):
    case = oracle_cases[f"n{n}_schedule_{initial}"]["reference_value"]
    schedule = bell_schedule(n, initial)
    assert [[p, q, label.value] for (p, q), label in schedule.pairs] == case["pairs"]
    assert schedule.central_value == case["central_value"]


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


def test_ideal_state_matches_evolution(oracle_cases):
    for n in (3, 5, 7):
        reference = unpack_complex(
            oracle_cases[f"n{n}_matryoshka_state"]["reference_value"]
        )
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


@pytest.mark.parametrize("n", [5, 7])
def test_flux_check_matches_oracle(oracle_cases, n):
    reference = oracle_cases[f"n{n}_flux"]["reference_value"]
    matches = flux_check(ChainSpec(n, 1.0), matryoshka_time())
    assert len(matches) == len(reference)
    for match, ref in zip(matches, reference):
        assert match.matched
        assert list(match.z_sites) == ref["z_sites"]
        assert match.sign == ref["sign"]
        assert match.residual < 1e-9
        assert match.sign == mirror_pair_sign(n, match.pair_index)


def test_flux_check_off_protocol_time_does_not_match():
    matches = flux_check(ChainSpec(3, 1.0), matryoshka_time() / 2)
    assert not all(m.matched for m in matches)


def test_flux_check_site_cap():
    with pytest.raises(ValidationError):
        flux_check(ChainSpec(9, 1.0), 0.1)


def test_flux_match_serializes():
    match = flux_check(ChainSpec(3, 1.0), matryoshka_time())[0]
    payload = match.to_json_dict()
    assert payload["kind"] == "XX"
    assert payload["z_sites"] == [1, 2]
    assert payload["matched"] is True
