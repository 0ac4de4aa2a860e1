import numpy as np
import pytest

import bellchain.protocols
from bellchain import (
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
    conveyor_run,
    extract_pair,
    ghz_protocol,
    ideal_matryoshka_state,
    matryoshka_time,
    reduced_density,
)
from _reference import REFERENCE_RATIOS, conveyor_ref, ghz_ref, perturbed_extraction_ref


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


def test_ghz_phase_on_the_branch_cut_is_plus_pi():
    # zero-field N = 5 and 7 end on -|1..1>, where rounding picks the sign of pi
    for n in (5, 7):
        assert ghz_protocol(ChainSpec(n)).relative_phase == pytest.approx(np.pi, abs=1e-12)


def test_ghz_state_components():
    # the final state concentrates on |00..0> and |11..1>
    result = ghz_protocol(ChainSpec(5))
    amps = result.state.amplitudes
    assert abs(amps[0]) == pytest.approx(1 / np.sqrt(2), abs=1e-8)
    assert abs(amps[-1]) == pytest.approx(1 / np.sqrt(2), abs=1e-8)
    assert np.linalg.norm(amps[1:-1]) < 1e-8


def test_ghz_validation():
    with pytest.raises(ValidationError):
        ghz_protocol(ChainSpec(5, pattern=Pattern.PERFECT_TRANSFER))


def test_ghz_serializes():
    payload = ghz_protocol(ChainSpec(3)).to_json_dict()
    assert set(payload) == {"n_sites", "ghz_fidelity", "relative_phase"}
    assert payload["n_sites"] == 3
