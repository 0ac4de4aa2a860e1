import numpy as np
import pytest

from bellchain import (
    REFERENCE_FIELD_RATIOS,
    BellLabel,
    ChainSpec,
    Pattern,
    StateVector,
    ValidationError,
    bell_state,
    build_hamiltonian,
    concurrence,
    field_sweep,
    purity,
    reduced_density,
    reference_point_fidelity,
    state_fidelity,
    sweep_summary,
    sweep_to_csv,
)
from bellchain.oracle import dense_expm_evolve
from _reference import reference_point_ref, sweep_minima_ref


def bell_rho(label: BellLabel) -> np.ndarray:
    vec = bell_state(label)
    return np.outer(vec, vec.conj())


def test_purity_bounds():
    assert purity(bell_rho(BellLabel.PSI_PLUS)) == pytest.approx(1.0)
    assert purity(np.eye(4, dtype=complex) / 4) == pytest.approx(0.25)


def test_purity_rejects_empty_matrix():
    with pytest.raises(ValidationError):
        purity(np.zeros((0, 0)))


def test_concurrence_of_bell_states_is_one():
    for label in BellLabel:
        assert concurrence(bell_rho(label)) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_of_product_state_is_zero():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    assert concurrence(rho) == 0.0


def test_concurrence_werner_state():
    # p |Psi-><Psi-| + (1-p) I/4 has concurrence max(0, (3p-1)/2)
    psi = bell_rho(BellLabel.PSI_MINUS)
    for p, expected in ((0.5, 0.25), (1.0, 1.0), (1 / 3, 0.0), (0.2, 0.0)):
        rho = p * psi + (1 - p) * np.eye(4) / 4
        assert concurrence(rho) == pytest.approx(expected, abs=1e-12)


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(9)
    for _ in range(10):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho).real
        u1, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u2, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        local = np.kron(u1, u2)
        rotated = local @ rho @ local.conj().T
        assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-9)


def test_concurrence_accepts_density_matrix_objects():
    amps = np.zeros(8, dtype=complex)
    amps[1] = amps[4] = 1 / np.sqrt(2)
    rho = reduced_density(StateVector(amps), (1, 3))
    assert concurrence(rho) == pytest.approx(1.0, abs=1e-10)


def test_concurrence_validates_shape():
    with pytest.raises(ValidationError):
        concurrence(np.eye(2, dtype=complex) / 2)


def test_state_fidelity_phase_invariant():
    a = StateVector.zero_state(3)
    amps = a.amplitudes * np.exp(0.7j)
    b = StateVector(amps)
    assert state_fidelity(a, b) == pytest.approx(1.0)


def test_field_sweep_validations():
    with pytest.raises(ValidationError):
        field_sweep(ChainSpec(5))
    with pytest.raises(ValidationError):
        field_sweep(ChainSpec(3, pattern=Pattern.PERFECT_TRANSFER))
    with pytest.raises(ValidationError):
        field_sweep(ChainSpec(3, fields_b=(0.1, 0.0, 0.0)))
    with pytest.raises(ValidationError):
        field_sweep(ChainSpec(3), grid_points=1)
    with pytest.raises(ValidationError):
        field_sweep(ChainSpec(3), b3_ratios=(0.2,))
    with pytest.raises(ValidationError):
        field_sweep(ChainSpec(3), b3_ratios=())


def test_field_sweep_origin_and_ordering():
    results = field_sweep(ChainSpec(3), grid_points=3, b3_ratios=(0.1, 0.0))
    assert [r.b3_ratio for r in results] == [0.0, 0.1]  # sorted slices
    slice0 = results[0]
    assert slice0.grid[0][:2] == (0.0, 0.0)
    assert slice0.grid[0][2] == pytest.approx(1.0, abs=1e-12)  # origin fidelity
    # row-major: b1 outer, b2 inner
    coords = [(row[0], row[1]) for row in slice0.grid]
    assert coords == sorted(coords)
    assert len(slice0.grid) == 9
    assert slice0.min_fidelity == pytest.approx(min(r[2] for r in slice0.grid))
    assert 0.99 < slice0.min_fidelity < 1.0
    assert slice0.mean_fidelity() == pytest.approx(
        sum(r[2] for r in slice0.grid) / 9
    )


def test_sweep_minima_match_oracle():
    reference = sweep_minima_ref()
    results = field_sweep(ChainSpec(3))
    for result in results:
        assert result.min_fidelity == pytest.approx(
            reference[f"{result.b3_ratio:g}"], abs=1e-10
        )


def _oracle_fidelity(lam: float, t: float, ratios: tuple[float, ...]) -> float:
    """Fidelity from the dense expm oracle, fields as ratios of lam * sqrt(2)."""
    zero = StateVector.zero_state(3)
    fields = tuple(r * lam * np.sqrt(2.0) for r in ratios)
    ideal = dense_expm_evolve(build_hamiltonian(ChainSpec(3, lam)), zero, t)
    actual = dense_expm_evolve(build_hamiltonian(ChainSpec(3, lam, fields_b=fields)), zero, t)
    return abs(np.vdot(ideal.amplitudes, actual.amplitudes))


def test_study_matches_oracle_away_from_the_defaults():
    results = field_sweep(ChainSpec(3, 2.0), grid_points=3, b3_ratios=(0.0, 0.1), t_star=0.3)
    assert [r.b3_ratio for r in results] == [0.0, 0.1]
    for result in results:
        assert len(result.grid) == 9
        for b1, b2, fid in result.grid:
            expected = _oracle_fidelity(2.0, 0.3, (b1, b2, result.b3_ratio))
            assert fid == pytest.approx(expected, abs=1e-12)
    expected = _oracle_fidelity(2.0, 0.3, tuple(1.3 * r for r in REFERENCE_FIELD_RATIOS))
    assert reference_point_fidelity(1.3, 2.0, 0.3) == pytest.approx(expected, abs=1e-12)


def test_sweep_to_csv_format():
    result = field_sweep(ChainSpec(3), grid_points=2, b3_ratios=(0.0,))[0]
    text = sweep_to_csv(result, "n_sites=3")
    lines = text.splitlines()
    assert lines[0] == "# n_sites=3"
    assert lines[1] == "b1_ratio,b2_ratio,b3_ratio,fidelity"
    assert lines[2] == "0.00000000000e+00,0.00000000000e+00,0.00000000000e+00,1.00000000000e+00"
    assert len(lines) == 6
    # without a comment the header leads
    assert sweep_to_csv(result).splitlines()[0] == "b1_ratio,b2_ratio,b3_ratio,fidelity"


def test_sweep_summary_structure():
    results = field_sweep(ChainSpec(3), grid_points=2, b3_ratios=(0.0, 0.1))
    summary = sweep_summary(results)
    assert len(summary["slices"]) == 2
    assert summary["min_fidelity"] == pytest.approx(
        min(r.min_fidelity for r in results)
    )
    assert set(summary["slices"][0]) == {"b3_ratio", "min_fidelity", "mean_fidelity"}


def test_reference_ratios_values():
    assert REFERENCE_FIELD_RATIOS == pytest.approx(
        (7.8 / 270.0, 19.6 / 270.0, 12.6 / 270.0)
    )


def test_reference_point_matches_oracle():
    for scale in (1.0, 2.0):
        assert reference_point_fidelity(scale=scale) == pytest.approx(
            reference_point_ref(scale), abs=1e-10
        )


def test_reference_point_zero_scale_is_exact():
    assert reference_point_fidelity(scale=0.0) == pytest.approx(1.0, abs=1e-12)


def test_reference_point_rejects_negative_scale():
    with pytest.raises(ValidationError):
        reference_point_fidelity(scale=-1.0)
