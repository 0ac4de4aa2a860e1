import numpy as np
import pytest

import bellchain.analysis
from bellchain import (
    REFERENCE_FIELD_RATIOS,
    BellLabel,
    ChainSpec,
    Pattern,
    StateVector,
    ValidationError,
    bell_state,
    closest_bell,
    concurrence,
    field_sweep,
    purity,
    reduced_density,
    reference_point_fidelity,
    state_fidelity,
    sweep_summary,
    sweep_to_csv,
)
from _reference import (
    basis_vec,
    chain_hamiltonian,
    couplings,
    covariance_ref,
    evolve_dense,
    pure_concurrence,
    reference_point_ref,
    sweep_minima_ref,
)


def bell_rho(label: BellLabel) -> np.ndarray:
    vec = bell_state(label)
    return np.outer(vec, vec.conj())


def test_purity_bounds():
    assert purity(bell_rho(BellLabel.PSI_PLUS)) == pytest.approx(1.0)
    assert purity(np.eye(4, dtype=complex) / 4) == pytest.approx(0.25)


def test_purity_clips_rounding_above_one():
    # a trace within the 1e-12 tolerance above 1 gives a purity just above 1
    rho = np.diag([1.0 + 1e-13, 0.0, 0.0, 0.0])
    assert purity(rho) == 1.0
    assert purity(np.diag([0.5, 0.5])) == pytest.approx(0.5)


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


def random_local_unitary(rng: np.random.Generator) -> np.ndarray:
    u1, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    u2, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return np.kron(u1, u2)


def random_density(rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """rho = W W^dagger / tr for a random 4 x rank W; the rank is random when not given."""
    rank = int(rng.integers(1, 5)) if rank is None else rank
    raw = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho).real


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(9)
    for _ in range(10):
        rho = random_density(rng, rank=4)
        local = random_local_unitary(rng)
        rotated = local @ rho @ local.conj().T
        assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-9)
    # to rounding, on full-rank states and on states within 1e-12..1e-6 of a pure one
    rng = np.random.default_rng(13)
    for k in range(100):
        rho = random_density(rng, rank=4)
        if k % 2:
            weight = 10.0 ** rng.uniform(-12.0, -6.0)
            rho = (1.0 - weight) * random_density(rng, rank=1) + weight * rho
        local = random_local_unitary(rng)
        rotated = local @ rho @ local.conj().T
        assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-13), k


def test_concurrence_of_pure_states_is_twice_ad_minus_bc():
    # every fourth state lies within 1e-7 of a product state
    rng = np.random.default_rng(14)
    for k in range(200):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        if k % 4 == 0:
            u, v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            psi = np.kron(u, v) + 1e-7 * psi
        psi /= np.linalg.norm(psi)
        assert concurrence(np.outer(psi, psi.conj())) == pytest.approx(
            pure_concurrence(psi), abs=1e-14
        ), k


def invalid_densities(rng: np.random.Generator, rho: np.ndarray) -> dict[str, object]:
    """Each way a 4x4 input can fail to be a density, made from the valid ``rho``."""
    i, j = (int(k) for k in rng.choice(4, size=2, replace=False))
    skewed = rho.copy()
    skewed[i, j] += 1e-6
    weights, vectors = np.linalg.eigh(rho)
    weights[0], weights[-1] = -1e-6, weights[-1] + weights[0] + 1e-6
    negative = (vectors * weights) @ vectors.conj().T
    bad = {"non-Hermitian": skewed, "trace": rho * 1.001, "negative eigenvalue": negative}
    for value in (np.nan, np.inf, -np.inf):
        broken = rho.copy()
        broken[i, j] = value
        bad[f"entry {value}"] = broken
    bad.update(
        {
            "3x3": rho[:3, :3],
            "4x3": rho[:, :3],
            "stacked": np.stack([rho, rho]),
            "flat": rho.ravel(),
            "empty": np.zeros((0, 0)),
            "strings of numbers": rho.astype(str),
            "words": [["a"] * 4] * 4,
        }
    )
    return bad


def test_two_qubit_measures_give_a_float_in_0_1_or_a_validation_error():
    # concurrence, purity and closest_bell on seeded random densities of every rank,
    # and on each kind of invalid input made from them
    rng = np.random.default_rng(5)
    measures = {
        "concurrence": concurrence,
        "purity": purity,
        "closest_bell": lambda rho: closest_bell(rho)[1],
    }
    for k in range(50):
        rho = random_density(rng)
        for name, measure in measures.items():
            value = measure(rho)
            assert type(value) in (float, np.float64) and 0.0 <= value <= 1.0, (name, k)
            for kind, bad in invalid_densities(rng, rho).items():
                with pytest.raises(ValidationError):
                    measure(bad)
                    pytest.fail(f"{name} accepted a {kind} input")
    # closest_bell also takes a pure 4-vector, which must have norm 1 within 1e-12
    for k in range(50):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = raw / np.linalg.norm(raw)
        for scale in (1.0, 1.0 + 1e-13, 1.0 - 1e-13):
            value = closest_bell(scale * psi)[1]
            assert type(value) in (float, np.float64) and 0.0 <= value <= 1.0, (scale, k)
        for scale in (2.0, 0.5, 1.0 + 1e-9, 1.0 - 1e-9, 0.0):
            with pytest.raises(ValidationError):
                closest_bell(scale * psi)
                pytest.fail(f"closest_bell accepted a vector of norm {scale}")
    with pytest.raises(ValidationError):
        closest_bell(2 * bell_state(BellLabel.PSI_PLUS))


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


def test_study_places_each_field_on_its_site(monkeypatch):
    # a fidelity from |000> cannot see a mirrored field layout (a mirror and a
    # quarter turn about z map the chain onto itself), so every covariance the
    # study compares, its reference included, is checked entry by entry against
    # the covariance of the Kronecker-evolved state
    compared = []
    fidelity = bellchain.analysis._gaussian_fidelity

    def recording(reference, perturbed):
        compared.append((reference, perturbed))
        return fidelity(reference, perturbed)

    monkeypatch.setattr(bellchain.analysis, "_gaussian_fidelity", recording)
    results = field_sweep(ChainSpec(3, 2.0), grid_points=3, b3_ratios=(0.0, 0.1), t_star=0.3)
    reference_point_fidelity(1.3, 2.0, 0.3)
    points = [(b1, b2, r.b3_ratio) for r in results for b1, b2, _ in r.grid]
    points.append(tuple(1.3 * r for r in REFERENCE_FIELD_RATIOS))
    assert len(compared) == len(points)
    for ratios, pair in zip(points, compared):
        for gamma, at in zip(pair, ((0.0, 0.0, 0.0), ratios)):
            fields = tuple(r * 2.0 * np.sqrt(2.0) for r in at)
            vec = evolve_dense(chain_hamiltonian(*couplings(3, 2.0), fields), basis_vec(3, 0), 0.3)
            assert np.max(np.abs(gamma - covariance_ref(vec, 3))) < 1e-12, at


def _dense_fidelity(lam: float, t: float, ratios: tuple[float, ...]) -> float:
    """Fidelity from the dense expm reference, fields as ratios of lam * sqrt(2)."""
    zero = basis_vec(3, 0)
    fields = tuple(r * lam * np.sqrt(2.0) for r in ratios)
    ideal = evolve_dense(chain_hamiltonian(*couplings(3, lam)), zero, t)
    actual = evolve_dense(chain_hamiltonian(*couplings(3, lam), fields), zero, t)
    return abs(np.vdot(ideal, actual))


def test_study_matches_oracle_away_from_the_defaults():
    results = field_sweep(ChainSpec(3, 2.0), grid_points=3, b3_ratios=(0.0, 0.1), t_star=0.3)
    assert [r.b3_ratio for r in results] == [0.0, 0.1]
    for result in results:
        assert len(result.grid) == 9
        for b1, b2, fid in result.grid:
            expected = _dense_fidelity(2.0, 0.3, (b1, b2, result.b3_ratio))
            assert fid == pytest.approx(expected, abs=1e-12)
    expected = _dense_fidelity(2.0, 0.3, tuple(1.3 * r for r in REFERENCE_FIELD_RATIOS))
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
