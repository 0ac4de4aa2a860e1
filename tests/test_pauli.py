import numpy as np
import pytest

from bellchain import (
    DensityMatrix,
    PauliString,
    StateVector,
    ValidationError,
    bell_schedule,
    bit_label,
    closest_bell,
    extract_pair,
    gate_apply,
    purity,
    reduced_density,
    verify_matryoshka,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": np.eye(2, dtype=complex), "X": X, "Y": Y, "Z": Z}


def kron_dense(letters: str) -> np.ndarray:
    # letters are site-ordered (site 1 first); site 1 is the least
    # significant bit, so site N goes leftmost in the Kronecker product
    out = np.eye(1, dtype=complex)
    for letter in reversed(letters):
        out = np.kron(out, MATS[letter])
    return out


def test_single_letter_dense_matches_kron():
    for letters in ("X", "Y", "Z", "I"):
        np.testing.assert_allclose(
            PauliString.from_letters(letters).dense(), kron_dense(letters), atol=1e-15
        )


def test_multi_letter_dense_matches_kron():
    rng = np.random.default_rng(7)
    alphabet = np.array(list("IXYZ"))
    for _ in range(30):
        n = int(rng.integers(1, 6))
        letters = "".join(rng.choice(alphabet, size=n))
        np.testing.assert_allclose(
            PauliString.from_letters(letters).dense(), kron_dense(letters), atol=1e-15
        )


def test_letters_round_trip():
    string = PauliString.from_letters("XIZY")
    assert string.letters == "XIZY"
    assert string.n_sites == 4


def test_masks_must_be_integers():
    for args in ((3, 1.5, 0), (3, 0, 2.0), (3, "1", 0), (3.0, 0, 0)):
        with pytest.raises(ValidationError, match="must be an integer"):
            PauliString(*args)
    # numpy integers are integers
    string = PauliString(3, np.int64(3), np.int64(1))
    assert string.letters == "YXI"


def test_single_site_constructor():
    string = PauliString.single(5, 3, "Y")
    assert string.letters == "IIYII"


def test_bit_order_site_one_is_lsb():
    # site-ordered label "110": sites 1 and 2 up -> index 3
    state = StateVector.from_bits("110")
    assert state.amplitudes[3] == pytest.approx(1.0)
    assert bit_label(3, 3) == "110"
    # Z on site 1 flips the sign of any odd index
    amps = state.amplitudes
    assert np.vdot(amps, PauliString.single(3, 1, "Z").dense() @ amps) == pytest.approx(-1.0)
    assert np.vdot(amps, PauliString.single(3, 3, "Z").dense() @ amps) == pytest.approx(1.0)


def test_state_rejects_even_or_tiny_chains():
    with pytest.raises(ValidationError):
        StateVector(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(ValidationError):
        StateVector.zero_state(1)


def test_state_requires_normalization():
    amps = np.zeros(8, dtype=complex)
    amps[0] = 2.0
    with pytest.raises(ValidationError):
        StateVector(amps)
    state = StateVector(amps, normalize=True)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0)


def test_amplitudes_are_read_only():
    state = StateVector.zero_state(3)
    with pytest.raises((ValueError, RuntimeError)):
        state.amplitudes[0] = 0.5


def test_dominant_components_sorted_and_labeled():
    amps = np.zeros(8, dtype=complex)
    amps[0] = 0.8
    amps[5] = 0.6j
    state = StateVector(amps)
    components = state.dominant_components()
    assert components[0] == ("000", pytest.approx(0.8))
    assert components[1][0] == "101"  # index 5: sites 1 and 3 up


def test_dominant_components_ties_fall_to_basis_index():
    rng = np.random.default_rng(3)
    for _ in range(20):
        amps = (1.0 + rng.uniform(-1e-16, 1e-16, size=8)) / np.sqrt(8)
        state = StateVector(amps * rng.choice([1.0, -1.0, 1j], size=8))
        labels = [label for label, _ in state.dominant_components()]
        assert labels == [bit_label(i, 3) for i in range(8)]
    # a real gap still orders by magnitude
    amps = np.full(8, 0.25, dtype=complex)
    amps[6] = np.sqrt(0.25)
    assert StateVector(amps, normalize=True).dominant_components()[0][0] == "011"


def test_gate_apply_requires_unitary():
    state = StateVector.zero_state(3)
    with pytest.raises(ValidationError):
        gate_apply(state, 1, np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))


def test_gate_apply_rejects_non_finite_gate():
    # NaN slips past the unitarity test, since NaN > tol is False
    state = StateVector.zero_state(3)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError):
            gate_apply(state, 1, [[bad, 0.0], [0.0, 1.0]])


def test_gate_apply_matches_dense():
    rng = np.random.default_rng(5)
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    amps /= np.linalg.norm(amps)
    state = StateVector(amps)
    for site in range(1, 6):
        dense = np.eye(1, dtype=complex)
        for s in range(5, 0, -1):
            dense = np.kron(dense, hadamard if s == site else np.eye(2))
        np.testing.assert_allclose(
            gate_apply(state, site, hadamard).amplitudes, dense @ amps, atol=1e-12
        )


def test_reduced_density_first_listed_site_is_msb():
    # |10>_{12} on sites (1,2): site 1 up -> pair index 0b10 = 2
    state = StateVector.from_bits("100")
    rho = reduced_density(state, (1, 2)).matrix
    assert rho[2, 2] == pytest.approx(1.0)
    rho_flipped = reduced_density(state, (2, 1)).matrix
    assert rho_flipped[1, 1] == pytest.approx(1.0)


def test_reduced_density_bell_pair():
    # (|001> + |100>)/sqrt(2): Psi+ on sites (1,3) with site 2 down
    amps = np.zeros(8, dtype=complex)
    amps[1] = amps[4] = 1 / np.sqrt(2)
    state = StateVector(amps)
    rho = reduced_density(state, (1, 3)).matrix
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = expected[1, 2] = expected[2, 1] = 0.5
    np.testing.assert_allclose(rho, expected, atol=1e-12)
    # single-site reduction of a Bell half is maximally mixed
    rho1 = reduced_density(state, (1,)).matrix
    np.testing.assert_allclose(rho1, np.eye(2) / 2, atol=1e-12)


def test_reduced_density_validates_sites():
    state = StateVector.zero_state(3)
    with pytest.raises(ValidationError):
        reduced_density(state, (1, 1))
    with pytest.raises(ValidationError):
        reduced_density(state, (0,))
    with pytest.raises(ValidationError):
        reduced_density(state, (1, 2, 3))


_SITE_CALLS = {
    "reduced_density": lambda site: reduced_density(StateVector.zero_state(3), [site]).matrix,
    "gate_apply": lambda site: gate_apply(StateVector.zero_state(3), site, X).amplitudes,
    "PauliString.single": lambda site: PauliString.single(3, site, "X"),
}


@pytest.mark.parametrize("call", sorted(_SITE_CALLS))
def test_sites_must_be_integers(call):
    run = _SITE_CALLS[call]
    for bad in (1.7, 1.5, 2.0, "1", None):
        with pytest.raises(ValidationError, match="integer"):
            run(bad)
    expected = run(2)
    for good in (np.int64(2), np.int32(2), np.uint8(2)):
        assert np.all(run(good) == expected)


def test_reduced_density_accepts_every_valid_state():
    # the state contract allows a norm error up to 1e-10, so the trace may be 1 + 8e-11
    amps = np.zeros(8, dtype=complex)
    amps[0] = 1 + 4e-11
    state = StateVector(amps)
    rho = reduced_density(state, (1, 3))
    assert rho.matrix[0, 0] == pytest.approx(1.0)
    assert verify_matryoshka(state, bell_schedule(3)).central_purity == pytest.approx(1.0)
    assert extract_pair(state, force=True).purity == pytest.approx(1.0)
    # a matrix passed in from outside still meets the 1e-12 trace check
    with pytest.raises(ValidationError, match="trace"):
        DensityMatrix((1, 3), rho.matrix)
    with pytest.raises(ValidationError, match="trace"):
        purity(rho.matrix)


def test_non_finite_states_and_densities_are_rejected():
    for bad in (np.nan, np.inf):
        amps = np.zeros(8, dtype=complex)
        amps[0] = bad
        for normalize in (False, True):
            with pytest.raises(ValidationError, match="not finite"):
                StateVector(amps, normalize=normalize)
        with pytest.raises(ValidationError, match="non-finite"):
            purity(np.diag([bad, 0.5]))
        with pytest.raises(ValidationError, match="non-finite"):
            DensityMatrix((1,), np.full((2, 2), bad))


def test_non_numeric_amplitudes_are_rejected():
    with pytest.raises(ValidationError, match="amplitudes must be numbers"):
        StateVector(["a"] * 8)


def test_non_numeric_matrices_are_rejected():
    with pytest.raises(ValidationError, match="density matrix must be numbers"):
        purity([["a", "b"], ["c", "d"]])
    with pytest.raises(ValidationError, match="density matrix must be numbers"):
        DensityMatrix((1,), [["a", "b"], ["c", "d"]])
    with pytest.raises(ValidationError, match="gate must be numbers"):
        gate_apply(StateVector.zero_state(3), 1, [["a", "b"], ["c", "d"]])
    with pytest.raises(ValidationError, match="pair must be numbers"):
        closest_bell(["a"] * 4)


def test_density_matrix_validates():
    good = DensityMatrix((1,), np.eye(2, dtype=complex) / 2)
    assert good.sites == (1,)
    with pytest.raises(ValidationError):
        DensityMatrix((1,), np.array([[0.9, 0.0], [0.0, 0.2]], dtype=complex))


def test_density_matrix_leaves_the_callers_array_writable():
    m = np.eye(2, dtype=complex) / 2
    rho = DensityMatrix((1,), m)
    m[0, 0] = 0.25
    assert rho.matrix[0, 0] == 0.5
    assert not rho.matrix.flags.writeable
