import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from bellchain import (
    BellchainError,
    BellLabel,
    ChainSpec,
    DensityMatrix,
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
    bit_label,
    build_hamiltonian,
    closest_bell,
    concurrence,
    conveyor_run,
    extract_pair,
    field_sweep,
    flux_check,
    gate_apply,
    ghz_protocol,
    heisenberg_evolve,
    load_chain_config,
    matryoshka_couplings,
    matryoshka_time,
    mirror_pair_sign,
    perfect_transfer_couplings,
    purity,
    reduced_density,
    reference_point_fidelity,
    verify_free_fermion,
    verify_matryoshka,
)
from bellchain.pauli import _bit_labels, _mask_action
from _reference import letters_at, letters_dense

X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_single_letter_dense_matches_kron():
    for letters in ("X", "Y", "Z", "I"):
        np.testing.assert_allclose(
            PauliString.from_letters(letters).dense(), letters_dense(letters), atol=1e-15
        )


def test_multi_letter_dense_matches_kron():
    rng = np.random.default_rng(7)
    alphabet = np.array(list("IXYZ"))
    for _ in range(30):
        n = int(rng.integers(1, 6))
        letters = "".join(rng.choice(alphabet, size=n))
        np.testing.assert_allclose(
            PauliString.from_letters(letters).dense(), letters_dense(letters), atol=1e-15
        )


@pytest.mark.parametrize("n", [1, 5, 62, 64, 65, 101])
def test_mask_action_on_one_index_of_any_length(n):
    # one Python int index takes strings longer than the 64 bits of an int64 array
    rng = np.random.default_rng(n)
    for _ in range(20):
        x, z, idx = (int("".join(rng.choice(["0", "1"], size=n)), 2) for _ in range(3))
        row, value = _mask_action(PauliString(n, x, z), idx)
        assert row == idx ^ x
        assert value == 1j ** (x & z).bit_count() * (-1) ** (idx & z).bit_count()
        if n < 63:
            rows, values = _mask_action(PauliString(n, x, z), np.array([idx], dtype=np.int64))
            assert (rows[0], values[0]) == (row, value)


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
    with pytest.raises(ValidationError, match="power of two"):
        StateVector([])


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


@pytest.mark.parametrize("n_sites", range(1, 11))
def test_vectorised_labels_equal_bit_label_at_every_index(n_sites):
    # site 1 first: the reversed binary numeral, independent of either implementation
    expected = [format(i, f"0{n_sites}b")[::-1] for i in range(1 << n_sites)]
    assert _bit_labels(np.arange(1 << n_sites), n_sites) == expected
    assert [bit_label(i, n_sites) for i in range(1 << n_sites)] == expected


def test_bit_label_takes_python_and_numpy_integers_of_any_length():
    assert bit_label(np.int64(6), 4) == "0110"
    assert bit_label((1 << 70) | 1, 71) == "1" + "0" * 69 + "1"


def test_dominant_components_are_labels_and_python_complex():
    rng = np.random.default_rng(3205)
    state = StateVector(rng.normal(size=1 << 9) + 1j * rng.normal(size=1 << 9), normalize=True)
    components = state.dominant_components()
    assert len(components) == 1 << 9
    for label, amp in components:
        assert type(amp) is complex
        assert amp == state.amplitudes[int(label[::-1], 2)]


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
        dense = letters_dense(letters_at(5, {site: "H"}))
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


def _schedule(central_value=1, p=1):
    return MatryoshkaSchedule(3, central_value, (((p, 3), BellLabel.PSI_PLUS),)).to_json_dict()


# every integer parameter: a call taking the value, and a valid value for it
_INT_CALLS = {
    **{name: (run, 2) for name, run in _SITE_CALLS.items()},
    "PauliString n_sites": (lambda n: PauliString(n, 1, 0), 3),
    "PauliString x_mask": (lambda m: PauliString(3, m, 0), 2),
    "PauliString z_mask": (lambda m: PauliString(3, 0, m), 2),
    "ChainSpec n_sites": (lambda n: ChainSpec(n), 3),
    "StateVector.zero_state n_sites": (lambda n: StateVector.zero_state(n).amplitudes, 3),
    "HamiltonianTerms n_sites": (lambda n: HamiltonianTerms(n, ()).dense(), 3),
    "bell_schedule n_sites": (lambda n: bell_schedule(n), 3),
    "conveyor_run rounds": (
        lambda r: [rec.to_json_dict() for rec in conveyor_run(ChainSpec(3), r)],
        1,
    ),
    "field_sweep grid_points": (lambda g: field_sweep(ChainSpec(3), g, (0.05,)), 2),
    "mirror_pair_sign pair_index": (lambda i: mirror_pair_sign(5, i), 1),
    "MatryoshkaSchedule pair site": (lambda p: _schedule(p=p), 1),
    "bell_product_amplitudes central_site": (
        lambda c: bell_product_amplitudes(3, [], c, 0).tolist(),
        2,
    ),
    "bell_product_amplitudes central_value": (
        lambda v: bell_product_amplitudes(3, [], 2, v).tolist(),
        1,
    ),
    "bell_product_amplitudes pair site": (
        lambda p: bell_product_amplitudes(3, [(p, 3, BellLabel.PSI_PLUS)], 2, 0).tolist(),
        1,
    ),
}


@pytest.mark.parametrize("call", sorted(_INT_CALLS))
def test_integer_parameters_are_checked(call):
    run, good = _INT_CALLS[call]
    for bad in (1.5, 2.0, "3", None):
        with pytest.raises(ValidationError, match="must be an integer"):
            run(bad)
    # a numpy integer gives the very result of the equal Python int
    assert repr(run(np.int64(good))) == repr(run(good))


def _evolve(weight=1.0, t=1.0, method="eigen"):
    h = HamiltonianTerms(3, ((weight, PauliString(3, 3, 0)), (0.5, PauliString(3, 0, 4))))
    return Propagator(h, method).evolve(StateVector.from_bits("100"), t).amplitudes


# every real parameter: a call taking the value, and a valid value for it
_REAL_CALLS = {
    "ChainSpec lam": (lambda lam: ChainSpec(3, lam), 1.5),
    "ChainSpec field": (lambda b: ChainSpec(3, fields_b=(0.0, b, 0.0)), 0.25),
    "ChainSpec custom coupling": (
        lambda j: ChainSpec(3, pattern=Pattern.CUSTOM, j_x=(j, 0.0), j_y=(0.0, 1.0)),
        0.5,
    ),
    "Propagator.evolve eigen time": (lambda t: _evolve(t=t), 0.7),
    "Propagator.evolve krylov time": (lambda t: _evolve(t=t, method="krylov"), 0.7),
    "heisenberg_evolve time": (
        lambda t: heisenberg_evolve(build_hamiltonian(ChainSpec(3)), PauliString(3, 1, 0), t),
        0.7,
    ),
    "matryoshka_time lam": (matryoshka_time, 2.0),
    "reference_point_fidelity scale": (reference_point_fidelity, 1.5),
    "field_sweep b3 ratio": (lambda b: field_sweep(ChainSpec(3), 2, (b,)), 0.05),
    "HamiltonianTerms weight eigen": (lambda w: _evolve(weight=w), 0.5),
    "HamiltonianTerms weight krylov": (lambda w: _evolve(weight=w, method="krylov"), 0.5),
}


@pytest.mark.parametrize("call", sorted(_REAL_CALLS))
def test_real_parameters_are_checked(call):
    run, good = _REAL_CALLS[call]
    for bad in ("1", "a", 1j, None, float("nan")):
        with pytest.raises(ValidationError, match="must be finite"):
            run(bad)
    # a numpy float gives the very result of the equal Python float
    assert repr(run(np.float64(good))) == repr(run(good))


# inputs that once escaped the checks: a call, the value it once let through
# with a raw TypeError, ValueError or a float kept, and a valid value for it
_UNCHECKED_CALLS = {
    "ChainSpec fields_b": (lambda b: ChainSpec(3, fields_b=b), 1.0, (0.0, 0.5, 0.0)),
    "bell_product_amplitudes n_sites": (
        lambda n: bell_product_amplitudes(n, [], 2, 0).tolist(),
        3.0,
        3,
    ),
    "ChainSpec lam past the int print limit": (lambda lam: ChainSpec(3, lam), 10**5000, 2),
    "MatryoshkaSchedule central_value": (_schedule, 1.0, 1),
    "PauliString.from_letters letter": (PauliString.from_letters, [1, 2], "XY"),
    "HamiltonianTerms string": (
        lambda s: HamiltonianTerms(3, ((1.0, s),)).dense().tolist(),
        "XXI",
        PauliString.from_letters("XXI"),
    ),
}


@pytest.mark.parametrize("call", sorted(_UNCHECKED_CALLS))
def test_unchecked_inputs_raise_validation_error_or_give_plain_numbers(call):
    run, bad, good = _UNCHECKED_CALLS[call]
    with pytest.raises(ValidationError):
        run(bad)
    # numpy values give the very result of the equal plain numbers
    assert repr(run(np.array(good)[()])) == repr(run(good))


def _spec(n, pattern):
    """An n-site spec of ``pattern``, with coupling arrays when it reads as custom."""
    if pattern in (Pattern.CUSTOM, "custom"):
        return ChainSpec(n, pattern=pattern, j_x=(1.0,) * (n - 1), j_y=(0.5,) * (n - 1))
    return ChainSpec(n, pattern=pattern)


def _bell_pairs(n, label):
    """The mirror pairs of an n-site chain: ``label`` on the outer pair, psi+ inside."""
    return [((p, n + 1 - p), label if p == 1 else BellLabel.PSI_PLUS) for p in range(1, (n + 1) // 2)]


# every enum-valued input: a call taking the value on an n-site chain, and its enum
_CHOICE_CALLS = {
    "ChainSpec pattern": (_spec, Pattern),
    "bell_schedule initial": (lambda n, s: bell_schedule(n, s), InitialState),
    "verify_free_fermion initial": (
        lambda n, s: verify_free_fermion(ChainSpec(n), 0.7, s),
        InitialState,
    ),
    "MatryoshkaSchedule label": (
        lambda n, b: MatryoshkaSchedule(n, 0, tuple(_bell_pairs(n, b))),
        BellLabel,
    ),
    "bell_state label": (lambda n, b: bell_state(b).tolist(), BellLabel),
    "bell_product_amplitudes label": (
        lambda n, b: bell_product_amplitudes(
            n, [(p, q, label) for (p, q), label in _bell_pairs(n, b)], (n + 1) // 2, 1
        ).tolist(),
        BellLabel,
    ),
}


@pytest.mark.parametrize("call", sorted(_CHOICE_CALLS))
def test_enum_inputs_take_the_member_or_its_value(call):
    run, kind = _CHOICE_CALLS[call]
    rng = np.random.default_rng(3030)
    for n in rng.choice((3, 5, 7, 9), size=3):
        for member in kind:
            assert repr(run(n, member.value)) == repr(run(n, member))
        for bad in (None, 3, ["psi+"], "bogus"):
            with pytest.raises(ValidationError, match="unknown"):
                run(n, bad)


def _routes(n):
    """Each route an n-site spec runs on: a call taking the spec."""
    def evolve(method):
        return lambda spec: Propagator(build_hamiltonian(spec), method).evolve(
            StateVector.zero_state(n), 0.5
        )

    return {
        "eigen": evolve("eigen"),
        "krylov": evolve("krylov"),
        "covariance": lambda spec: verify_free_fermion(spec, 0.5),
    }


# the numbers a spec carries: a spec built from the value on an n-site chain
_SPEC_NUMBERS = {
    "lam": lambda n, v: ChainSpec(n, v),
    "fields_b": lambda n, v: ChainSpec(n, fields_b=(v,) * n),
    "j_x": lambda n, v: ChainSpec(n, pattern="custom", j_x=(v,) * (n - 1), j_y=(1.0,) * (n - 1)),
    "j_y": lambda n, v: ChainSpec(n, pattern="custom", j_x=(1.0,) * (n - 1), j_y=(v,) * (n - 1)),
}


def _terms(n, weight):
    return HamiltonianTerms(n, ((weight, PauliString(n, 3, 0)), (1.0, PauliString(n, 0, 1))))


def _config(text):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "chain.cfg"
        path.write_text(text, encoding="utf-8")
        return load_chain_config(str(path))


def _pairs(n, site):
    return tuple(((p, n + 1 - p), "psi+") for p in range(1, (n + 1) // 2) if p != 1) + (
        ((site, n), "psi+"),
    )


# every numeric input of the public functions and constructors: a call taking
# the value on an n-site chain.  Arrays are filled with the value.  Left out:
# the enums, the errors and the result records, which check nothing and only
# carry what the library computed, and sweep_to_csv and sweep_summary, which
# format those records
_NUMBER_CALLS = {
    **{
        f"ChainSpec {number} on the {route} route": (
            lambda n, v, number=number, route=route: _routes(n)[route](_SPEC_NUMBERS[number](n, v))
        )
        for number in _SPEC_NUMBERS
        for route in ("eigen", "krylov", "covariance")
    },
    **{
        f"HamiltonianTerms weight on the {route} route": (
            lambda n, v, route=route: Propagator(_terms(n, v), route).evolve(
                StateVector.zero_state(n), 0.5
            )
        )
        for route in ("eigen", "krylov")
    },
    **{
        f"Propagator.evolve {route} time": (
            lambda n, v, route=route: Propagator(build_hamiltonian(ChainSpec(n)), route).evolve(
                StateVector.zero_state(n), v
            )
        )
        for route in ("eigen", "krylov")
    },
    "ChainSpec n_sites": lambda n, v: ChainSpec(v),
    "HamiltonianTerms n_sites": lambda n, v: HamiltonianTerms(v, ()),
    "perfect_transfer_couplings n_sites": lambda n, v: perfect_transfer_couplings(v, 1.0),
    "perfect_transfer_couplings lam": lambda n, v: perfect_transfer_couplings(n, v),
    "matryoshka_couplings n_sites": lambda n, v: matryoshka_couplings(v, 1.0),
    "matryoshka_couplings lam": lambda n, v: matryoshka_couplings(n, v),
    "matryoshka_time lam": lambda n, v: matryoshka_time(v),
    "heisenberg_evolve t": lambda n, v: heisenberg_evolve(
        build_hamiltonian(ChainSpec(n)), PauliString(n, 1, 0), v
    ),
    "PauliString n_sites": lambda n, v: PauliString(v, 1, 0),
    "PauliString x_mask": lambda n, v: PauliString(n, v, 0),
    "PauliString z_mask": lambda n, v: PauliString(n, 0, v),
    "PauliString.single n_sites": lambda n, v: PauliString.single(v, 1, "X"),
    "PauliString.single site": lambda n, v: PauliString.single(n, v, "X"),
    "StateVector amplitudes": lambda n, v: StateVector([v] + [0.0] * ((1 << n) - 1)),
    "StateVector amplitudes normalized": lambda n, v: StateVector([v] * (1 << n), normalize=True),
    "StateVector.zero_state n_sites": lambda n, v: StateVector.zero_state(v),
    "bit_label index": lambda n, v: bit_label(v, n),
    "bit_label n_sites": lambda n, v: bit_label(1, v),
    "gate_apply site": lambda n, v: gate_apply(StateVector.zero_state(n), v, X),
    "gate_apply gate": lambda n, v: gate_apply(StateVector.zero_state(n), 1, [[v, v], [v, v]]),
    "reduced_density site": lambda n, v: reduced_density(StateVector.zero_state(n), (v,)),
    "DensityMatrix site": lambda n, v: DensityMatrix((v,), np.eye(2) / 2),
    "DensityMatrix matrix": lambda n, v: DensityMatrix((1,), [[v, v], [v, v]]),
    "purity rho": lambda n, v: purity([[v, v], [v, v]]),
    "concurrence rho": lambda n, v: concurrence([[v] * 4] * 4),
    "closest_bell vector": lambda n, v: closest_bell([v] * 4),
    "closest_bell density": lambda n, v: closest_bell([[v] * 4] * 4),
    "bell_schedule n_sites": lambda n, v: bell_schedule(v),
    "MatryoshkaSchedule n_sites": lambda n, v: MatryoshkaSchedule(v, 0, ()),
    "MatryoshkaSchedule central_value": lambda n, v: MatryoshkaSchedule(n, v, _pairs(n, 1)),
    "MatryoshkaSchedule pair site": lambda n, v: MatryoshkaSchedule(n, 0, _pairs(n, v)),
    "bell_product_amplitudes n_sites": lambda n, v: bell_product_amplitudes(v, [], 1, 0),
    "bell_product_amplitudes central_site": lambda n, v: bell_product_amplitudes(n, [], v, 0),
    "bell_product_amplitudes central_value": lambda n, v: bell_product_amplitudes(n, [], 1, v),
    "bell_product_amplitudes pair site": (
        lambda n, v: bell_product_amplitudes(n, [(v, n, "psi+")], 2, 0)
    ),
    "mirror_pair_sign n_sites": lambda n, v: mirror_pair_sign(v, 1),
    "mirror_pair_sign pair_index": lambda n, v: mirror_pair_sign(n, v),
    "verify_free_fermion t": lambda n, v: verify_free_fermion(ChainSpec(n), v),
    "flux_check t": lambda n, v: flux_check(ChainSpec(n), v),
    "ghz_protocol t_star": lambda n, v: ghz_protocol(ChainSpec(n), v),
    "conveyor_run rounds": lambda n, v: conveyor_run(ChainSpec(n), v),
    "conveyor_run t_star": lambda n, v: conveyor_run(ChainSpec(n), 1, v),
    "field_sweep grid_points": lambda n, v: field_sweep(ChainSpec(3), v, (0.05,)),
    "field_sweep b3_ratios": lambda n, v: field_sweep(ChainSpec(3), 2, (v,)),
    "field_sweep t_star": lambda n, v: field_sweep(ChainSpec(3), 2, (0.05,), v),
    "reference_point_fidelity scale": lambda n, v: reference_point_fidelity(v),
    "reference_point_fidelity lam": lambda n, v: reference_point_fidelity(1.0, v),
    "reference_point_fidelity t_star": lambda n, v: reference_point_fidelity(1.0, 1.0, v),
    **{
        f"load_chain_config {key}": lambda n, v, key=key: _config(
            f"n_sites = {n}\n{key} = {v}\n" if key != "n_sites" else f"n_sites = {v}\n"
        )
        for key in ("n_sites", "lambda", "b_fields")
    },
}
# 71 and 10**400 + 1 are valid, odd chain lengths whose states no host can hold
_ODD_NUMBERS = (
    math.nan, math.inf, -math.inf, 1e308, 10**400, -1, 0, True, np.float64("nan"), 71, 10**400 + 1
)


@pytest.mark.parametrize("call", sorted(_NUMBER_CALLS))
def test_numeric_inputs_return_or_raise_a_bellchain_error_without_a_warning(call):
    run = _NUMBER_CALLS[call]
    rng = np.random.default_rng(3033)
    for value in _ODD_NUMBERS:
        n = int(rng.choice((3, 5, 7)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                run(n, value)
            except BellchainError:
                pass  # ValidationError is one too


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
    # 1 or 2 distinct integer sites, each >= 1, as reduced_density requires
    for sites, match in (((1, 1), "duplicate"), ((0,), "outside"), ((), "1 or 2 sites")):
        dim = 1 << len(sites)
        with pytest.raises(ValidationError, match=match):
            DensityMatrix(sites, np.eye(dim, dtype=complex) / dim)
    with pytest.raises(ValidationError, match="must be an integer"):
        DensityMatrix((1.5,), np.eye(2, dtype=complex) / 2)
    assert repr(DensityMatrix((np.int64(3), 1), np.eye(4) / 4).sites) == "(3, 1)"


def test_density_matrix_leaves_the_callers_array_writable():
    m = np.eye(2, dtype=complex) / 2
    rho = DensityMatrix((1,), m)
    m[0, 0] = 0.25
    assert rho.matrix[0, 0] == 0.5
    assert not rho.matrix.flags.writeable
