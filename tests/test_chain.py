import dataclasses
import math

import numpy as np
import pytest

import bellchain.chain
from bellchain import (
    ChainSpec,
    HamiltonianTerms,
    Pattern,
    PauliString,
    ValidationError,
    build_hamiltonian,
    load_chain_config,
    matryoshka_couplings,
    perfect_transfer_couplings,
    save_chain_config,
)
from _helpers import random_custom_spec
from _reference import spec_hamiltonian, terms_hamiltonian


def test_perfect_transfer_couplings_values():
    # J_i = lam * sqrt(i (N - i))
    assert perfect_transfer_couplings(3, 1.0) == pytest.approx(
        (math.sqrt(2), math.sqrt(2))
    )
    assert perfect_transfer_couplings(5, 2.0) == pytest.approx(
        (4.0, 2 * math.sqrt(6), 2 * math.sqrt(6), 4.0)
    )
    with pytest.raises(ValidationError):
        perfect_transfer_couplings(3, float("nan"))


def test_couplings_are_mirror_symmetric():
    for n in (3, 5, 7, 9, 11):
        j = perfect_transfer_couplings(n, 1.3)
        assert j == pytest.approx(tuple(reversed(j)))


def test_matryoshka_pattern_zeroes_alternate():
    j_x, j_y = matryoshka_couplings(7, 1.0)
    pt = perfect_transfer_couplings(7, 1.0)
    for bond in range(1, 7):
        if bond % 2 == 1:  # odd bonds carry YY only
            assert j_x[bond - 1] == 0.0
            assert j_y[bond - 1] == pytest.approx(pt[bond - 1])
        else:
            assert j_x[bond - 1] == pytest.approx(pt[bond - 1])
            assert j_y[bond - 1] == 0.0


def test_spec_validation():
    with pytest.raises(ValidationError):
        ChainSpec(4)
    with pytest.raises(ValidationError):
        ChainSpec(3, lam=0.0)
    with pytest.raises(ValidationError):
        ChainSpec(3, fields_b=(0.1, 0.2))  # wrong length
    with pytest.raises(ValidationError):
        ChainSpec(3, j_x=(1.0, 1.0), j_y=(1.0, 1.0))  # arrays need CUSTOM
    with pytest.raises(ValidationError):
        ChainSpec(3, pattern=Pattern.CUSTOM)  # CUSTOM needs arrays
    with pytest.raises(ValidationError):
        ChainSpec(3, lam=float("nan"))
    with pytest.raises(ValidationError):
        ChainSpec(3, fields_b=(0.0, float("inf"), 0.0))
    with pytest.raises(ValidationError):
        ChainSpec(3, pattern=Pattern.CUSTOM, j_x=(1.0, float("nan")), j_y=(1.0, 1.0))
    with pytest.raises(ValidationError):
        ChainSpec(13, 1e308)  # the middle couplings overflow to inf


def test_spec_coerces_its_pattern():
    # a pattern's value is read as the pattern; anything else is a ValidationError
    spec = ChainSpec(7, pattern="perfect-transfer")
    assert spec.pattern is Pattern.PERFECT_TRANSFER
    assert spec == ChainSpec(7, pattern=Pattern.PERFECT_TRANSFER)
    for pattern in ("bogus", "MATRYOSHKA", None, 2, ["matryoshka"]):
        with pytest.raises(ValidationError, match="unknown coupling pattern"):
            ChainSpec(5, pattern=pattern)


@pytest.mark.parametrize("pattern", [Pattern.MATRYOSHKA_ALTERNATING, Pattern.PERFECT_TRANSFER])
def test_spec_resolves_its_couplings_once(monkeypatch, pattern):
    base = perfect_transfer_couplings(7, 1.3)
    expected = matryoshka_couplings(7, 1.3) if pattern.value == "matryoshka" else (base, base)
    calls = []

    def counting(n_sites, lam):
        calls.append((n_sites, lam))
        return base

    monkeypatch.setattr(bellchain.chain, "perfect_transfer_couplings", counting)
    spec = ChainSpec(7, 1.3, pattern)
    assert spec.couplings() == spec.couplings() == expected
    assert calls == [(7, 1.3)]
    # the resolved couplings are no dataclass field: equality, hash and repr are the fields'
    twin = ChainSpec(7, 1.3, pattern)
    assert spec == twin and hash(spec) == hash(twin)
    assert [f.name for f in dataclasses.fields(spec)] == [
        "n_sites", "lam", "pattern", "fields_b", "j_x", "j_y"
    ]
    assert repr(spec) == (
        f"ChainSpec(n_sites=7, lam=1.3, pattern={pattern!r}, fields_b={(0.0,) * 7!r}, "
        "j_x=None, j_y=None)"
    )
    assert dataclasses.replace(spec, fields_b=(0.1,) * 7).couplings() == expected


def test_spec_defaults_to_zero_fields():
    spec = ChainSpec(5)
    assert spec.fields_b == (0.0,) * 5
    assert spec.pattern is Pattern.MATRYOSHKA_ALTERNATING


def test_hamiltonian_term_ordering():
    # bonds ascending, XX before YY, then fields by site; zeros dropped
    spec = ChainSpec(
        3,
        pattern=Pattern.CUSTOM,
        fields_b=(0.5, 0.0, -0.25),
        j_x=(1.0, 2.0),
        j_y=(3.0, 0.0),
    )
    h = build_hamiltonian(spec)
    listing = [(w, s.letters) for w, s in h.terms]
    assert listing == [
        (1.0, "XXI"),
        (3.0, "YYI"),
        (2.0, "IXX"),
        (0.5, "ZII"),
        (-0.25, "IIZ"),
    ]


def test_matryoshka_hamiltonian_drops_zero_bonds():
    h = build_hamiltonian(ChainSpec(5))
    letters = [s.letters for _, s in h.terms]
    assert letters == ["YYIII", "IXXII", "IIYYI", "IIIXX"]


def test_dense_matches_term_sum():
    spec = ChainSpec(3, fields_b=(0.1, 0.2, 0.3))
    h = build_hamiltonian(spec)
    manual = sum(w * s.dense() for w, s in h.terms)
    np.testing.assert_allclose(h.dense(), manual, atol=1e-14)
    np.testing.assert_allclose(h.dense(), h.dense().conj().T, atol=1e-14)


@pytest.mark.parametrize("n", [3, 7])
def test_chain_hamiltonians_and_their_sectors_are_built_real(n):
    rng = np.random.default_rng(n)
    fields = tuple(rng.uniform(-1.0, 1.0, size=n))
    custom = random_custom_spec(rng, n)
    specs = [
        ChainSpec(n),
        ChainSpec(n, fields_b=fields),
        ChainSpec(n, pattern=Pattern.PERFECT_TRANSFER),
        ChainSpec(n, 0.8, Pattern.PERFECT_TRANSFER, fields),
        dataclasses.replace(custom, fields_b=()),
        custom,
    ]
    for spec in specs:
        h = build_hamiltonian(spec)
        reference = spec_hamiltonian(spec)
        dense = h.dense()
        assert dense.dtype == np.float64
        np.testing.assert_allclose(dense, reference, rtol=0, atol=1e-15)
        sectors = h._parity_sectors
        assert len(sectors) == 2
        for idx, sector in sectors:
            block = sector.dense()
            assert block.dtype == np.float64
            np.testing.assert_allclose(block, reference[np.ix_(idx, idx)], rtol=0, atol=1e-15)


def test_odd_y_terms_keep_a_complex_dense():
    # XY - YX (a Dzyaloshinskii-Moriya bond) has imaginary matrix elements
    terms = ((0.6, "XYIII"), (-0.6, "YXIII"), (0.9, "IXXII"), (0.4, "IIYYI"), (0.2, "ZIIIZ"))
    reference = terms_hamiltonian(5, terms)
    assert reference.imag.any()
    h = HamiltonianTerms(5, tuple((w, PauliString.from_letters(s)) for w, s in terms))
    dense = h.dense()
    assert dense.dtype == np.complex128
    np.testing.assert_allclose(dense, reference, rtol=0, atol=1e-15)
    for idx, sector in h._parity_sectors:
        block = sector.dense()
        assert block.dtype == np.complex128
        np.testing.assert_allclose(block, reference[np.ix_(idx, idx)], rtol=0, atol=1e-15)


def test_apply_matches_dense():
    rng = np.random.default_rng(2)
    spec = ChainSpec(5, lam=0.7, fields_b=tuple(rng.uniform(-1, 1, size=5)))
    h = build_hamiltonian(spec)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    np.testing.assert_allclose(h.apply(amps), h.dense() @ amps, atol=1e-12)


def test_config_round_trip(tmp_path):
    path = tmp_path / "chain.cfg"
    original = ChainSpec(5, lam=0.37, fields_b=(0.1, -0.2, 0.3, 0.0, 1e-3))
    save_chain_config(original, str(path))
    loaded = load_chain_config(str(path))
    assert loaded == original


def test_config_round_trip_custom(tmp_path):
    path = tmp_path / "chain.cfg"
    original = ChainSpec(
        3,
        pattern=Pattern.CUSTOM,
        fields_b=(0.25, 0.0, -0.125),
        j_x=(1.5, 0.0),
        j_y=(0.0, 2.25),
    )
    save_chain_config(original, str(path))
    assert load_chain_config(str(path)) == original


@pytest.mark.parametrize(
    "spec, text",
    [
        (
            ChainSpec(5, 0.37, Pattern.PERFECT_TRANSFER, (0.1, -0.2, 0.3, 0.0, 1e-3)),
            "n_sites = 5\nlambda = 0.37\npattern = perfect-transfer\n"
            "b_fields = 0.1, -0.2, 0.3, 0.0, 0.001\n",
        ),
        (
            ChainSpec(3, pattern=Pattern.CUSTOM, j_x=(1.5, 0.0), j_y=(0.0, 2.25)),
            "n_sites = 3\nlambda = 1.0\npattern = custom\nb_fields = 0.0, 0.0, 0.0\n"
            "j_x = 1.5, 0.0\nj_y = 0.0, 2.25\n",
        ),
    ],
    ids=["built-in", "custom"],
)
def test_config_file_bytes(tmp_path, spec, text):
    path = tmp_path / "chain.cfg"
    save_chain_config(spec, str(path))
    assert path.read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize(
    "text, message",
    [
        ("n_sites = 3\npattern = bogus\n", "unknown coupling pattern 'bogus'"),
        ("n_sites = 4\n", "chain length must be odd"),
        ("n_sites = 3\npattern = custom\n", "custom pattern requires explicit j_x and j_y"),
    ],
    ids=["pattern", "chain-length", "custom-arrays"],
)
def test_config_errors_name_the_file(tmp_path, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ValidationError, match=message) as info:
        load_chain_config(str(path))
    assert str(info.value).startswith(f"{path}: ")


def test_config_rejects_unknown_and_duplicate_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n_sites = 3\nbogus = 1\n")
    with pytest.raises(ValidationError):
        load_chain_config(str(path))
    path.write_text("n_sites = 3\nn_sites = 5\n")
    with pytest.raises(ValidationError):
        load_chain_config(str(path))


def test_config_allows_comments_and_blanks(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text("# three sites\n\nn_sites = 3\nlambda = 2.0\n")
    spec = load_chain_config(str(path))
    assert spec.n_sites == 3
    assert spec.lam == 2.0
