import dataclasses
import json
import math
import random
import warnings

import numpy as np
import pytest
import scipy.linalg

from bellchain import (
    BellchainError,
    ChainSpec,
    InitialState,
    Pattern,
    PauliString,
    Propagator,
    StateVector,
    bell_schedule,
    build_hamiltonian,
    matryoshka_time,
    verify_free_fermion,
    verify_matryoshka,
)
from bellchain import fermion
from bellchain.cli import main
import bellchain.chain
import bellchain.pauli
from _helpers import random_custom_spec
from _reference import basis_vec, chain_terms, couplings, covariance_ref, evolve_dense
from _reference import krawtchouk_mirror, letters_dense, majorana_dense, majorana_word
from _reference import nested_amplitudes, product_covariance, rdm, spec_hamiltonian, terms_generator
from _reference import x_state_concurrence

# a time away from t*, where nothing is a Bell pair
T_OFF = 0.37
T_STAR = matryoshka_time()


def start_ref(n: int, initial: str) -> np.ndarray:
    return basis_vec(n, 0 if initial == "all0" else (1 << n) - 1)


def asymmetric_spec(rng: np.random.Generator, n: int) -> ChainSpec:
    """The matryoshka chain with random fields that no mirror maps onto themselves."""
    return ChainSpec(n, fields_b=tuple(rng.uniform(-0.3, 0.3, size=n)))


def generator(spec: ChainSpec) -> np.ndarray:
    """The route's A of ``spec``: its coupling block between the evens and the odds."""
    block = fermion._coupling_block(*spec.couplings(), spec.fields_b)
    a = np.zeros((2 * spec.n_sites,) * 2)
    a[0::2, 1::2], a[1::2, 0::2] = block, -block.T
    return a


@pytest.mark.parametrize("size", [2, 4, 6, 10, 16])
def test_pfaffian_magnitude_and_sign(size):
    rng = np.random.default_rng(size)
    for _ in range(5):
        m = rng.normal(size=(size, size))
        a = m - m.T
        pf = fermion._pfaffian(a)
        assert pf**2 == pytest.approx(np.linalg.det(a), rel=1e-10)
        # Pf(B A B^T) = det(B) Pf(A) fixes the sign as well
        b = rng.normal(size=(size, size))
        assert fermion._pfaffian(b @ a @ b.T) == pytest.approx(np.linalg.det(b) * pf, rel=1e-9)
    # the canonical form: Pf is the product of the upper entries of its 2x2 blocks
    blocks = [1.5, -2.0, 0.25, 3.0, -1.0, 2.0, 0.5, 1.0][: size // 2]
    canonical = np.zeros((size, size))
    for i, value in enumerate(blocks):
        canonical[2 * i, 2 * i + 1], canonical[2 * i + 1, 2 * i] = value, -value
    assert fermion._pfaffian(canonical) == pytest.approx(math.prod(blocks), rel=1e-14)
    # a row swap of both sides flips the sign, and the pivot search must find it
    swap = np.eye(size)[[1, 0, *range(2, size)]]
    assert fermion._pfaffian(swap @ canonical @ swap.T) == pytest.approx(-math.prod(blocks))


def test_pfaffian_of_odd_and_singular_matrices_is_zero():
    assert fermion._pfaffian(np.zeros((3, 3))) == 0.0
    assert fermion._pfaffian(np.zeros((4, 4))) == 0.0


def word_phase_ref(n: int, word, x_mask: int, z_mask: int) -> complex:
    """The phase of ``string`` = phase * c_word, from both applied to |0...0> site by site.

    c_k is X (k even) or Y (k odd) on site k // 2 + 1 with Z below it, so
    on a basis state it flips that site and picks up the sign of the Z
    letters, and i for Y; the string sends |0...0> to i^(number of Y) |x>.
    Also checks that the word sends |0...0> to the same |x>.
    """
    index, value = 0, 1.0 + 0.0j
    for k in reversed(word):
        site = k // 2
        below = index & ((1 << site + k % 2) - 1)
        value *= (1j if k % 2 else 1.0) * (-1) ** bin(below).count("1")
        index ^= 1 << site
    assert index == x_mask
    return 1j ** bin(x_mask & z_mask).count("1") / value


@pytest.mark.parametrize("n", [3, 9, 70])
def test_majorana_word_is_the_product_it_names(n):
    # every string of 3 sites, and random ones of 9 and 70: the reference word is
    # ascending, its Majoranas' masks XOR to the string's, and the phase matches the
    # action on |0...0>; up to 9 sites phase * c_k[0] c_k[1] ... also equals the
    # string as a dense operator
    draw = random.Random(n)
    if n == 3:
        masks = [(x, z) for x in range(8) for z in range(8)]
    else:
        masks = [(draw.getrandbits(n), draw.getrandbits(n)) for _ in range(40)]
    rng = np.random.default_rng(n)
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n) if n <= 9 else None
    for x_mask, z_mask in masks:
        word, phase = majorana_word(n, x_mask, z_mask)
        assert list(word) == sorted(set(word))
        x = z = 0
        for k in word:
            x ^= 1 << k // 2
            z ^= (1 << k // 2 + k % 2) - 1
        assert (x, z) == (x_mask, z_mask)
        assert phase == pytest.approx(word_phase_ref(n, word, x_mask, z_mask), abs=1e-15)
        if vec is not None:
            product = vec
            for k in reversed(word):
                product = majorana_dense(n, k) @ product
            letters = PauliString(n, x_mask, z_mask).letters
            assert np.max(np.abs(phase * product - letters_dense(letters) @ vec)) < 1e-12


@pytest.mark.parametrize("letters", ["XII", "XZI", "ZZI", "XXX"])
def test_terms_that_are_not_majorana_bilinears_are_refused(letters):
    # the reference generator, which the route's block is checked against, takes
    # Majorana bilinears only
    with pytest.raises(ValueError, match="not a free-fermion model"):
        terms_generator(3, [(1.0, letters)])


_PAIR_LETTERS = ("ZI", "IZ", "ZZ", "XX", "XY", "YX", "YY")


def pair_letters(n: int, p: int, q: int, letters: str) -> str:
    """The n-letter word with ``letters`` on sites p and q and I elsewhere."""
    return "".join(letters[0] if s == p else letters[1] if s == q else "I" for s in range(1, n + 1))


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_pair_words_are_the_strings_they_name(n):
    # sign * i^m * c_word, m half the word's length, acts as the pair's string P on a
    # random state, for every site pair, with c_k and P Kronecker products: so
    # P = phase * c_word with phase * (-i)^m = sign, and <P> = sign * Pf(Gamma_word)
    rng = np.random.default_rng(n)
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    cs = [majorana_dense(n, k) for k in range(2 * n)]
    for p in range(1, n):
        for q in range(p + 1, n + 1):
            for (word, sign), letters in zip(fermion._pair_words(p, q), _PAIR_LETTERS):
                product = vec
                for k in reversed(word):
                    product = cs[k] @ product
                string = letters_dense(pair_letters(n, p, q, letters)) @ vec
                assert np.max(np.abs(sign * 1j ** (len(word) // 2) * product - string)) < 1e-12


@pytest.mark.parametrize("n", [51, 101])
def test_pair_words_match_the_reference_words(n):
    # every site pair of a long chain: the closed-form word is the reference word, and
    # the sign is the reference phase times (-i)^m, exactly
    for p in range(1, n):
        for q in range(p + 1, n + 1):
            for (word, sign), letters in zip(fermion._pair_words(p, q), _PAIR_LETTERS):
                x = (letters[0] in "XY") << (p - 1) | (letters[1] in "XY") << (q - 1)
                z = (letters[0] in "YZ") << (p - 1) | (letters[1] in "YZ") << (q - 1)
                ref_word, phase = majorana_word(n, x, z)
                assert word == ref_word, (p, q, letters)
                assert sign == (phase * (-1j) ** (len(word) // 2)).real, (p, q, letters)


@pytest.mark.parametrize("n", [3, 5, 51, 101])
@pytest.mark.parametrize("pattern", ["matryoshka", "perfect-transfer", "custom"])
def test_coupling_block_is_the_reference_generator(n, pattern):
    # the tridiagonal block, entry by entry and bit for bit, against A from the
    # reference words of the chain's terms, built from the plain numbers; that A is
    # zero between two evens and between two odds, so the block holds all of it
    rng = np.random.default_rng(n)
    fields = tuple(rng.uniform(-1.0, 1.0, size=n))
    if pattern == "custom":
        j_x = tuple(rng.uniform(-1.5, 1.5, size=n - 1))
        j_y = (-0.0,) + tuple(rng.uniform(-1.5, 1.5, size=n - 2))
        spec = ChainSpec(n, 1.3, pattern, fields, j_x=j_x, j_y=j_y)
    else:
        j_x, j_y = couplings(n, 1.3, pattern)
        spec = ChainSpec(n, 1.3, pattern, fields)
    for spec_fields in (fields, (0.0,) * n):
        spec = dataclasses.replace(spec, fields_b=spec_fields)
        a = terms_generator(n, chain_terms(j_x, j_y, spec_fields))
        assert not a[0::2, 0::2].any() and not a[1::2, 1::2].any()
        block = fermion._coupling_block(*spec.couplings(), spec.fields_b)
        assert np.array_equal(block, a[0::2, 1::2])
        # no -0.0 either, which the SVD would see as other bits
        assert block.tobytes() == a[0::2, 1::2].tobytes()


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_generator_reproduces_the_hamiltonian(n):
    # H = (i/4) sum_kl A_kl c_k c_l, with c_k from its letters and H from the spec's
    # numbers, applied to random states
    rng = np.random.default_rng(n)
    states = rng.normal(size=(1 << n, 3)) + 1j * rng.normal(size=(1 << n, 3))
    cs = [majorana_dense(n, k) for k in range(2 * n)]
    for spec in (random_custom_spec(rng, n), asymmetric_spec(rng, n)):
        a = generator(spec)
        h = sum(0.25j * a[k, l] * cs[k] @ (cs[l] @ states) for k, l in zip(*np.nonzero(a)))
        assert np.max(np.abs(h - spec_hamiltonian(spec) @ states)) < 1e-12


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("initial", ["all0", "all1"])
def test_covariance_matches_the_dense_reference(n, initial):
    rng = np.random.default_rng(n)
    for spec in (random_custom_spec(rng, n), asymmetric_spec(rng, n)):
        vec = evolve_dense(spec_hamiltonian(spec), start_ref(n, initial), T_OFF)
        gamma = fermion._evolved_covariance(spec, T_OFF, InitialState(initial))
        assert np.max(np.abs(gamma - covariance_ref(vec, n))) < 1e-10


@pytest.mark.parametrize("n", [3, 5, 7, 9])
@pytest.mark.parametrize("initial", ["all0", "all1"])
def test_start_covariance_is_the_product_state(n, initial):
    # at t = 0 Gamma is the closed-form Gamma(0) of the Z-basis product state
    rng = np.random.default_rng(n)
    expected = covariance_ref(start_ref(n, initial), n)
    assert np.array_equal(expected, product_covariance(n, initial))
    for spec in (ChainSpec(n), random_custom_spec(rng, n), asymmetric_spec(rng, n)):
        gamma = fermion._evolved_covariance(spec, 0.0, InitialState(initial))
        assert np.max(np.abs(gamma - expected)) < 1e-12


@pytest.mark.parametrize("n", [3, 5, 7, 9])
@pytest.mark.parametrize("initial", ["all0", "all1"])
def test_ideal_covariance_is_the_scheduled_state(n, initial):
    schedule = bell_schedule(n, initial)
    vec = nested_amplitudes(
        n,
        [(p, q, label.value) for (p, q), label in schedule.pairs],
        schedule.central_site,
        schedule.central_value,
    )
    gamma = fermion._ideal_covariance(schedule)
    assert np.max(np.abs(gamma - covariance_ref(vec, n))) < 1e-12
    assert np.max(np.abs(gamma @ gamma + np.eye(2 * n))) < 1e-12  # a pure Gaussian state


def assert_report_matches_state(spec, t, initial, vec, tol):
    """Pair densities, central Z and global fidelity of the route against a state vector."""
    n = spec.n_sites
    schedule = bell_schedule(n, initial)
    gamma = fermion._evolved_covariance(spec, t, InitialState(initial))
    for (p, q), _ in schedule.pairs:
        assert np.max(np.abs(fermion._pair_density(gamma, p, q) - rdm(vec, n, (p, q)))) < tol
    report = verify_free_fermion(spec, t, initial)
    central = rdm(vec, n, (schedule.central_site,))
    assert report.central_z == pytest.approx((central[0, 0] - central[1, 1]).real, abs=tol)
    assert report.central_purity == pytest.approx(np.trace(central @ central).real, abs=tol)
    ideal = nested_amplitudes(
        n,
        [(p, q, label.value) for (p, q), label in schedule.pairs],
        schedule.central_site,
        schedule.central_value,
    )
    assert report.global_fidelity == pytest.approx(abs(np.vdot(ideal, vec)), abs=tol)
    assert [(r.sites, r.label) for r in report.pair_reports] == list(schedule.pairs)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
@pytest.mark.parametrize("initial", ["all0", "all1"])
def test_report_matches_the_dense_reference(n, initial):
    rng = np.random.default_rng(100 + n)
    for spec, t in (
        (random_custom_spec(rng, n), T_OFF),
        (asymmetric_spec(rng, n), T_OFF),
        (asymmetric_spec(rng, n), matryoshka_time()),
    ):
        vec = evolve_dense(spec_hamiltonian(spec), start_ref(n, initial), t)
        assert_report_matches_state(spec, t, initial, vec, 1e-10)


def evolved_state(spec: ChainSpec, t: float, initial: str, method: str) -> np.ndarray:
    n = spec.n_sites
    start = StateVector.zero_state(n) if initial == "all0" else StateVector.from_bits("1" * n)
    return Propagator(build_hamiltonian(spec), method).evolve(start, t).amplitudes


def test_report_matches_the_eigen_state_route_at_11_sites():
    # the dense Kronecker reference takes seconds at 11 sites, the eigen route a fraction
    rng = np.random.default_rng(11)
    cases = ((random_custom_spec(rng, 11), "all1"), (asymmetric_spec(rng, 11), "all0"))
    for spec, initial in cases:
        vec = evolved_state(spec, T_OFF, initial, "eigen")
        assert_report_matches_state(spec, T_OFF, initial, vec, 1e-10)


@pytest.mark.parametrize("n", [13, 15])
def test_report_matches_the_krylov_state_route(n):
    # Krylov bounds its own error by 1e-10, so the two routes agree to a few of that
    rng = np.random.default_rng(n)
    spec = asymmetric_spec(rng, n)
    for initial, t in (("all0", matryoshka_time()), ("all1", T_OFF)):
        vec = evolved_state(spec, t, initial, "krylov")
        assert_report_matches_state(spec, t, initial, vec, 1e-9)


@pytest.mark.parametrize("scale", [0.0, 1e-3, 0.05])
def test_verify_concurrences_match_the_x_state_closed_form(scale):
    # every mirror pair of verify for odd N up to 61: the state has a definite parity,
    # so each pair density is an X-state and its concurrence has a closed form
    for n in range(3, 62, 2):
        rng = np.random.default_rng(n)
        spec = ChainSpec(n, fields_b=tuple(scale * rng.uniform(-1.0, 1.0, size=n)))
        report = verify_free_fermion(spec, T_STAR)
        gamma = fermion._evolved_covariance(spec, T_STAR, InitialState.ALL0)
        borders = fermion._carried_borders(gamma)
        for pair in report.pair_reports:
            p, q = pair.sites
            expected = x_state_concurrence(fermion._pair_density(gamma, p, q, borders.get(p)))
            assert pair.concurrence == pytest.approx(expected, abs=1e-13), (n, p)


@pytest.mark.parametrize("initial", ["all0", "all1"])
def test_concurrences_agree_across_routes(initial):
    # with fields, the pair concurrences of the covariance route and of verify_matryoshka
    # on the evolved state agree to rounding, also near 1
    for n in range(3, 16, 2):
        rng = np.random.default_rng(200 + n)
        for scale in (1e-3, 0.05):
            spec = ChainSpec(n, fields_b=tuple(scale * rng.uniform(-1.0, 1.0, size=n)))
            state = StateVector(evolved_state(spec, T_STAR, initial, "auto"))
            routes = (
                verify_free_fermion(spec, T_STAR, initial),
                verify_matryoshka(state, bell_schedule(n, initial)),
            )
            for fast, slow in zip(*(route.pair_reports for route in routes)):
                assert fast.concurrence == pytest.approx(slow.concurrence, abs=1e-12), (n, scale)


def test_verify_at_51_sites(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert main(["verify", "--n", "51", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())["verification"]
    schedule = bell_schedule(51)
    assert [(tuple(p["sites"]), p["label"]) for p in report["pairs"]] == [
        (sites, label.value) for sites, label in schedule.pairs
    ]
    assert report["global_fidelity"] > 1 - 1e-10
    assert all(p["concurrence"] > 1 - 1e-10 for p in report["pairs"])
    assert report["central"]["z_expectation"] == pytest.approx(1 - 2 * schedule.central_value)


def test_a_coupling_that_overflows_in_the_block_is_refused():
    # J = 1e308 * sqrt(2) is finite, 2 J is not: the block holds inf, which is
    # refused before the SVD, and no numpy overflow warning reaches the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BellchainError, match="overflowed"):
            fermion._evolved_covariance(ChainSpec(3, 1e308), 1.0, InitialState.ALL0)


def test_covariance_route_must_fit_in_memory(monkeypatch, capsys):
    # the route's complex 26 x 26 matrices: exactly at the limit passes, a byte less exits 2
    need = bellchain.chain._MATRICES_HELD * 26**2 * 16
    for pages, code in ((need, 0), (need - 1, 2)):
        sizes = {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(bellchain.pauli.os, "sysconf", sizes.__getitem__)
        assert main(["verify", "--n", "13"]) == code
        if code == 2:
            assert "physical memory" in capsys.readouterr().err


def test_krawtchouk_mirror_is_the_route_propagator_at_t_star():
    # the closed form against e^(A t*) by Pade, for the library's own A
    for n in range(3, 16, 2):
        r = scipy.linalg.expm(generator(ChainSpec(n)) * T_STAR)
        assert np.max(np.abs(r - krawtchouk_mirror(n))) < 1e-12


@pytest.mark.parametrize("initial", ["all0", "all1"])
def test_krawtchouk_mirror_nests_the_scheduled_bell_pairs(initial):
    # P Gamma(0) P^T is the schedule's nested-Bell covariance at every odd N to 201,
    # and the covariance route's Gamma(t*) to 101
    for n in range(3, 202, 2):
        p = krawtchouk_mirror(n)
        mirrored = p @ product_covariance(n, initial) @ p.T
        ideal = fermion._ideal_covariance(bell_schedule(n, initial))
        assert np.max(np.abs(mirrored - ideal)) < 1e-12, n
        if n <= 101:
            evolved = fermion._evolved_covariance(ChainSpec(n), T_STAR, InitialState(initial))
            assert np.max(np.abs(mirrored - evolved)) < 1e-12, n


def counted_pfaffians(monkeypatch) -> list[int]:
    """Patch ``fermion._pfaffian`` to record the size of every block it is given."""
    sizes = []
    pfaffian = fermion._pfaffian

    def counting(matrix):
        sizes.append(len(matrix))
        return pfaffian(matrix)

    monkeypatch.setattr(fermion, "_pfaffian", counting)
    return sizes


def expected_pfaffians(n: int, carried) -> list[int]:
    """Block sizes of one report: Z_p, Z_q and Z_p Z_q per pair, the four strings with
    X or Y on both sites unless carried, then the central Z and the global overlap."""
    sizes = []
    for p in range(1, (n - 1) // 2 + 1):
        sizes += [2, 2, 4] + ([2 * (n + 1 - 2 * p)] * 4 if p not in carried else [])
    return sorted(sizes + [2, 2 * n])


def assert_densities_match_direct(gamma, borders):
    """Every mirror pair's density, carried or not, against its seven direct Pfaffians."""
    n = gamma.shape[0] // 2
    for p in range(1, (n - 1) // 2 + 1):
        q = n + 1 - p
        carried = fermion._pair_density(gamma, p, q, borders.get(p))
        assert np.max(np.abs(carried - fermion._pair_density(gamma, p, q))) < 1e-12, p


@pytest.mark.parametrize("n", [13, 51, 101])
@pytest.mark.parametrize("fields", [False, True])
def test_carried_elimination_serves_every_pair_at_t_star(monkeypatch, n, fields):
    small = tuple(np.random.default_rng(n).uniform(-3e-3, 3e-3, size=n))
    spec = ChainSpec(n, fields_b=small) if fields else ChainSpec(n)
    gamma = fermion._evolved_covariance(spec, matryoshka_time(), InitialState.ALL0)
    borders = fermion._carried_borders(gamma)
    assert sorted(borders) == list(range(1, (n - 1) // 2 + 1))
    if not fields:  # each inner block is a Z string of a Z-basis product state
        assert all(abs(abs(inner) - 1.0) < 1e-12 for inner, _ in borders.values())
    assert_densities_match_direct(gamma, borders)
    sizes = counted_pfaffians(monkeypatch)
    verify_free_fermion(spec, matryoshka_time())
    assert sorted(sizes) == expected_pfaffians(n, borders)


@pytest.mark.parametrize("n", [13, 51, 101])
def test_carried_elimination_falls_back_where_the_inner_block_is_small(monkeypatch, n):
    # away from t* each inner Z string decays with its length; from the first pair,
    # counted from the centre, whose |Pf(S)| is below the threshold, every pair is direct
    spec = asymmetric_spec(np.random.default_rng(n), n)
    gamma = fermion._evolved_covariance(spec, T_OFF, InitialState.ALL1)
    borders = fermion._carried_borders(gamma)
    pairs = range(1, (n - 1) // 2 + 1)
    inner = {p: fermion._pfaffian(gamma[2 * p:2 * (n - p), 2 * p:2 * (n - p)]) for p in pairs}
    small = [p for p in pairs if abs(inner[p]) < fermion._CARRY_MIN_PFAFFIAN]
    assert small, "no pair falls back"
    assert sorted(borders) == [p for p in pairs if p > max(small)]
    for p, (carried, _) in borders.items():
        assert carried == pytest.approx(inner[p], rel=1e-12)
    assert_densities_match_direct(gamma, borders)
    sizes = counted_pfaffians(monkeypatch)
    verify_free_fermion(spec, T_OFF, "all1")
    assert sorted(sizes) == expected_pfaffians(n, borders)


@pytest.mark.parametrize("site", ["central", "inner"])
def test_carried_elimination_falls_back_on_a_singular_inner_block(site):
    # a pure Gaussian state whose Majorana m pairs with X_1 alone: every inner
    # block that holds m has a zero row, so it and every pair outside it go direct
    n = 11
    centre = (n + 1) // 2
    m = 2 * centre - 2 if site == "central" else 2 * centre - 4
    rest = [k for k in range(1, 2 * n) if k != m]
    paired = np.zeros((2 * n, 2 * n))
    paired[m, 0], paired[0, m] = 1.0, -1.0
    for k, l in zip(rest[0::2], rest[1::2]):
        paired[k, l], paired[l, k] = 1.0, -1.0
    rotation = np.eye(2 * n)
    q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(2 * n - 2,) * 2))
    rotation[np.ix_(rest, rest)] = q
    gamma = rotation @ paired @ rotation.T
    assert np.max(np.abs(gamma @ gamma + np.eye(2 * n))) < 1e-12
    borders = fermion._carried_borders(gamma)
    assert sorted(borders) == ([] if site == "central" else [centre - 1])
    assert_densities_match_direct(gamma, borders)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_perfect_transfer_bell_fidelity_is_zero_on_both_routes(tmp_path, capsys, n):
    # at t* no mirror pair of the perfect-transfer chain overlaps its scheduled Bell
    # state: <b|rho|b> is rounding on the covariance route and exactly 0 on the state
    # route, and below the Bell-fidelity cutoff both report 0.0
    docs = {}
    for command in ("verify", "generate"):
        out = tmp_path / f"{command}.json"
        main([command, "--n", str(n), "--pattern", "perfect-transfer", "--out", str(out)])
        docs[command] = json.loads(out.read_text())["verification"]
    capsys.readouterr()
    for doc in docs.values():
        assert doc["pairs"][0]["sites"] == [1, n]
        assert [pair["bell_fidelity"] for pair in doc["pairs"]] == [0.0] * ((n - 1) // 2)
    for fast, state in zip(docs["verify"]["pairs"], docs["generate"]["pairs"]):
        for key in ("concurrence", "purity"):
            assert fast[key] == pytest.approx(state[key], abs=1e-12)
    spec = ChainSpec(n, pattern=Pattern.PERFECT_TRANSFER)
    state = StateVector(evolved_state(spec, matryoshka_time(), "all0", "eigen"))
    routes = (verify_free_fermion(spec, T_STAR), verify_matryoshka(state, bell_schedule(n)))
    assert [r.pair_reports[0].bell_fidelity for r in routes] == [0.0, 0.0]
