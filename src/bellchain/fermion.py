"""Verification of the nested-Bell state through Majorana covariances.

The Jordan-Wigner transform maps site j to two Majorana operators,
c_(2j-1) = Z_1...Z_(j-1) X_j and c_(2j) = Z_1...Z_(j-1) Y_j (indices
2j-2 and 2j-1 here, counted from 0).  Every XX or YY bond and every Z
field of a chain is a product of two of them, so the Hamiltonian is the
quadratic form H = (i/4) sum_kl A_kl c_k c_l with A real antisymmetric
and 2N x 2N.  The Majoranas then evolve linearly, c(t) = R c with
R = e^(At), and the covariance Gamma_kl = i <c_k c_l> (k != l) of a
state evolves as Gamma(t) = R Gamma(0) R^T.  Each term pairs an even
Majorana with an odd one, so R follows from the SVD of the real N x N
block A[even, odd].

A Z-basis product state is Gaussian, and stays Gaussian under H, so
Wick's theorem makes every expectation a Pfaffian of a block of Gamma.
The verification needs the seven parity-even two-site Pauli
expectations of each mirror pair, which give its 4x4 density, Z on the
central site, and the overlap with the ideal nested-Bell state, which
for two pure Gaussian states is |<a|b>|^2 = |Pf((Gamma_a + Gamma_b)/2)|
(Terhal & DiVincenzo, PRA 65, 032325 (2002)).  Pfaffians come from
Parlett-Reid elimination (Wimmer, ACM TOMS 38, 30 (2012)).  The four
long strings of the mirror pairs, X or Y on both sites, share their
inner blocks, which nest from the centre outwards, so one elimination
carried over Gamma serves them all; a pair whose inner block is near
singular, and every pair outside it, takes direct Pfaffians instead.
At t* the whole verification is O(N^3) work on matrices of at most
2N x 2N; away from it, where the inner Z strings decay, the direct
Pfaffians of the outer pairs take it back towards O(N^4).  No state is
ever built, so the chain length is bounded by 2N x 2N matrices in
memory, not by 2^N amplitudes.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .analysis import concurrence, purity
from .chain import ChainSpec, HamiltonianTerms, build_hamiltonian
from .errors import BellchainError, ValidationError
from .evolve import _NOT_FINITE, _check_memory
from .matryoshka import (
    _BELL_TABLE,
    InitialState,
    MatryoshkaSchedule,
    PairReport,
    VerificationReport,
    _mixed_bell_fidelity,
    bell_schedule,
)
from .pauli import DensityMatrix, PauliString, _check_real, _mask_action

# the route's memory in 2N x 2N matrices of 16 bytes an entry, each the room of two
# real ones: A and R, Gamma(0) and R Gamma(0), Gamma and its transpose, and the carried
# elimination's copy with the SVD's N x N factors and workspace
_MATRICES_HELD = 4
# a carried |Pf(S)| below this leaves its pair, and every pair outside it, to direct Pfaffians
_CARRY_MIN_PFAFFIAN = 1e-3
# the parity-even Pauli strings of a site pair (p, q), the identity left out,
# as 2-site strings whose site 2 is p and site 1 is q, and their 4x4 matrices
_PAIR_STRINGS = tuple(
    PauliString.from_letters(letters[::-1])
    for letters in ("ZI", "IZ", "ZZ", "XX", "XY", "YX", "YY")
)
_PAIR_MATRICES = tuple(string.dense() for string in _PAIR_STRINGS)


@functools.lru_cache(maxsize=4)
def _majoranas(n_sites: int) -> tuple[PauliString, ...]:
    """c_0 ... c_(2N-1) as Pauli strings.

    c_k is X (k even) or Y (k odd) on site k // 2 + 1, with Z on every
    site below it.
    """
    return tuple(
        PauliString(n_sites, 1 << k // 2, (1 << k // 2 + (k & 1)) - 1) for k in range(2 * n_sites)
    )


def _majorana_word(string: PauliString) -> tuple[tuple[int, ...], complex]:
    """``(k, phase)`` with ``string`` = phase * c_k[0] c_k[1] ..., k ascending.

    The Majoranas are found by solving the string's X/Z masks over
    GF(2) in the Majorana basis: with a_j and b_j marking c_(2j-1) and
    c_(2j), x_j = a_j + b_j and z_j = b_j + x_(j+1) + ... + x_N, solved
    from site N down.  The phase compares the string's action on
    |0...0> with the product's, both from ``_mask_action``.
    """
    n = string.n_sites
    word = []
    x_above = 0
    for site in range(n - 1, -1, -1):
        x = string.x_mask >> site & 1
        b = (string.z_mask >> site & 1) ^ x_above
        word += [2 * site + 1] * b + [2 * site] * (x ^ b)
        x_above ^= x
    word.reverse()
    majoranas = _majoranas(n)
    row, product = 0, 1.0 + 0.0j
    for k in reversed(word):
        row, value = _mask_action(majoranas[k], row)
        product *= value
    _, own = _mask_action(string, 0)
    return tuple(word), own / product


def _generator(hamiltonian: HamiltonianTerms) -> np.ndarray:
    """The real antisymmetric A with H = (i/4) sum_kl A_kl c_k c_l.

    A term w P with P = phase * c_a c_b (a < b) contributes
    A_ab = -A_ba = -2i w phase.  Raises ValidationError for a term that
    is not a product of two Majoranas.
    """
    a = np.zeros((2 * hamiltonian.n_sites,) * 2)
    for weight, string in hamiltonian.terms:
        word, phase = _majorana_word(string)
        if len(word) != 2:
            raise ValidationError(
                f"term {string.letters} is {len(word)} Majoranas, not 2: "
                "the chain is not a free-fermion model"
            )
        k, l = word
        entry = (-2j * weight * phase).real
        a[k, l] += entry
        a[l, k] -= entry
    return a


def _product_covariance(n_sites: int, factors) -> np.ndarray:
    """Gamma of a product state: ``factors`` are ``(sites, amplitudes)`` covering the chain.

    Each factor lists its sites in ascending order, the first the most
    significant bit of its amplitudes.  Majoranas of different factors
    do not correlate, since c_k c_l then carries a lone X or Y on a site
    of each, so only the blocks within a factor are filled.  Each entry
    is the product over the factors of the local expectations of the
    Pauli string of c_k c_l.
    """
    @functools.cache
    def local_value(f: int, x: int, z: int) -> complex:
        """<P> of factor f for the local string with masks x, z (site 1 its last site)."""
        amps = factors[f][1]
        rows, values = _mask_action(PauliString(len(factors[f][0]), x, z), np.arange(amps.size))
        return complex(np.vdot(amps[rows], values * amps))

    def local(mask: int, sites) -> int:
        return sum((mask >> (s - 1) & 1) << (len(sites) - 1 - i) for i, s in enumerate(sites))

    site_masks = [sum(1 << (s - 1) for s in sites) for sites, _ in factors]
    majoranas = _majoranas(n_sites)
    gamma = np.zeros((2 * n_sites,) * 2)
    for sites, _ in factors:
        ks = [2 * (s - 1) + half for s in sites for half in (0, 1)]
        for k, l in itertools.combinations(ks, 2):
            x = majoranas[k].x_mask ^ majoranas[l].x_mask
            z = majoranas[k].z_mask ^ majoranas[l].z_mask
            _, phase = _majorana_word(PauliString(n_sites, x, z))  # c_k c_l = string / phase
            value = 1.0 + 0.0j
            for f, (other, _) in enumerate(factors):
                if (x | z) & site_masks[f]:  # a factor the string leaves alone contributes 1
                    value *= local_value(f, local(x, other), local(z, other))
            gamma[k, l] = (1j * value / phase).real
            gamma[l, k] = -gamma[k, l]
    return gamma


def _ideal_covariance(schedule: MatryoshkaSchedule) -> np.ndarray:
    """Gamma of the scheduled Bell pairs times the central spin."""
    central = np.zeros(2, dtype=complex)
    central[schedule.central_value] = 1.0
    factors = [((p, q), _BELL_TABLE[label]) for (p, q), label in schedule.pairs]
    return _product_covariance(schedule.n_sites, factors + [((schedule.central_site,), central)])


def _evolved_covariance(spec: ChainSpec, t: float, initial: InitialState) -> np.ndarray:
    """Gamma(t) = R Gamma(0) R^T for the chain ``spec`` from the ``initial`` product state.

    Every term of a chain (XX, YY or Z) pairs an even Majorana with an
    odd one, so A is zero between two evens or two odds, and with the
    SVD B = U S V^T of its real N x N block B = A[even, odd], R = e^(At)
    has the blocks U cos(St) U^T (even, even), U sin(St) V^T (even,
    odd), -V sin(St) U^T (odd, even) and V cos(St) V^T (odd, odd).  The
    products are ``einsum``'s own loops, not BLAS, so Gamma does not
    depend on the BLAS thread count as long as the SVD does not.  The
    size is checked against physical memory before anything is built;
    a non-finite A, R or Gamma raises BellchainError.
    """
    n = spec.n_sites
    _check_memory(
        _MATRICES_HELD * (2 * n) ** 2 * 16,
        f"the covariance route at {n} sites "
        f"({2 * _MATRICES_HELD} real {2 * n}x{2 * n} matrices)",
    )
    a = _generator(build_hamiltonian(spec))
    if not np.isfinite(a).all():
        raise BellchainError(_NOT_FINITE)
    if a[0::2, 0::2].any() or a[1::2, 1::2].any():
        raise ValidationError("the chain couples two even or two odd Majoranas")
    u, sigma, vt = np.linalg.svd(a[0::2, 1::2])
    cos, sin = np.cos(sigma * t), np.sin(sigma * t)
    r = np.empty_like(a)
    r[0::2, 0::2] = np.einsum("ik,jk->ij", u * cos, u)
    r[0::2, 1::2] = np.einsum("ik,kj->ij", u * sin, vt)
    r[1::2, 0::2] = -np.einsum("ki,jk->ij", vt * sin[:, None], u)
    r[1::2, 1::2] = np.einsum("ki,kj->ij", vt * cos[:, None], vt)
    if not np.isfinite(r).all():
        raise BellchainError(_NOT_FINITE)
    spin = np.zeros(2, dtype=complex)
    spin[int(initial is InitialState.ALL1)] = 1.0
    start = _product_covariance(n, [((s,), spin) for s in range(1, n + 1)])
    gamma = np.einsum("il,jl->ij", np.einsum("ik,kl->il", r, start), r)
    if not np.isfinite(gamma).all():
        raise BellchainError(_NOT_FINITE)
    return (gamma - gamma.T) / 2


def _eliminate(a: np.ndarray, k: int, end: int) -> float:
    """One Parlett-Reid step on the real antisymmetric ``a``, in place; the signed pivot.

    Swaps the largest entry of column k among rows k + 1 .. end - 1
    into row k + 1 (a swap flips the sign), then replaces a[k + 2:, k + 2:]
    by its Schur complement over rows and columns k and k + 1.  A zero
    pivot returns 0.0 and eliminates nothing.
    """
    pivot = k + 1 + int(np.argmax(np.abs(a[k + 1:end, k])))
    sign = 1.0
    if pivot != k + 1:
        a[[k + 1, pivot], k:] = a[[pivot, k + 1], k:]
        a[k:, [k + 1, pivot]] = a[k:, [pivot, k + 1]]
        sign = -1.0
    value = a[k, k + 1]
    if value == 0.0:
        return 0.0
    if k + 2 < a.shape[0]:
        tau = a[k, k + 2:] / value
        column = a[k + 2:, k + 1]
        a[k + 2:, k + 2:] += tau[:, None] * column - column[:, None] * tau
    return sign * value


def _pfaffian(matrix: np.ndarray) -> float:
    """Pfaffian of a real antisymmetric matrix: the product of its Parlett-Reid pivots."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if n % 2:
        return 0.0
    pfaffian = 1.0
    for k in range(0, n - 1, 2):
        pivot = _eliminate(a, k, n)
        if pivot == 0.0:
            return 0.0
        pfaffian *= pivot
    return pfaffian


def _carried_borders(gamma: np.ndarray) -> dict[int, tuple[float, np.ndarray]]:
    """``{p: (Pf(S), C)}`` for the mirror pairs (p, N-p+1) of one carried elimination.

    The strings with X or Y on both sites p and q = N-p+1 have the
    words l, S, r: l is 2p-2 or 2p-1, r is 2q-2 or 2q-1, and S is every
    Majorana in between.  S of pair p is S of pair p+1 plus that pair's
    four border Majoranas, so Gamma is ordered as the central site,
    then each pair's border 2p-2, 2p-1, 2q-2, 2q-1 from the centre
    outwards, and eliminated by Parlett-Reid, pivoting within the block
    being eliminated.  Before pair p's border is eliminated, the
    running product of pivots is Pf(S) (each step of the order moves an
    even block past an even block, so no sign) and the trailing 4 x 4 is
    the Schur complement C of S over the border, so that Pf(l, S, r) =
    Pf(S) C[l, r].  Every block of Gamma has singular values at most 1,
    so |Pf(S)|^2 = |det S| bounds S's smallest singular value from
    below; a pair whose |Pf(S)| falls below ``_CARRY_MIN_PFAFFIAN``, and
    every pair outside it, is left out, for the direct Pfaffians.
    """
    n = gamma.shape[0] // 2
    centre = (n + 1) // 2
    order = [2 * centre - 2, 2 * centre - 1]
    for p in range(centre - 1, 0, -1):
        q = n + 1 - p
        order += [2 * p - 2, 2 * p - 1, 2 * q - 2, 2 * q - 1]
    a = gamma[np.ix_(order, order)]
    inner = _eliminate(a, 0, 2)
    borders = {}
    for p, k in zip(range(centre - 1, 0, -1), range(2, 2 * n, 4)):
        if abs(inner) < _CARRY_MIN_PFAFFIAN:
            break
        borders[p] = (inner, a[k:k + 4, k:k + 4].copy())
        for step in (k, k + 2):
            inner *= _eliminate(a, step, k + 4)
    return borders


def _expectation(
    gamma: np.ndarray, string: PauliString, border: tuple[float, np.ndarray] | None = None
) -> float:
    """<P> of the Gaussian state with covariance ``gamma``, by Wick's theorem.

    With P = phase * c_k1 ... c_k2m, <P> = phase * Pf(-i Gamma_kk) =
    phase * (-i)^m * Pf(Gamma_kk); an odd number of Majoranas gives 0.
    ``border``, a pair's ``(Pf(S), C)`` from :func:`_carried_borders`,
    serves a string with X or Y on both sites of that pair, whose word
    is l, S, r: Pf = Pf(S) C[l, r], with l and r read from the word.
    """
    word, phase = _majorana_word(string)
    if len(word) % 2:
        return 0.0
    if border is None:
        pfaffian = _pfaffian(gamma[np.ix_(word, word)])
    else:
        inner, schur = border
        pfaffian = inner * schur[word[0] % 2, 2 + word[-1] % 2]
    return (phase * (-1j) ** (len(word) // 2) * pfaffian).real


def _pair_density(
    gamma: np.ndarray, p: int, q: int, border: tuple[float, np.ndarray] | None = None
) -> np.ndarray:
    """The 4x4 density of sites (p, q), p the most significant bit.

    The state has a definite Z parity, so the expectations of the nine
    parity-odd letter pairs vanish and the seven parity-even ones, with
    the identity, give rho = sum <P> P / 4.  XX, XY, YX and YY take the
    pair's carried ``border`` when given, the rest a direct Pfaffian.
    """
    n = gamma.shape[0] // 2
    mask_p, mask_q = 1 << (p - 1), 1 << (q - 1)
    rho = np.eye(4, dtype=complex) / 4
    for local, matrix in zip(_PAIR_STRINGS, _PAIR_MATRICES):
        string = PauliString(
            n,
            (local.x_mask >> 1) * mask_p | (local.x_mask & 1) * mask_q,
            (local.z_mask >> 1) * mask_p | (local.z_mask & 1) * mask_q,
        )
        rho += _expectation(gamma, string, border if local.x_mask == 3 else None) * matrix / 4
    return rho


def verify_free_fermion(
    spec: ChainSpec, t: float, initial: InitialState | str = InitialState.ALL0
) -> VerificationReport:
    """The :func:`verify_matryoshka` report of the chain evolved for ``t``, without a state.

    Starts from the ``initial`` product state and scores against
    ``bell_schedule(spec.n_sites, initial)``.  Pair numbers come from
    each pair's 4x4 density through ``concurrence``, ``purity`` and the
    Bell fidelity of :func:`verify_matryoshka`; the central purity is
    (1 + <Z>^2)/2, since <X> and <Y> vanish by parity; the global
    fidelity is sqrt|Pf((Gamma_ideal + Gamma)/2)|, with Gamma_ideal built
    from the schedule's Bell pairs and central spin.  Agrees with the
    state route to rounding; the cost grows as a power of N, not as 2^N.
    """
    t = _check_real("time", t)
    schedule = bell_schedule(spec.n_sites, initial)
    gamma = _evolved_covariance(spec, t, InitialState(initial))
    borders = _carried_borders(gamma)
    reports = []
    for (p, q), label in schedule.pairs:
        rho = DensityMatrix._trusted((p, q), _pair_density(gamma, p, q, borders.get(p)))
        fidelity = _mixed_bell_fidelity(_BELL_TABLE[label], rho.matrix)
        reports.append(PairReport((p, q), label, concurrence(rho), fidelity, purity(rho)))
    central_z = _expectation(gamma, PauliString.single(spec.n_sites, schedule.central_site, "Z"))
    overlap = _pfaffian((_ideal_covariance(schedule) + gamma) / 2)
    return VerificationReport(
        schedule,
        tuple(reports),
        (1.0 + central_z**2) / 2,
        central_z,
        float(np.sqrt(abs(overlap))),
    )
