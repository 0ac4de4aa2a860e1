"""Majorana covariances: the nested-Bell verification and the field study's overlaps.

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
(Terhal & DiVincenzo, PRA 65, 032325 (2002)); the same overlap gives
the field study of :mod:`bellchain.analysis` its fidelities, one 6x6
covariance per grid point.  The set-up is closed form: the Majorana
word of a Pauli string follows from its masks by bit operations, Gamma(0)
of a Z-basis product state is -<Z_s> on each site's two Majoranas, and
Gamma of the ideal state follows from each pair's Bell correlators and
the +-1 Z values of the pairs inside it.  Pfaffians come from
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

import numpy as np

from .chain import ChainSpec, HamiltonianTerms, build_hamiltonian
from .errors import BellchainError, ValidationError
from .evolve import _NOT_FINITE, _check_memory
from .matryoshka import (
    _BELL_TABLE,
    BellLabel,
    InitialState,
    MatryoshkaSchedule,
    PairReport,
    VerificationReport,
    _mixed_bell_fidelity,
    bell_schedule,
)
from .pauli import _PHASES, DensityMatrix, PauliString, _check_real, concurrence, purity

# the route's memory in 2N x 2N matrices of 16 bytes an entry, each the room of two
# real ones: A and R, O E^T and its transpose, Gamma, and the carried elimination's
# copy with the SVD's N x N factors and workspace
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


@functools.lru_cache(maxsize=1024)
def _majorana_word(string: PauliString) -> tuple[tuple[int, ...], complex]:
    """``(k, phase)`` with ``string`` = phase * c_k[0] c_k[1] ..., k ascending.

    With a_j and b_j marking c_(2j-1) and c_(2j) in the word, the
    string's masks are x_j = a_j + b_j and z_j = b_j + x_(j+1) + ... +
    x_N over GF(2), so b is z plus the parities of x above each site, a
    scan of log2(N) shifts of the mask.  Applied to |0...0> from the
    last Majorana down, each c_k finds every site below its own still
    0, so the product sends |0...0> to i^(number of b) |x>; the string
    sends it to i^(number of Y) |x>, and the phase is their ratio.
    Words are kept for the last 1024 strings: a chain's terms recur in
    every covariance built for it, such as each point of a field sweep.
    """
    x, z = string.x_mask, string.z_mask
    above = x >> 1
    shift = 1
    while shift < string.n_sites:
        above ^= above >> shift
        shift <<= 1
    b = z ^ above
    a = x ^ b
    size = (string.n_sites + 7) // 8
    masks = np.frombuffer(a.to_bytes(size, "little") + b.to_bytes(size, "little"), np.uint8)
    # rows a and b of the bits, read column by column: c_(2j-1) before c_(2j)
    word = np.flatnonzero(np.unpackbits(masks, bitorder="little").reshape(2, -1).T)
    return tuple(word.tolist()), _PHASES[((x & z).bit_count() - b.bit_count()) % 4]


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


@functools.cache
def _bell_correlators(label: BellLabel) -> tuple[float, ...]:
    """<P> in the Bell state ``label`` for each of ``_PAIR_STRINGS``: ZI, IZ, ZZ, XX, XY, YX, YY."""
    b = _BELL_TABLE[label]
    return tuple(float(np.vdot(b, matrix @ b).real) for matrix in _PAIR_MATRICES)


def _ideal_covariance(schedule: MatryoshkaSchedule) -> np.ndarray:
    """Gamma of the scheduled Bell pairs times the central spin, in closed form.

    Majoranas of different factors do not correlate, since c_k c_l then
    leaves a lone X or Y on a site of each, and every factor has a
    definite Z parity.  On one site, c_(2s-1) c_(2s) = i Z_s gives
    -<Z_s>.  For sites p < q of a pair, c_k c_l = (A Z)_p Z_(p+1) ...
    Z_(q-1) B_q, with A and B the X or Y of c_k and c_l.  The sites in
    between hold the central spin and the pairs inside, each an
    eigenstate of its Z string, so the middle string is the product zeta
    of their +-1 values, and XZ = -iY, YZ = iX leave the block
    zeta [[<YX>, <YY>], [-<XX>, -<XY>]] on (c_(2p-1), c_(2p)) x (c_(2q-1), c_(2q)).
    """
    n, centre = schedule.n_sites, schedule.central_site
    gamma = np.zeros((2 * n, 2 * n))
    zeta = 1.0 - 2.0 * schedule.central_value
    gamma[2 * centre - 2, 2 * centre - 1] = -zeta
    for (p, q), label in sorted(schedule.pairs, key=lambda pair: pair[0], reverse=True):
        z_p, z_q, zz, xx, xy, yx, yy = _bell_correlators(label)
        gamma[2 * p - 2, 2 * p - 1] = -z_p
        gamma[2 * q - 2, 2 * q - 1] = -z_q
        gamma[2 * p - 2:2 * p, 2 * q - 2:2 * q] = zeta * np.array([[yx, yy], [-xx, -xy]])
        zeta *= zz
    return gamma - gamma.T


def _evolved_covariance(spec: ChainSpec, t: float, initial: InitialState) -> np.ndarray:
    """Gamma(t) = R Gamma(0) R^T for the chain ``spec`` from the ``initial`` product state.

    Every term of a chain (XX, YY or Z) pairs an even Majorana with an
    odd one, so A is zero between two evens or two odds, and with the
    SVD B = U S V^T of its real N x N block B = A[even, odd], R = e^(At)
    has the blocks U cos(St) U^T (even, even), U sin(St) V^T (even,
    odd), -V sin(St) U^T (odd, even) and V cos(St) V^T (odd, odd).  The
    product state's Gamma(0) holds -<Z_s> = -z at (c_(2s-1), c_(2s)), z
    at (c_(2s), c_(2s-1)) and 0 elsewhere, so with E and O the columns
    of R that belong to the c_(2s-1) and to the c_(2s), R Gamma(0) R^T
    = z (O E^T - E O^T).
    The products are ``einsum``'s own loops, not BLAS, so Gamma does not
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
    z = -1.0 if initial is InitialState.ALL1 else 1.0
    odd_even = np.einsum("ik,jk->ij", r[:, 1::2], r[:, 0::2])
    gamma = z * (odd_even - odd_even.T)
    if not np.isfinite(gamma).all():
        raise BellchainError(_NOT_FINITE)
    return gamma


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
        for view in (a, a.T):  # the rows, then the columns
            row = view[k + 1, k:].copy()
            view[k + 1, k:] = view[pivot, k:]
            view[pivot, k:] = row
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
    """Pfaffian of a real antisymmetric matrix: the product of its Parlett-Reid pivots.

    The last 2 x 2 block is its own pivot, so it is read, not eliminated.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if n % 2:
        return 0.0
    pfaffian = 1.0
    for k in range(0, n - 2, 2):
        pivot = _eliminate(a, k, n)
        if pivot == 0.0:
            return 0.0
        pfaffian *= pivot
    return pfaffian * a[n - 2, n - 1] if n else pfaffian


def _gaussian_fidelity(gamma_a: np.ndarray, gamma_b: np.ndarray) -> float:
    """|<a|b>| of two pure Gaussian states: sqrt|Pf((Gamma_a + Gamma_b)/2)|."""
    return float(np.sqrt(abs(_pfaffian((gamma_a + gamma_b) / 2))))


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
    return VerificationReport(
        schedule,
        tuple(reports),
        (1.0 + central_z**2) / 2,
        central_z,
        _gaussian_fidelity(_ideal_covariance(schedule), gamma),
    )
