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
covariance per grid point.  The set-up is closed form and never builds
a Pauli string: the block A[even, odd] is tridiagonal and read from the
couplings and fields, the words of Z_s and of the pair strings are
written down from the site numbers, Gamma(0) of a Z-basis product state
is -<Z_s> on each site's two Majoranas, and Gamma of the ideal state
follows from each pair's Bell correlators and the +-1 Z values of the
pairs inside it.  Pfaffians come from
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
from typing import Sequence

import numpy as np

from .chain import ChainSpec
from .errors import _check_finite
from .matryoshka import (
    _BELL_TABLE,
    BellLabel,
    InitialState,
    MatryoshkaSchedule,
    VerificationReport,
    _pair_report,
    bell_schedule,
)
from .pauli import _CARRY_MIN_PFAFFIAN, _LETTER_MATRICES, DensityMatrix, _check_choice
from .pauli import _check_real

# the 4x4 matrices of the parity-even Pauli strings of a site pair (p, q), the
# identity left out, p the most significant bit: ZI, IZ, ZZ, XX, XY, YX, YY
_PAIR_MATRICES = tuple(
    np.kron(_LETTER_MATRICES[a], _LETTER_MATRICES[b])
    for a, b in ("ZI", "IZ", "ZZ", "XX", "XY", "YX", "YY")
)


def _pair_words(p: int, q: int) -> tuple[tuple[tuple[int, ...], float], ...]:
    """``(word, sign)`` with <P> = sign * Pf(Gamma_word) for each string of ``_PAIR_MATRICES``.

    Site s holds c_(2s-2) = Z_1...Z_(s-1) X_s and c_(2s-1) = Z_1...Z_(s-1) Y_s,
    so Z_s = -i c_(2s-2) c_(2s-1), and <P> = phase * (-i)^m * Pf(Gamma_word) for
    P = phase * (a word of 2m Majoranas): -Gamma for Z_p or Z_q, +Pf for Z_p Z_q.
    With S = 2p .. 2q-3, every Majorana of the d = q-p-1 sites in between, c_S =
    i^d Z_(p+1)...Z_(q-1), and XZ = -iY, YZ = iX give c_l c_S c_r = i^d (-i) Y_p B_q
    for l = 2p-2 and i^(d+1) X_p B_q for l = 2p-1, with r = 2q-2 for B = X and
    2q-1 for B = Y: the sign is (-1)^(d + l).
    """
    z_p, z_q = (2 * p - 2, 2 * p - 1), (2 * q - 2, 2 * q - 1)
    between = tuple(range(2 * p, 2 * q - 2))
    words = [(z_p, -1.0), (z_q, -1.0), (z_p + z_q, 1.0)]
    for l in (2 * p - 1, 2 * p - 2):  # X, then Y on site p
        for r in z_q:  # X, then Y on site q
            words.append(((l, *between, r), (-1.0) ** (q - p - 1 + l)))
    return tuple(words)


def _coupling_block(
    j_x: Sequence[float], j_y: Sequence[float], fields: Sequence[float]
) -> np.ndarray:
    """B = A[even, odd] of the chain, for H = (i/4) sum_kl A_kl c_k c_l: tridiagonal.

    With the words of :func:`_pair_words`, b_s Z_s = -i b_s c_(2s-2) c_(2s-1),
    J_x X_s X_(s+1) = -i J_x c_(2s-1) c_(2s) and J_y Y_s Y_(s+1) = i J_y c_(2s-2)
    c_(2s+1), and a term w * phase * c_k c_l (k < l) gives A_kl = -A_lk = -2i w
    phase.  So B holds -2 b_s on its diagonal, 2 J_x on its subdiagonal and 2 J_y
    on its superdiagonal, and A is zero between two evens or two odds.  Adding
    the three diagonals also turns every -0.0, such as -2 * 0.0, into 0.0, so
    the SVD sees the same bits as for a block built entry by entry.  The
    products are Python floats: one that overflows is inf, without a numpy
    warning, for :func:`_block_covariance` to refuse.
    """
    return (
        np.diag([-2.0 * b for b in fields])
        + np.diag([2.0 * j for j in j_x], -1)
        + np.diag([2.0 * j for j in j_y], 1)
    )


@functools.cache
def _bell_correlators(label: BellLabel) -> tuple[float, ...]:
    """<P> in the Bell state ``label`` of each ``_PAIR_MATRICES``: ZI, IZ, ZZ, XX, XY, YX, YY."""
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


def _block_covariance(block: np.ndarray, t: float, initial: InitialState) -> np.ndarray:
    """Gamma(t) = R Gamma(0) R^T of the chain whose A[even, odd] is ``block``, from ``initial``.

    A is zero between two evens or two odds, so with the SVD B = U S V^T
    of its real N x N block B = A[even, odd], R = e^(At) has the blocks
    U cos(St) U^T (even, even), U sin(St) V^T (even, odd), -V sin(St)
    U^T (odd, even) and V cos(St) V^T (odd, odd).  The product state's
    Gamma(0) holds -<Z_s> = -z at (c_(2s-1), c_(2s)), z at (c_(2s),
    c_(2s-1)) and 0 elsewhere, so with E and O the columns of R that
    belong to the c_(2s-1) and to the c_(2s), R Gamma(0) R^T = z (O E^T
    - E O^T).
    The products are ``einsum``'s own loops, not BLAS, so Gamma does not
    depend on the BLAS thread count as long as the SVD does not.  A
    non-finite B, angle St, R or Gamma raises BellchainError.
    """
    _check_finite(block)
    u, sigma, vt = np.linalg.svd(block)
    _check_finite(abs(t) * float(sigma[0]))
    cos, sin = np.cos(sigma * t), np.sin(sigma * t)
    r = np.empty((2 * len(block),) * 2)
    r[0::2, 0::2] = np.einsum("ik,jk->ij", u * cos, u)
    r[0::2, 1::2] = np.einsum("ik,kj->ij", u * sin, vt)
    r[1::2, 0::2] = -np.einsum("ki,jk->ij", vt * sin[:, None], u)
    r[1::2, 1::2] = np.einsum("ki,kj->ij", vt * cos[:, None], vt)
    _check_finite(r)
    z = -1.0 if initial is InitialState.ALL1 else 1.0
    odd_even = np.einsum("ik,jk->ij", r[:, 1::2], r[:, 0::2])
    gamma = z * (odd_even - odd_even.T)
    _check_finite(gamma)
    return gamma


def _evolved_covariance(spec: ChainSpec, t: float, initial: InitialState) -> np.ndarray:
    """Gamma(t) of ``spec`` from ``initial``."""
    return _block_covariance(_coupling_block(*spec.couplings(), spec.fields_b), t, initial)


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
    gamma: np.ndarray,
    word: tuple[int, ...],
    sign: float,
    border: tuple[float, np.ndarray] | None = None,
) -> float:
    """<P> = sign * Pf(Gamma_word) of the Gaussian state ``gamma``, by Wick's theorem.

    ``word`` and ``sign`` come from :func:`_pair_words`.  ``border``, a
    pair's ``(Pf(S), C)`` from :func:`_carried_borders`, serves a string
    with X or Y on both sites of that pair, whose word is l, S, r: Pf =
    Pf(S) C[l, r], with l and r read from the word.
    """
    if border is None:
        return sign * _pfaffian(gamma[np.ix_(word, word)])
    inner, schur = border
    return sign * inner * schur[word[0] % 2, 2 + word[-1] % 2]


def _pair_density(
    gamma: np.ndarray, p: int, q: int, border: tuple[float, np.ndarray] | None = None
) -> np.ndarray:
    """The 4x4 density of sites (p, q), p the most significant bit.

    The state has a definite Z parity, so the expectations of the nine
    parity-odd letter pairs vanish and the seven parity-even ones, with
    the identity, give rho = sum <P> P / 4.  XX, XY, YX and YY take the
    pair's carried ``border`` when given, the rest a direct Pfaffian.
    """
    rho = np.eye(4, dtype=complex) / 4
    for k, ((word, sign), matrix) in enumerate(zip(_pair_words(p, q), _PAIR_MATRICES)):
        rho += _expectation(gamma, word, sign, border if k >= 3 else None) * matrix / 4
    return rho


def verify_free_fermion(
    spec: ChainSpec, t: float, initial: InitialState | str = InitialState.ALL0
) -> VerificationReport:
    """The :func:`verify_matryoshka` report of the chain evolved for ``t``, without a state.

    Starts from the ``initial`` product state and scores against
    ``bell_schedule(spec.n_sites, initial)``.  Each pair's 4x4 density
    is scored as :func:`verify_matryoshka` scores it; the central purity is
    (1 + <Z>^2)/2, since <X> and <Y> vanish by parity; the global
    fidelity is sqrt|Pf((Gamma_ideal + Gamma)/2)|, with Gamma_ideal built
    from the schedule's Bell pairs and central spin.  Agrees with the
    state route to rounding; the cost grows as a power of N, not as 2^N.
    """
    t = _check_real("time", t)
    initial = _check_choice(InitialState, initial, "initial state")
    gamma = _evolved_covariance(spec, t, initial)
    schedule = bell_schedule(spec.n_sites, initial)
    borders = _carried_borders(gamma)
    reports = []
    for (p, q), label in schedule.pairs:
        rho = DensityMatrix._trusted((p, q), _pair_density(gamma, p, q, borders.get(p)))
        reports.append(_pair_report(rho, label))
    centre = schedule.central_site
    central_z = _expectation(gamma, (2 * centre - 2, 2 * centre - 1), -1.0)
    return VerificationReport(
        schedule,
        tuple(reports),
        (1.0 + central_z**2) / 2,
        central_z,
        _gaussian_fidelity(_ideal_covariance(schedule), gamma),
    )
