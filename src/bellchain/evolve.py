"""Exact unitary time evolution of states and operators.

Two interchangeable propagation methods are provided: a cached full
eigendecomposition (default up to N = 12) and a matrix-free Lanczos
Krylov method for longer chains.  Both evolve each Z-parity sector of
the state on its own, under the Hamiltonian's (N-1)-site sector term
list (``HamiltonianTerms._parity_sectors``), and skip a sector the
state does not touch.

The eigen method diagonalises a sector once, on first use
(``HamiltonianTerms._eigh``), and every exact evolution of states or
operators under one Hamiltonian shares that diagonalisation.  On an odd
chain of nearest-neighbour bonds and Z fields it diagonalises the even
sector alone: the chain's chiral symmetry carries it onto the odd one
(``HamiltonianTerms._chiral_signs``), so one diagonalisation serves the
whole chain.

The sectors are orthogonal, so the Krylov method's error of the whole
is bounded by the sectors' bounds scaled by their norms.  In each
sector it runs the plain three-term Lanczos recurrence, without
reorthogonalisation: for exp(-iHt)|v> with Hermitian H the lost
orthogonality of the basis does not spoil the result (Druskin,
Greenbaum & Knizhnerman, SIAM J. Sci. Comput. 19, 38 (1998)).  The
basis grows one vector at a time, up to ``_KRYLOV_MAX_SUBSPACE``, and
stops as soon as the a-posteriori error estimate for the step meets
its share of ``_KRYLOV_TOLERANCE``: the share of a step of length s
in an evolution of length t is s/t, so the estimates of all steps sum
to at most the tolerance.  When the full basis cannot carry the step,
the step is halved on that same basis until it can; the method then
continues from the time reached, trying the whole remaining time again.
Its inner products are summed by numpy, in one thread, so its results
do not depend on the BLAS thread count.  Each step's projected problem,
the tridiagonal Lanczos matrix T of at most 40 x 40, is diagonalised
as a dense matrix by numpy (``_tridiagonal_eigh``).

Timing convention: with the Hamiltonian written in bare Pauli
operators (no factor 1/2) and the built-in coupling profile
J_i = lam * sqrt(i (N - i)), the nested Bell structure appears at

    t* = pi / (4 lam)

which is what :func:`matryoshka_time` returns.  Texts that write the
same model with spin operators S = sigma/2 quote t* = pi/lam, and a
Hamiltonian carrying a global 1/2 gives t* = pi/(2 lam); the three
are the same physical instant under rescaled couplings.  Every
protocol function accepts an explicit time so any convention can be
tested directly.
"""

from __future__ import annotations

import math
import os
from typing import Callable

import numpy as np

from .chain import HamiltonianTerms
from .errors import BellchainError, ConvergenceError, DimensionMismatchError, ValidationError
from .pauli import PauliString, StateVector, _check_real

_EIGEN_MAX_SITES = 12
_DENSE_OPERATOR_MAX_SITES = 8
_MAX_SUBSTEPS = 1 << 20
# error target of a whole Krylov evolution and Lanczos basis ceiling
_KRYLOV_TOLERANCE = 1e-10
_KRYLOV_MAX_SUBSPACE = 40
_NOT_FINITE = "the evolution overflowed: the Hamiltonian or time is too large for double precision"


def matryoshka_time(lam: float = 1.0) -> float:
    """Protocol time t* = pi/(4 lam) for the bare-Pauli convention."""
    lam = _check_real("coupling scale", lam)
    if lam <= 0:
        raise ValidationError(f"coupling scale must be positive, got {lam}")
    t_star = math.pi / (4.0 * lam)
    if t_star == 0.0:
        raise ValidationError(f"coupling scale {lam!r} is too large: t* = pi/(4 lam) is 0")
    if math.isinf(t_star):
        raise ValidationError(f"coupling scale {lam!r} is too small: t* = pi/(4 lam) overflows")
    return t_star


def _check_memory(need: int, what: str) -> None:
    """Raise ValidationError when ``what`` needs more than the host's physical memory.

    ``need`` is in bytes.  Called before the allocation, so that a chain
    too large for the host exits 2 instead of failing inside numpy.
    """
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ValidationError(
            f"{what} needs {need} bytes, more than the {have} bytes of physical memory"
        )


class Propagator:
    """Reusable exp(-iHt) engine for one Hamiltonian.

    Parameters
    ----------
    hamiltonian : HamiltonianTerms
        The (Hermitian) term list to evolve under.
    method : str
        "eigen", "krylov", or "auto" (eigen up to 12 sites, Krylov
        beyond).  The eigen method refuses chains longer than 12 sites.

    Both methods evolve each Z-parity sector the state touches on its
    own, on 2^(N-1) amplitudes.  The eigen method uses the sector's
    cached diagonalisation (``HamiltonianTerms._eigh``, built on first
    use); on a chain the odd sector uses the even sector's instead,
    through the chiral map, so a state that fills both sectors costs
    one diagonalisation.  The Krylov method (plain Lanczos, stepped as
    the module docstring describes) uses a basis of at most 40 vectors;
    it refuses a chain whose ``40 * 2^N * 16`` bytes, twice the basis
    of one sector, exceed physical memory.  Its error target, 1e-10,
    bounds the sum of the steps' a-posteriori estimates over the whole
    evolution.
    """

    def __init__(self, hamiltonian: HamiltonianTerms, method: str = "auto"):
        if method == "auto":
            method = "eigen" if hamiltonian.n_sites <= _EIGEN_MAX_SITES else "krylov"
        if method not in ("eigen", "krylov"):
            raise ValidationError(f"unknown propagation method {method!r}")
        if method == "eigen" and hamiltonian.n_sites > _EIGEN_MAX_SITES:
            raise ValidationError(
                f"eigendecomposition is limited to {_EIGEN_MAX_SITES} sites, "
                f"got {hamiltonian.n_sites}; use the krylov method"
            )
        if method == "krylov":
            _check_memory(
                _KRYLOV_MAX_SUBSPACE * (1 << hamiltonian.n_sites) * 16,
                f"a Krylov basis of {_KRYLOV_MAX_SUBSPACE} vectors at {hamiltonian.n_sites} sites",
            )
        self.hamiltonian = hamiltonian
        self.method = method

    def evolve(self, state: StateVector, t: float) -> StateVector:
        """exp(-iHt)|v>, one parity sector the state touches at a time.

        On the eigen route a chain's odd sector is evolved by the even
        sector's diagonalisation at -t, between two applications of the
        chiral map.  Deterministic and norm-preserving.  Raises BellchainError when the
        result is not finite, which happens when the Hamiltonian or the
        time overflows double precision.
        """
        if state.n_sites != self.hamiltonian.n_sites:
            raise DimensionMismatchError(
                f"state has {state.n_sites} sites, Hamiltonian {self.hamiltonian.n_sites}"
            )
        t = _check_real("time", t)
        amps = np.zeros(state.dim, dtype=complex)
        for p, (idx, sector) in enumerate(self.hamiltonian._parity_sectors):
            part = state.amplitudes[idx]
            if not part.any():
                continue
            if self.method == "eigen":
                amps[idx] = _eigen_expm(self.hamiltonian, p, t, part)
            else:
                amps[idx] = _krylov_expm(sector.apply, part, t)
        if not np.isfinite(amps).all():
            raise BellchainError(_NOT_FINITE)
        return StateVector._trusted(state.n_sites, amps)


def _eigen_expm(
    hamiltonian: HamiltonianTerms, p: int, t: float, part: np.ndarray | None = None
) -> np.ndarray:
    """exp(-iH_p t) on parity sector ``p``: applied to ``part``, or as a matrix if that is None.

    H_p = V diag(w) V^dag comes from the sector's cached diagonalisation
    (``HamiltonianTerms._eigh``).  The odd sector of a chain with
    ``_chiral_signs`` s uses the even sector's instead:
    U_odd(t) = M U_even(-t) M^T, with M reversing the index and scaling
    it by s.
    """
    signs = hamiltonian._chiral_signs if p else None
    if signs is not None:
        if part is None:
            return (np.outer(signs, signs) * _eigen_expm(hamiltonian, 0, -t))[::-1, ::-1]
        return _chiral_map(signs, _eigen_expm(hamiltonian, 0, -t, signs * part[::-1]))
    w, v = hamiltonian._parity_sectors[p][1]._eigh
    phases = np.exp(-1j * w * t)
    if part is None:
        return _times(v, phases[:, None] * v.conj().T)
    return _times(v, phases * _times(v.conj().T, part))


def _chiral_map(signs: np.ndarray, even: np.ndarray) -> np.ndarray:
    """M x: the chiral map W on even-sector amplitudes, in odd-sector indices.

    M scales position j by ``signs[j]`` (``HamiltonianTerms._chiral_signs``)
    and reverses the index; its transpose is ``signs * y[::-1]``.
    """
    return (signs * even)[::-1]


def _times(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a @ z for a complex vector or matrix z.

    A real ``a`` (every chain sector's eigenvectors) multiplies the
    interleaved real and imaginary parts of z as one real array, so it
    is never cast to a complex copy.
    """
    if np.iscomplexobj(a):
        return a @ z
    pairs = np.ascontiguousarray(z).view(np.float64).reshape(z.shape[0], -1)
    return (a @ pairs).view(complex).reshape(a.shape[0], *z.shape[1:])


def _krylov_expm(
    apply_h: Callable[[np.ndarray], np.ndarray],
    amplitudes: np.ndarray,
    t: float,
) -> np.ndarray:
    """Lanczos propagation in steps that each try the whole remaining time.

    All steps share one preallocated ``(_KRYLOV_MAX_SUBSPACE, amplitudes.size)`` basis.
    """
    if t == 0.0:
        return amplitudes.copy()
    basis = np.empty((_KRYLOV_MAX_SUBSPACE, amplitudes.size), dtype=complex)
    current, remaining = amplitudes, t
    while True:
        current, step = _lanczos_step(apply_h, current, remaining, basis, t)
        if step == remaining:
            return current
        remaining -= step


def _lanczos_step(
    apply_h: Callable[[np.ndarray], np.ndarray],
    v: np.ndarray,
    dt: float,
    basis: np.ndarray,
    t: float,
) -> tuple[np.ndarray, float]:
    """exp(-iH s)|v> for the longest s in dt, dt/2, dt/4, ... that converges.

    ``t`` is the time of the whole evolution this step belongs to.  The
    basis grows by the plain three-term recurrence, one vector at a
    time, and stops at the first size m whose a-posteriori error
    estimate |s| * beta_m * |y_m| is at most |s|/|t| times
    ``_KRYLOV_TOLERANCE`` (so |t| * beta_m * |y_m| is at most the
    tolerance) for s = dt.  If the full basis fails, s is halved on
    that same basis, which does not depend on s, until the estimate
    passes; below |t| / ``_MAX_SUBSTEPS`` the propagation gives up.
    Returns ``(result, s)``.
    """
    norm0 = math.sqrt(_real_dot(v, v))
    basis[0] = v / norm0
    alphas: list[float] = []
    betas: list[float] = []
    for j in range(basis.shape[0]):
        w = apply_h(basis[j])
        alpha = _real_dot(basis[j], w)
        w -= alpha * basis[j]
        if j > 0:
            w -= betas[j - 1] * basis[j - 1]
        alphas.append(alpha)
        beta = math.sqrt(_real_dot(w, w))
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise BellchainError(_NOT_FINITE)
        w_small, q_small = _tridiagonal_eigh(alphas, betas)
        coefficients = q_small @ (np.exp(-1j * w_small * dt) * q_small[0, :])
        if beta < 1e-14 * max(1.0, abs(alpha)):
            break  # happy breakdown: the basis spans an invariant subspace
        if abs(t) * beta * abs(coefficients[-1]) <= _KRYLOV_TOLERANCE:
            break
        betas.append(beta)
        if j + 1 < basis.shape[0]:
            basis[j + 1] = w / beta
    else:
        # the full basis failed at dt: shrink the step on the same basis
        while abs(t) * beta * abs(coefficients[-1]) > _KRYLOV_TOLERANCE:
            dt /= 2
            if abs(dt) < abs(t) / _MAX_SUBSTEPS:
                raise ConvergenceError(
                    f"Krylov propagation did not reach tolerance {_KRYLOV_TOLERANCE:.1e} "
                    f"with steps down to 1/{_MAX_SUBSTEPS} of the time"
                )
            coefficients = q_small @ (np.exp(-1j * w_small * dt) * q_small[0, :])
    m = len(alphas)
    return norm0 * (coefficients @ basis[:m]), dt


def _tridiagonal_eigh(alphas: list[float], betas: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the Lanczos matrix T.

    T is symmetric tridiagonal, ``alphas`` on the diagonal and ``betas``
    (one shorter, empty for m = 1) beside it.  At most
    ``_KRYLOV_MAX_SUBSPACE`` wide, it is solved as a dense matrix by
    numpy's ``eigh``, which keeps the runtime free of scipy.
    """
    return np.linalg.eigh(np.diag(alphas) + np.diag(betas, -1) + np.diag(betas, 1))


def _real_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re <a|b> of two contiguous complex vectors, summed by numpy's einsum loop.

    BLAS (``np.vdot``, ``np.linalg.norm``) splits long sums over its
    threads, so its rounding, and with it every Krylov artifact, would
    depend on the thread count.  einsum runs in one thread; over the
    interleaved real and imaginary parts it is a single real dot product.
    """
    return float(np.einsum("i,i->", a.view(np.float64), b.view(np.float64)))


def heisenberg_evolve(hamiltonian: HamiltonianTerms, pauli: PauliString, t: float) -> np.ndarray:
    """U(t)^dag P U(t) as a dense 2^N x 2^N matrix, for up to 8 sites.

    U(t) is assembled sector by sector from the cached diagonalisations
    that the eigen :class:`Propagator` shares.  On a chain only the even
    sector is diagonalised: the odd block is the even one at -t,
    reversed on both axes and scaled by s s^T (s the chiral signs).
    Raises BellchainError when the result is not finite.
    """
    n = hamiltonian.n_sites
    if n > _DENSE_OPERATOR_MAX_SITES:
        raise ValidationError(
            f"dense Heisenberg evolution is limited to {_DENSE_OPERATOR_MAX_SITES} sites, got {n}"
        )
    if pauli.n_sites != n:
        raise DimensionMismatchError("operator length does not match the Hamiltonian")
    t = _check_real("time", t)
    u = np.zeros((1 << n, 1 << n), dtype=complex)
    for p, (idx, _) in enumerate(hamiltonian._parity_sectors):
        u[np.ix_(idx, idx)] = _eigen_expm(hamiltonian, p, t)
    evolved = u.conj().T @ pauli.dense() @ u
    if not np.isfinite(evolved).all():
        raise BellchainError(_NOT_FINITE)
    return evolved
