"""Exact unitary time evolution of states and operators.

Two interchangeable propagation methods are provided: a cached full
eigendecomposition (default up to N = 12) and a matrix-free Lanczos
Krylov method for longer chains.

The Krylov method grows its basis one vector at a time and stops as
soon as the a-posteriori error estimate for the step meets the
tolerance.  When the full basis cannot carry the step, the step is
halved on that same basis until it can; the method then continues from
the time reached, trying the whole remaining time again.

The eigendecomposition works block by block.  Every XX or YY bond
flips two spins, so a chain Hamiltonian commutes with the total parity
prod_i Z_i and splits into an even and an odd popcount block of size
2^(N-1) each; with XX, YY and Z terms it is also real symmetric, so
each block is diagonalised in real arithmetic.  A term list that flips
an odd number of spins, or has complex entries, keeps one block (real
or complex) holding every basis index.

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
import scipy.linalg

from .chain import HamiltonianTerms, _check_finite
from .errors import BellchainError, ConvergenceError, DimensionMismatchError, ValidationError
from .pauli import PauliString, StateVector, _mask_action

_EIGEN_MAX_SITES = 12
_DENSE_OPERATOR_MAX_SITES = 8
_MAX_SUBSTEPS = 1 << 20
_NOT_FINITE = "the evolution overflowed: the Hamiltonian or time is too large for double precision"


def matryoshka_time(lam: float = 1.0) -> float:
    """Protocol time t* = pi/(4 lam) for the bare-Pauli convention."""
    _check_finite("coupling scale", lam)
    if lam <= 0:
        raise ValidationError(f"coupling scale must be positive, got {lam}")
    return math.pi / (4.0 * lam)


class Propagator:
    """Reusable exp(-iHt) engine for one Hamiltonian.

    Parameters
    ----------
    hamiltonian : HamiltonianTerms
        The (Hermitian) term list to evolve under.
    method : str
        "eigen", "krylov", or "auto" (eigen up to 12 sites, Krylov
        beyond).  The eigen method refuses chains longer than 12 sites.
    tolerance, max_subspace : float, int
        Krylov controls: the error target of each step and the Lanczos
        basis-size ceiling.  Ignored by the eigen method.  ``tolerance``
        bounds each step's a-posteriori error estimate, not the whole
        propagation: a run of many steps can end further from the exact
        result than ``tolerance``.  The Krylov method refuses a basis of
        ``max_subspace * 2^N * 16`` bytes larger than physical memory.

    The eigen method stores one ``(indices, eigenvalues, eigenvectors)``
    triple per Z-parity block (see :func:`_eigen_blocks`) and evolves
    each block on its own.  The Krylov method stops growing its basis at
    the first size that meets ``tolerance`` for the remaining time; if
    the full basis does not, it halves the step on that same basis until
    it does, and repeats from the time reached.
    """

    def __init__(
        self,
        hamiltonian: HamiltonianTerms,
        method: str = "auto",
        tolerance: float = 1e-10,
        max_subspace: int = 40,
    ):
        if method == "auto":
            method = "eigen" if hamiltonian.n_sites <= _EIGEN_MAX_SITES else "krylov"
        if method not in ("eigen", "krylov"):
            raise ValidationError(f"unknown propagation method {method!r}")
        if method == "eigen" and hamiltonian.n_sites > _EIGEN_MAX_SITES:
            raise ValidationError(
                f"eigendecomposition is limited to {_EIGEN_MAX_SITES} sites, "
                f"got {hamiltonian.n_sites}; use the krylov method"
            )
        if tolerance <= 0:
            raise ValidationError("tolerance must be positive")
        if max_subspace < 2:
            raise ValidationError("max_subspace must be at least 2")
        if method == "krylov":
            need = max_subspace * (1 << hamiltonian.n_sites) * 16
            have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
            if need > have:
                raise ValidationError(
                    f"a Krylov basis of {max_subspace} vectors at {hamiltonian.n_sites} "
                    f"sites needs {need} bytes, more than the {have} bytes of physical memory"
                )
        self.hamiltonian = hamiltonian
        self.method = method
        self.tolerance = float(tolerance)
        self.max_subspace = int(max_subspace)
        self._blocks = _eigen_blocks(hamiltonian) if method == "eigen" else []

    def evolve(self, state: StateVector, t: float) -> StateVector:
        """exp(-iHt)|v>, deterministic and norm-preserving.

        Raises BellchainError when the result is not finite, which happens
        when the Hamiltonian or the time overflows double precision.
        """
        if state.n_sites != self.hamiltonian.n_sites:
            raise DimensionMismatchError(
                f"state has {state.n_sites} sites, Hamiltonian {self.hamiltonian.n_sites}"
            )
        _check_finite("time", t)
        if self.method == "eigen":
            amps = np.empty(state.dim, dtype=complex)
            for idx, w, v in self._blocks:
                amps[idx] = v @ (np.exp(-1j * w * t) * (v.conj().T @ state.amplitudes[idx]))
        else:
            amps = _krylov_expm(
                self.hamiltonian.apply,
                state.amplitudes,
                t,
                self.tolerance,
                self.max_subspace,
            )
        if not np.isfinite(amps).all():
            raise BellchainError(_NOT_FINITE)
        return StateVector._trusted(state.n_sites, amps)


def _eigen_blocks(
    hamiltonian: HamiltonianTerms,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Diagonalise H block by block: ``(indices, eigenvalues, eigenvectors)``.

    H splits into the even and odd Z-parity blocks when every term
    flips an even number of spins, and is diagonalised as a real matrix
    when it has no imaginary part.  Otherwise one block holds every
    basis index.
    """
    n = hamiltonian.n_sites
    idx = np.arange(1 << n, dtype=np.int64)
    h = hamiltonian.dense()
    if not h.imag.any():
        h = h.real
    groups = [idx]
    if all(string.x_mask.bit_count() % 2 == 0 for _, string in hamiltonian.terms):
        _, parity = _mask_action(PauliString(n, 0, (1 << n) - 1), idx)
        groups = [idx[parity.real > 0], idx[parity.real < 0]]
    return [(group, *np.linalg.eigh(h[np.ix_(group, group)])) for group in groups]


def _krylov_expm(
    apply_h: Callable[[np.ndarray], np.ndarray],
    amplitudes: np.ndarray,
    t: float,
    tolerance: float,
    max_subspace: int,
) -> np.ndarray:
    """Lanczos propagation in steps that each try the whole remaining time.

    All steps share one preallocated ``(max_subspace, 2^N)`` basis.
    """
    if t == 0.0:
        return amplitudes.copy()
    basis = np.empty((max_subspace, amplitudes.size), dtype=complex)
    min_step = abs(t) / _MAX_SUBSTEPS
    current, remaining = amplitudes, t
    while True:
        current, step = _lanczos_step(apply_h, current, remaining, tolerance, basis, min_step)
        if step == remaining:
            return current
        remaining -= step


def _lanczos_step(
    apply_h: Callable[[np.ndarray], np.ndarray],
    v: np.ndarray,
    dt: float,
    tolerance: float,
    basis: np.ndarray,
    min_step: float,
) -> tuple[np.ndarray, float]:
    """exp(-iH s)|v> for the longest s in dt, dt/2, dt/4, ... that converges.

    The basis grows one vector at a time and stops at the first size m
    whose a-posteriori error estimate |s| * beta_m * |y_m| is within
    ``tolerance`` for s = dt.  If the full basis fails, s is halved on
    that same basis, which does not depend on s, until the estimate
    passes; below ``min_step`` the propagation gives up.  Returns
    ``(result, s)``.
    """
    norm0 = np.linalg.norm(v)
    basis[0] = v / norm0
    alphas: list[float] = []
    betas: list[float] = []
    for j in range(basis.shape[0]):
        w = apply_h(basis[j])
        alpha = float(np.real(np.vdot(basis[j], w)))
        w -= alpha * basis[j]
        if j > 0:
            w -= betas[j - 1] * basis[j - 1]
        # full reorthogonalization in two block Gram-Schmidt passes
        for _ in range(2):
            h = np.conj(basis[: j + 1] @ np.conj(w))
            w -= h @ basis[: j + 1]
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise BellchainError(_NOT_FINITE)
        w_small, q_small = scipy.linalg.eigh_tridiagonal(np.array(alphas), np.array(betas))
        coefficients = q_small @ (np.exp(-1j * w_small * dt) * q_small[0, :])
        if beta < 1e-14 * max(1.0, abs(alpha)):
            break  # happy breakdown: the basis spans an invariant subspace
        if abs(dt) * beta * abs(coefficients[-1]) <= tolerance:
            break
        betas.append(beta)
        if j + 1 < basis.shape[0]:
            basis[j + 1] = w / beta
    else:
        # the full basis failed at dt: shrink the step on the same basis
        while abs(dt) * beta * abs(coefficients[-1]) > tolerance:
            dt /= 2
            if abs(dt) < min_step:
                raise ConvergenceError(
                    f"Krylov propagation did not reach tolerance {tolerance:.1e} "
                    f"with steps down to 1/{_MAX_SUBSTEPS} of the time; loosen the "
                    f"tolerance or enlarge max_subspace"
                )
            coefficients = q_small @ (np.exp(-1j * w_small * dt) * q_small[0, :])
    m = len(alphas)
    return norm0 * (coefficients @ basis[:m]), dt


def heisenberg_evolve(hamiltonian: HamiltonianTerms, pauli: PauliString, t: float) -> np.ndarray:
    """U(t)^dag P U(t) as a dense 2^N x 2^N matrix, for up to 8 sites.

    U(t) is assembled block by block from the same parity-block
    eigendecomposition that :class:`Propagator` uses.  Raises
    BellchainError when the result is not finite.
    """
    n = hamiltonian.n_sites
    if n > _DENSE_OPERATOR_MAX_SITES:
        raise ValidationError(
            f"dense Heisenberg evolution is limited to {_DENSE_OPERATOR_MAX_SITES} sites, got {n}"
        )
    if pauli.n_sites != n:
        raise DimensionMismatchError("operator length does not match the Hamiltonian")
    _check_finite("time", t)
    u = np.zeros((1 << n, 1 << n), dtype=complex)
    for idx, w, v in _eigen_blocks(hamiltonian):
        u[np.ix_(idx, idx)] = v @ (np.exp(-1j * w * t)[:, None] * v.conj().T)
    evolved = u.conj().T @ pauli.dense() @ u
    if not np.isfinite(evolved).all():
        raise BellchainError(_NOT_FINITE)
    return evolved
