"""Dense ``expm`` evolution for the benchmark's correctness checks.

``bench/checks.py`` is the only caller: no library module imports this
one, and the tests hold its contract against the package-free routes of
``tests/_reference.py``.  Each term is materialized as an explicit
Kronecker product of its letters and the state is evolved through
scipy's Pade scaling-and-squaring matrix exponential, away from the
bitmask machinery the rest of the package runs on.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg

from .chain import HamiltonianTerms
from .errors import ValidationError
from .pauli import _LETTER_MATRICES, StateVector

_ORACLE_MAX_SITES = 10


def dense_expm_evolve(hamiltonian: HamiltonianTerms, state: StateVector, t: float) -> StateVector:
    """exp(-iHt)|v> through scipy.linalg.expm on the Kronecker-built Hamiltonian."""
    if hamiltonian.n_sites > _ORACLE_MAX_SITES:
        raise ValidationError(
            f"the dense oracle stops at {_ORACLE_MAX_SITES} sites, got {hamiltonian.n_sites}"
        )
    if state.n_sites != hamiltonian.n_sites:
        raise ValidationError("state and Hamiltonian sizes differ")
    dim = 1 << hamiltonian.n_sites
    matrix = np.zeros((dim, dim), dtype=complex)
    for weight, string in hamiltonian.terms:
        # site N leftmost in the Kronecker product, site 1 the least significant bit
        factors = [_LETTER_MATRICES[letter] for letter in reversed(string.letters)]
        matrix += weight * functools.reduce(np.kron, factors)
    unitary = scipy.linalg.expm(-1j * t * matrix)
    return StateVector(unitary @ state.amplitudes)
