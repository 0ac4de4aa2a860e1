"""Independent brute-force references for validating the main code paths.

Everything here deliberately avoids the bitmask machinery the rest of
the package runs on: operators are materialized with explicit Kronecker
products and states are evolved through scipy's Pade scaling-and-squaring
matrix exponential, so agreement with the Propagator catches
common-mode bugs rather than reproducing them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .chain import HamiltonianTerms
from .errors import ValidationError
from .pauli import PauliString, StateVector

_ORACLE_MAX_SITES = 10
_DECOMPOSE_MAX_SITES = 5

_LETTER_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def dense_pauli(pauli: PauliString) -> np.ndarray:
    """Kronecker-product materialization (site N leftmost, site 1 = LSB)."""
    letters = pauli.letters
    factors = [_LETTER_MATRICES[letters[s - 1]] for s in range(pauli.n_sites, 0, -1)]
    return functools.reduce(np.kron, factors)


def dense_hamiltonian(hamiltonian: HamiltonianTerms) -> np.ndarray:
    """Sum of Kronecker-built terms, independent of the mask route."""
    dim = 1 << hamiltonian.n_sites
    matrix = np.zeros((dim, dim), dtype=complex)
    for weight, string in hamiltonian.terms:
        matrix += weight * dense_pauli(string)
    return matrix


def dense_expm_evolve(hamiltonian: HamiltonianTerms, state: StateVector, t: float) -> StateVector:
    """exp(-iHt)|v> through scipy.linalg.expm on the dense Hamiltonian."""
    if hamiltonian.n_sites > _ORACLE_MAX_SITES:
        raise ValidationError(
            f"the dense oracle stops at {_ORACLE_MAX_SITES} sites, got {hamiltonian.n_sites}"
        )
    if state.n_sites != hamiltonian.n_sites:
        raise ValidationError("state and Hamiltonian sizes differ")
    unitary = scipy.linalg.expm(-1j * t * dense_hamiltonian(hamiltonian))
    return StateVector(unitary @ state.amplitudes)


def closed_form_three_site_unitary(t: float, lam: float = 1.0) -> np.ndarray:
    """Exact N=3 propagator for the alternating pattern.

    With A = Y1 Y2 and B = X2 X3 the Hamiltonian is sqrt(2) lam (A + B)
    where A and B square to one and anticommute, so H^2 = 4 lam^2 and

        U(t) = cos(2 lam t) - i sin(2 lam t) (A + B) / sqrt(2).
    """
    a = dense_pauli(PauliString.from_letters("YYI"))
    b = dense_pauli(PauliString.from_letters("IXX"))
    angle = 2.0 * lam * t
    return np.cos(angle) * np.eye(8, dtype=complex) - 1j * np.sin(angle) * (a + b) / np.sqrt(2.0)


def closed_form_three_site_all0(t: float, lam: float = 1.0) -> StateVector:
    """Closed-form evolution of |000> on the three-site chain."""
    amps = np.zeros(8, dtype=complex)
    amps[0] = 1.0
    return StateVector(closed_form_three_site_unitary(t, lam) @ amps)


def exhaustive_pauli_decompose(matrix: np.ndarray) -> list[tuple[complex, PauliString]]:
    """Coefficients tr(P M)/2^N over every string, via dense traces.

    Only strings with |coefficient| above 1e-12 are returned, largest
    first with letter order breaking ties.
    """
    dim = matrix.shape[0]
    n = int(dim).bit_length() - 1
    if dim != (1 << n) or matrix.shape != (dim, dim):
        raise ValidationError(f"operator shape {matrix.shape} is not 2^N x 2^N")
    if n > _DECOMPOSE_MAX_SITES:
        raise ValidationError(
            f"exhaustive decomposition stops at {_DECOMPOSE_MAX_SITES} sites, got {n}"
        )
    out = []
    for code in range(4**n):
        letters = []
        rem = code
        for _ in range(n):
            letters.append("IXYZ"[rem % 4])
            rem //= 4
        string = PauliString.from_letters("".join(letters))
        coefficient = complex(np.trace(dense_pauli(string) @ matrix) / dim)
        if abs(coefficient) > 1e-12:
            out.append((coefficient, string))
    out.sort(key=lambda item: (-abs(item[0]), item[1].letters))
    return out


@dataclass(frozen=True)
class OracleReport:
    """A frozen comparison between a reference and the main code path."""

    case_id: str
    reference_value: object
    main_value: object
    discrepancy: float

    def to_json_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "reference_value": _jsonify(self.reference_value),
            "main_value": _jsonify(self.main_value),
            "discrepancy": self.discrepancy,
        }


def _jsonify(value: object) -> object:
    if isinstance(value, StateVector):
        value = value.amplitudes
    if isinstance(value, np.ndarray):
        flat = np.asarray(value, dtype=complex)
        return [[float(a.real), float(a.imag)] for a in flat.ravel()]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (float, int, str)):
        return value
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    raise ValidationError(f"cannot serialize oracle value of type {type(value)!r}")


def state_discrepancy(reference: StateVector, main: StateVector) -> float:
    """Phase-invariant distance: 1 - |<reference|main>|, floored at 0."""
    return max(0.0, 1.0 - abs(reference.inner(main)))


def compare_states(case_id: str, reference: StateVector, main: StateVector) -> OracleReport:
    return OracleReport(case_id, reference, main, state_discrepancy(reference, main))


def compare_scalars(case_id: str, reference: float, main: float) -> OracleReport:
    return OracleReport(case_id, float(reference), float(main), abs(reference - main))
