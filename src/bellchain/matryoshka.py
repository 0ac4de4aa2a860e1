"""Prediction, construction, and verification of nested Bell-pair states.

At the protocol time t* the alternating-pattern chain maps any Z-basis
product state onto a product of Bell pairs on mirror sites (i, N-i+1)
around a separable central spin.  This module predicts that layout,
builds the ideal state, scores arbitrary states against it, and checks
the Heisenberg-picture identity that evolved symmetric pair operators
are signed Z-strings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .analysis import concurrence, purity
from .chain import ChainSpec, build_hamiltonian
from .errors import DimensionMismatchError, ValidationError
from .evolve import heisenberg_evolve
from .pauli import _TIE_TOL, PauliString, StateVector, _check_chain_length, reduced_density
from .pauli import _complex_array

_MATCH_COEFF_TOL = 1e-6


class BellLabel(enum.Enum):
    """The four Bell states on a site pair (p, q), p the lower index."""

    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"


class InitialState(enum.Enum):
    """Supported product initial states for schedule prediction."""

    ALL0 = "all0"
    ALL1 = "all1"


_SQRT_HALF = 1.0 / np.sqrt(2.0)
# amplitude tables indexed by (b_p << 1) | b_q
_BELL_TABLE = {
    BellLabel.PSI_PLUS: np.array([0.0, _SQRT_HALF, _SQRT_HALF, 0.0], dtype=complex),
    BellLabel.PSI_MINUS: np.array([0.0, _SQRT_HALF, -_SQRT_HALF, 0.0], dtype=complex),
    BellLabel.PHI_PLUS: np.array([_SQRT_HALF, 0.0, 0.0, _SQRT_HALF], dtype=complex),
    BellLabel.PHI_MINUS: np.array([_SQRT_HALF, 0.0, 0.0, -_SQRT_HALF], dtype=complex),
}


def bell_state(label: BellLabel) -> np.ndarray:
    """4-amplitude vector of a Bell state, |b_p b_q> basis order."""
    return _BELL_TABLE[label].copy()


def _mixed_bell_fidelity(b: np.ndarray, rho: np.ndarray) -> float:
    """sqrt(<b|rho|b>) of a Bell vector against a 4x4 density, clipped at 0."""
    return float(np.sqrt(max(0.0, np.real(np.vdot(b, rho @ b)))))


def closest_bell(pair: np.ndarray) -> tuple[BellLabel, float]:
    """Best-matching Bell label for a pure 4-vector or a 4x4 density.

    Returns the label and the fidelity: |<b|psi>| for vectors,
    sqrt(<b|rho|b>) for matrices.  Ties keep the first label in enum
    order, so the result is deterministic.
    """
    pair = _complex_array(pair, "pair")
    if pair.shape not in ((4,), (4, 4)):
        raise ValidationError(f"expected a 4-vector or 4x4 matrix, got shape {pair.shape}")
    if not np.isfinite(pair).all():
        raise ValidationError("pair entries must be finite")
    best_label, best_fid = None, -1.0
    for label in BellLabel:
        b = _BELL_TABLE[label]
        fid = abs(np.vdot(b, pair)) if pair.ndim == 1 else _mixed_bell_fidelity(b, pair)
        if fid > best_fid:
            best_label, best_fid = label, fid
    return best_label, best_fid


@dataclass(frozen=True)
class MatryoshkaSchedule:
    """Predicted pair labels and central-spin value for one chain.

    Pairs are mirror-symmetric (p, N-p+1) and together with the
    central site partition {1..N}.
    """

    n_sites: int
    central_value: int
    pairs: tuple[tuple[tuple[int, int], BellLabel], ...]

    def __post_init__(self):
        n = self.n_sites
        _check_chain_length(n)
        if self.central_value not in (0, 1):
            raise ValidationError("central value must be 0 or 1")
        seen = {self.central_site}
        for (p, q), _ in self.pairs:
            if q != n - p + 1:
                raise ValidationError(f"pair ({p}, {q}) is not mirror-symmetric")
            if p in seen or q in seen:
                raise ValidationError(f"site reuse in pair ({p}, {q})")
            seen.update((p, q))
        if seen != set(range(1, n + 1)):
            raise ValidationError("pairs plus central site must partition the chain")

    @property
    def central_site(self) -> int:
        return (self.n_sites + 1) // 2

    def to_json_dict(self) -> dict:
        return {
            "n_sites": self.n_sites,
            "central_site": self.central_site,
            "central_value": self.central_value,
            "pairs": [
                {"sites": [p, q], "label": label.value} for (p, q), label in self.pairs
            ],
        }


def bell_schedule(n_sites: int, initial: InitialState | str = InitialState.ALL0) -> MatryoshkaSchedule:
    """Predict the pair layout at t* for an all-up or all-down start.

    Odd-p pairs are (2i+1, N-2i) for i up to floor((N-3)/4) and even-p
    pairs are (2i, N-2i+1) for i up to floor((N-1)/4); the two floors
    make the pairs partition the non-central sites for every odd N.
    Labels depend only on the parity of the central site: odd central
    sites pair PsiPlus on odd p with PsiMinus on even p and take
    central value 0 from the all-down start; even central sites swap
    the labels and take central value 1.  Starting from all-up flips
    only the central value.
    """
    _check_chain_length(n_sites)
    try:
        initial = InitialState(initial)
    except ValueError:
        raise ValidationError(f"unknown initial state {initial!r}") from None
    central = (n_sites + 1) // 2
    if central % 2 == 1:
        odd_label, even_label = BellLabel.PSI_PLUS, BellLabel.PSI_MINUS
        central_value = 0
    else:
        odd_label, even_label = BellLabel.PSI_MINUS, BellLabel.PSI_PLUS
        central_value = 1
    if initial is InitialState.ALL1:
        central_value = 1 - central_value
    pairs = []
    for i in range((n_sites - 3) // 4 + 1):
        pairs.append(((2 * i + 1, n_sites - 2 * i), odd_label))
    for i in range(1, (n_sites - 1) // 4 + 1):
        pairs.append(((2 * i, n_sites - 2 * i + 1), even_label))
    pairs.sort(key=lambda entry: entry[0][0])
    return MatryoshkaSchedule(n_sites, central_value, tuple(pairs))


def bell_product_amplitudes(
    n_sites: int,
    labeled_pairs: Sequence[tuple[int, int, BellLabel]],
    central_site: int,
    central_value: int,
) -> np.ndarray:
    """Amplitudes of a product of Bell pairs and one central basis spin."""
    idx = np.arange(1 << n_sites, dtype=np.int64)
    amps = np.ones(idx.size, dtype=complex)
    for p, q, label in labeled_pairs:
        bp = (idx >> (p - 1)) & 1
        bq = (idx >> (q - 1)) & 1
        amps *= _BELL_TABLE[label][(bp << 1) | bq]
    bc = (idx >> (central_site - 1)) & 1
    amps *= bc == central_value
    return amps


def ideal_matryoshka_state(schedule: MatryoshkaSchedule) -> StateVector:
    """Tensor-assemble the scheduled state as a unit-norm vector."""
    amps = bell_product_amplitudes(
        schedule.n_sites,
        [(p, q, label) for (p, q), label in schedule.pairs],
        schedule.central_site,
        schedule.central_value,
    )
    return StateVector(amps)


@dataclass(frozen=True)
class PairReport:
    """Per-pair verification numbers."""

    sites: tuple[int, int]
    label: BellLabel
    concurrence: float
    bell_fidelity: float
    purity: float

    def to_json_dict(self) -> dict:
        return {
            "sites": list(self.sites),
            "label": self.label.value,
            "concurrence": self.concurrence,
            "bell_fidelity": self.bell_fidelity,
            "purity": self.purity,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Scorecard of a state against a schedule (report-only, no gating)."""

    schedule: MatryoshkaSchedule
    pair_reports: tuple[PairReport, ...]
    central_purity: float
    central_z: float
    global_fidelity: float

    def to_json_dict(self) -> dict:
        return {
            "schedule": self.schedule.to_json_dict(),
            "pairs": [report.to_json_dict() for report in self.pair_reports],
            "central": {
                "site": self.schedule.central_site,
                "purity": self.central_purity,
                "z_expectation": self.central_z,
            },
            "global_fidelity": self.global_fidelity,
        }


def verify_matryoshka(state: StateVector, schedule: MatryoshkaSchedule) -> VerificationReport:
    """Concurrences, Bell fidelities, purities, and the global overlap.

    Pair fidelity is sqrt(<b|rho|b>) of the scheduled Bell state
    against the two-site reduced density, which reduces to |<b|psi>|
    whenever the pair factorizes.
    """
    if state.n_sites != schedule.n_sites:
        raise DimensionMismatchError(
            f"state has {state.n_sites} sites, schedule expects {schedule.n_sites}"
        )
    reports = []
    for (p, q), label in schedule.pairs:
        rho = reduced_density(state, (p, q))
        overlap = _mixed_bell_fidelity(_BELL_TABLE[label], rho.matrix)
        reports.append(PairReport((p, q), label, concurrence(rho), overlap, purity(rho)))
    central = schedule.central_site
    rho_c = reduced_density(state, (central,))
    central_z = float(np.real(rho_c.matrix[0, 0] - rho_c.matrix[1, 1]))
    ideal = ideal_matryoshka_state(schedule)
    return VerificationReport(
        schedule,
        tuple(reports),
        purity(rho_c),
        central_z,
        abs(ideal.inner(state)),
    )


def mirror_pair_sign(n_sites: int, pair_index: int) -> int:
    """Predicted sign (-1)^((N - 2i + 1)/2) of the matched Z-string."""
    _check_chain_length(n_sites)
    if not 1 <= pair_index <= (n_sites - 1) // 2:
        raise ValidationError(f"pair index {pair_index} outside 1..{(n_sites - 1) // 2}")
    return (-1) ** ((n_sites - 2 * pair_index + 1) // 2)


@dataclass(frozen=True)
class FluxMatch:
    """Outcome of matching one evolved pair operator to a signed Z-string.

    ``residual`` is the operator 2-norm distance to sign * Z-string
    when a Z component exists; with no Z component at all it falls back
    to the norm of the evolved operator itself and ``z_sites`` is None.
    """

    pair_index: int
    kind: str
    z_sites: tuple[int, ...] | None
    sign: int | None
    coefficient: float
    residual: float
    matched: bool

    def to_json_dict(self) -> dict:
        return {
            "pair_index": self.pair_index,
            "kind": self.kind,
            "z_sites": list(self.z_sites) if self.z_sites is not None else None,
            "sign": self.sign,
            "coefficient": self.coefficient,
            "residual": self.residual,
            "matched": self.matched,
        }


def _mask_sites(mask: int) -> tuple[int, ...]:
    return tuple(p + 1 for p in range(mask.bit_length()) if (mask >> p) & 1)


def _hermitian_norm(matrix: np.ndarray) -> float:
    """Operator 2-norm of a Hermitian matrix: its largest |eigenvalue|."""
    return float(np.abs(np.linalg.eigvalsh(matrix)).max())


def flux_check(spec: ChainSpec, t: float) -> list[FluxMatch]:
    """Evolve each symmetric pair operator and match it to a Z-string.

    For every i = 1..(N-1)/2 and kind XX, YY the operator on sites
    (i, N-i+1), Heisenberg-evolved under the chain ``spec`` describes,
    is projected on every Z-only string except the identity.  Those
    coefficients tr(Z_z M)/2^N depend only on the diagonal of M, so one
    Walsh-Hadamard transform of the diagonal gives all of them at once.
    The largest magnitude wins; magnitudes within a relative ``_TIE_TOL``
    of it are ties, which go to the smallest letter string.  A match
    requires the winning magnitude to reach 1 - 1e-6 with every other
    coefficient below 1e-6.
    """
    n_sites = spec.n_sites
    hamiltonian = build_hamiltonian(spec)
    evolved = {}
    for i in range(1, (n_sites - 1) // 2 + 1):
        for letter in ("X", "Y"):
            letters = ["I"] * n_sites
            letters[i - 1] = letters[n_sites - i] = letter
            evolved[i, letter * 2] = heisenberg_evolve(
                hamiltonian, PauliString.from_letters(letters), t
            )
    # built only after heisenberg_evolve has checked the size: it has 4^N
    # entries, and row z is the diagonal of the Z-string with mask z
    walsh = scipy.linalg.hadamard(1 << n_sites)
    out = []
    for (i, kind), matrix in evolved.items():
        spectrum = walsh @ matrix.diagonal().real / walsh.shape[0]
        magnitudes = np.abs(spectrum)
        magnitudes[0] = -1.0  # the identity is not a Z-string: never a candidate
        top = magnitudes.max()
        if top <= 1e-12:
            out.append(FluxMatch(i, kind, None, None, 0.0, _hermitian_norm(matrix), False))
            continue
        mask = min(
            (int(m) for m in np.flatnonzero(magnitudes >= top * (1.0 - _TIE_TOL))),
            key=lambda m: PauliString(n_sites, 0, m).letters,
        )
        value = float(spectrum[mask])
        sign = 1 if value > 0 else -1
        others_small = np.delete(magnitudes, mask).max() <= _MATCH_COEFF_TOL
        matched = bool(magnitudes[mask] >= 1.0 - _MATCH_COEFF_TOL and others_small)
        residual = _hermitian_norm(matrix - sign * np.diag(walsh[mask]))
        out.append(FluxMatch(i, kind, _mask_sites(mask), sign, value, residual, matched))
    return out
