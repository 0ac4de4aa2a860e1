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
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .chain import ChainSpec, _pair_string, build_hamiltonian
from .errors import DimensionMismatchError, ValidationError
from .evolve import heisenberg_evolve
from .pauli import _TIE_TOL, DensityMatrix, PauliString, StateVector, _check_chain_length
from .pauli import _check_choice, _check_int, _check_site, _complex_array, _mask_action
from .pauli import _HERM_TOL, _check_memory, _density_array, _norm, _shown, concurrence
from .pauli import purity, reduced_density

_MATCH_COEFF_TOL = 1e-6
# Bell overlaps <b|rho|b> below this are rounding, counted as 0
_EIG_CUTOFF = 1e-12


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


def bell_state(label: BellLabel | str) -> np.ndarray:
    """4-amplitude vector of a Bell state, |b_p b_q> basis order."""
    return _BELL_TABLE[_check_choice(BellLabel, label, "Bell label")].copy()


def _mixed_bell_fidelity(b: np.ndarray, rho: np.ndarray) -> float:
    """sqrt(<b|rho|b>) of a Bell vector against a 4x4 density.

    <b|rho|b> below ``_EIG_CUTOFF`` counts as 0: it is rounding, and
    the root would lift rounding of 1e-16 to 1e-8.  Rounding above 1 is
    clipped to 1.
    """
    overlap = np.real(np.vdot(b, rho @ b))
    return min(1.0, float(np.sqrt(overlap))) if overlap >= _EIG_CUTOFF else 0.0


def closest_bell(pair: np.ndarray) -> tuple[BellLabel, float]:
    """Best-matching Bell label for a pure 4-vector or a 4x4 density.

    Returns the label and the fidelity: |<b|psi>| for vectors,
    sqrt(<b|rho|b>) for densities.  A vector must have norm 1 and a
    density must be one, each within 1e-12.  Ties keep
    the first label in enum order, so the result is deterministic.
    """
    pair = _complex_array(pair, "pair")
    if pair.ndim == 2:
        pair = _density_array(pair, dim=4)
    elif pair.shape != (4,):
        raise ValidationError(f"expected a 4-vector or 4x4 matrix, got shape {pair.shape}")
    elif not np.isfinite(pair).all():
        raise ValidationError("pair entries must be finite")
    elif abs((norm := _norm(pair)) - 1.0) > _HERM_TOL:
        raise ValidationError(f"pair state norm {norm} deviates from 1 beyond 1e-12")
    fidelities = {
        label: abs(np.vdot(b, pair)) if pair.ndim == 1 else _mixed_bell_fidelity(b, pair)
        for label, b in _BELL_TABLE.items()
    }
    best = max(fidelities, key=fidelities.get)  # the first of equal maxima
    return best, fidelities[best]


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
        n = _check_chain_length(self.n_sites)
        object.__setattr__(self, "n_sites", n)
        central_value = _check_int("central value", self.central_value)
        if central_value not in (0, 1):
            raise ValidationError("central value must be 0 or 1")
        object.__setattr__(self, "central_value", central_value)
        pairs = tuple(
            (
                (_check_int("pair site", p), _check_int("pair site", q)),
                _check_choice(BellLabel, label, "Bell label"),
            )
            for (p, q), label in self.pairs
        )
        object.__setattr__(self, "pairs", pairs)
        seen = {self.central_site}
        for (p, q), _ in pairs:
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

    The pairs are (p, N-p+1) for p = 1..(N-1)/2: PsiPlus when p has
    the parity of the central site, PsiMinus otherwise.  From the
    all-down start the central value is 0 for an odd central site and
    1 for an even one; starting from all-up flips it.
    """
    n_sites = _check_chain_length(n_sites)
    initial = _check_choice(InitialState, initial, "initial state")
    central = (n_sites + 1) // 2
    central_value = (central + 1) % 2 ^ (initial is InitialState.ALL1)
    pairs = tuple(
        ((p, n_sites - p + 1), BellLabel.PSI_PLUS if p % 2 == central % 2 else BellLabel.PSI_MINUS)
        for p in range(1, (n_sites - 1) // 2 + 1)
    )
    return MatryoshkaSchedule(n_sites, central_value, pairs)


def bell_product_amplitudes(
    n_sites: int,
    labeled_pairs: Sequence[tuple[int, int, BellLabel | str]],
    central_site: int,
    central_value: int,
) -> np.ndarray:
    """Amplitudes of a product of Bell pairs and one central basis spin."""
    n_sites = _check_int("n_sites", n_sites)
    central_site = _check_site(central_site, n_sites)  # so n_sites >= 1
    central_value = _check_int("central value", central_value)
    if central_value not in (0, 1):
        raise ValidationError("central value must be 0 or 1")
    # 64 bytes an amplitude, for the indices and temporaries; no host holds 2^64 of them
    _check_memory(64 << min(n_sites, 64), f"a product state of {_shown(n_sites)} sites")
    idx = np.arange(1 << n_sites, dtype=np.int64)
    amps = np.ones(idx.size, dtype=complex)
    for p, q, label in labeled_pairs:
        p, q = _check_site(p, n_sites), _check_site(q, n_sites)
        bp = (idx >> (p - 1)) & 1
        bq = (idx >> (q - 1)) & 1
        amps *= _BELL_TABLE[_check_choice(BellLabel, label, "Bell label")][(bp << 1) | bq]
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


class _JsonRecord:
    """A result record whose JSON holds each of its dataclass fields under the field's name.

    An Enum is written as its value, a tuple as a list and a complex array
    as its ``[re, im]`` pairs; every other value as it is.
    """

    def to_json_dict(self) -> dict:
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}


def _json_value(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, np.ndarray):
        return np.stack((value.real, value.imag), axis=-1).tolist()
    return value


@dataclass(frozen=True)
class PairReport(_JsonRecord):
    """Per-pair verification numbers."""

    sites: tuple[int, int]
    label: BellLabel
    concurrence: float
    bell_fidelity: float
    purity: float


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


def _pair_report(rho: DensityMatrix, label: BellLabel) -> PairReport:
    """Concurrence, purity and fidelity to the Bell state ``label`` of one pair's density."""
    fidelity = _mixed_bell_fidelity(_BELL_TABLE[label], rho.matrix)
    return PairReport(rho.sites, label, concurrence(rho), fidelity, purity(rho))


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
    reports = tuple(
        _pair_report(reduced_density(state, sites), label) for sites, label in schedule.pairs
    )
    central = schedule.central_site
    rho_c = reduced_density(state, (central,))
    central_z = float(np.real(rho_c.matrix[0, 0] - rho_c.matrix[1, 1]))
    ideal = ideal_matryoshka_state(schedule)
    return VerificationReport(
        schedule,
        reports,
        purity(rho_c),
        central_z,
        abs(ideal.inner(state)),
    )


def mirror_pair_sign(n_sites: int, pair_index: int) -> int:
    """Predicted sign (-1)^((N - 2i + 1)/2) of the matched Z-string."""
    n_sites = _check_chain_length(n_sites)
    pair_index = _check_int("pair index", pair_index)
    if not 1 <= pair_index <= (n_sites - 1) // 2:
        raise ValidationError(f"pair index {pair_index} outside 1..{(n_sites - 1) // 2}")
    return (-1) ** ((n_sites - 2 * pair_index + 1) // 2)


@dataclass(frozen=True)
class FluxMatch(_JsonRecord):
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


def _mask_sites(mask: int) -> tuple[int, ...]:
    return tuple(p + 1 for p in range(mask.bit_length()) if (mask >> p) & 1)


def _walsh(n: int) -> np.ndarray:
    """The 2^n x 2^n Sylvester-ordered Walsh-Hadamard matrix of int64 +-1.

    Row z, column j holds (-1)**popcount(z & j), the sign the Pauli
    kernel gives the all-Z string at index z & j; the rows come in the
    order (and the dtype) of ``scipy.linalg.hadamard(2**n)``.  The dtype
    stays int64: with a float64 matrix, ``walsh @ diagonal`` goes through
    BLAS and rounds the spectrum differently in its last bits.
    """
    idx = np.arange(1 << n, dtype=np.int64)
    _, signs = _mask_action(PauliString(n, 0, (1 << n) - 1), idx[:, None] & idx)
    return signs.real.astype(np.int64)


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
            pair = _pair_string(n_sites, i, n_sites - i + 1, letter)
            evolved[i, letter * 2] = heisenberg_evolve(hamiltonian, pair, t)
    # built only after heisenberg_evolve has checked the size: it has 4^N
    # entries, and row z is the diagonal of the Z-string with mask z
    walsh = _walsh(n_sites)
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
