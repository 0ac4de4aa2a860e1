"""Entanglement measures, fidelities, and the field-robustness study.

The robustness study perturbs the three-site chain with local Z fields
expressed as ratios of the first-bond coupling J_Y1 = lam * sqrt(2),
evolves for t*, and compares against the unperturbed result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .chain import ChainSpec, Pattern, build_hamiltonian
from .errors import ValidationError
from .evolve import Propagator, matryoshka_time
from .pauli import DensityMatrix, StateVector, _check_density, _check_int, _check_real

# Hardware-motivated operating point for the three-site robustness
# study: per-site field strengths over the first-bond coupling.
REFERENCE_FIELD_RATIOS = (7.8 / 270.0, 19.6 / 270.0, 12.6 / 270.0)

_EIG_CUTOFF = 1e-12


def _density_array(rho: DensityMatrix | np.ndarray, dim: int | None = None) -> np.ndarray:
    mat = rho.matrix if isinstance(rho, DensityMatrix) else _check_density(rho)
    if dim is not None and mat.shape != (dim, dim):
        raise ValidationError(f"expected a {dim}x{dim} density matrix, got {mat.shape}")
    return mat


def purity(rho: DensityMatrix | np.ndarray) -> float:
    """tr(rho^2): 1 for pure states, 1/2^k for maximally mixed ones."""
    mat = _density_array(rho)
    return float(np.real(np.trace(mat @ mat)))


def concurrence(rho: DensityMatrix | np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    Square-rooted eigenvalues of rho (Y x Y) rho* (Y x Y) are sorted
    descending and combined as max(0, l1 - l2 - l3 - l4).  Eigenvalues
    below 1e-12 are treated as exact zeros before the square root;
    otherwise rounding noise in near-pure inputs is amplified to the
    1e-8 scale by the root.  Small eigenvalues above the cutoff still
    pass through the root, so a concurrence near 1 is ill-conditioned:
    states within 5e-16 of each other gave concurrences 1.9e-12 apart.
    Compare two routes by their states, not by their concurrences.
    """
    mat = _density_array(rho, dim=4)
    yy = np.zeros((4, 4), dtype=complex)
    yy[0, 3] = yy[3, 0] = -1.0
    yy[1, 2] = yy[2, 1] = 1.0
    spun = mat @ yy @ mat.conj() @ yy
    eigenvalues = np.real(np.linalg.eigvals(spun))
    eigenvalues[eigenvalues < _EIG_CUTOFF] = 0.0
    roots = np.sqrt(np.sort(eigenvalues)[::-1])
    return float(min(1.0, max(0.0, roots[0] - roots[1] - roots[2] - roots[3])))


def state_fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|, manifestly invariant under global phases."""
    return abs(a.inner(b))


@dataclass(frozen=True)
class SweepResult:
    """One B3 slice of the robustness surface.

    ``grid`` holds (b1_ratio, b2_ratio, fidelity) rows in row-major
    order (b1 outer, b2 inner).
    """

    b3_ratio: float
    grid: tuple[tuple[float, float, float], ...] = field(repr=False)
    min_fidelity: float

    def mean_fidelity(self) -> float:
        return float(np.mean([row[2] for row in self.grid]))


def _evolve_zero_state(spec: ChainSpec, t: float) -> StateVector:
    """|0..0> evolved for t under the chain ``spec`` describes."""
    return Propagator(build_hamiltonian(spec)).evolve(StateVector.zero_state(spec.n_sites), t)


def field_sweep(
    base: ChainSpec,
    grid_points: int = 21,
    b3_ratios: Sequence[float] = (0.0, 0.05, 0.1),
    t_star: float | None = None,
) -> list[SweepResult]:
    """Fidelity surface over B1/J, B2/J in [0, 0.1] per B3/J slice.

    The reference state is the unperturbed evolution of |000> for t*,
    so the origin fidelity is 1 by construction.  Slices come back
    sorted by b3 ratio, each a grid_points x grid_points surface.
    """
    if base.n_sites != 3:
        raise ValidationError("the field study is defined on the three-site chain")
    if base.pattern is not Pattern.MATRYOSHKA_ALTERNATING:
        raise ValidationError("field_sweep requires the matryoshka coupling pattern")
    if any(b != 0.0 for b in base.fields_b):
        raise ValidationError("base spec must carry zero fields; the sweep adds its own")
    grid_points = _check_int("grid points", grid_points)
    if grid_points < 2:
        raise ValidationError("grid needs at least 2 points per axis")
    ratios_b3 = tuple(_check_real("b3 ratio", b) for b in b3_ratios)
    if not ratios_b3:
        raise ValidationError("need at least one b3 ratio")
    if any(not 0.0 <= b <= 0.1 for b in ratios_b3):
        raise ValidationError("b3 ratios must lie in [0, 0.1]")
    if t_star is None:
        t_star = matryoshka_time(base.lam)
    axis = tuple(np.linspace(0.0, 0.1, grid_points))
    j_edge = base.lam * math.sqrt(base.n_sites - 1)
    reference = _evolve_zero_state(base, t_star)
    results = []
    for b3 in sorted(ratios_b3):
        rows = []
        for b1 in axis:
            for b2 in axis:
                fields = tuple(r * j_edge for r in (b1, b2, b3))
                evolved = _evolve_zero_state(
                    ChainSpec(base.n_sites, base.lam, base.pattern, fields), t_star
                )
                rows.append((float(b1), float(b2), state_fidelity(reference, evolved)))
        results.append(SweepResult(b3, tuple(rows), min(row[2] for row in rows)))
    return results


def sweep_to_csv(result: SweepResult, config_comment: str | None = None) -> str:
    """CSV text for one slice: fixed header, 12 significant digits."""
    lines = []
    if config_comment is not None:
        lines.append(f"# {config_comment}")
    lines.append("b1_ratio,b2_ratio,b3_ratio,fidelity")
    for b1, b2, fid in result.grid:
        lines.append(f"{b1:.11e},{b2:.11e},{result.b3_ratio:.11e},{fid:.11e}")
    return "\n".join(lines) + "\n"


def sweep_summary(results: Sequence[SweepResult]) -> dict:
    """JSON-ready min/mean fidelity per slice."""
    return {
        "slices": [
            {
                "b3_ratio": r.b3_ratio,
                "min_fidelity": r.min_fidelity,
                "mean_fidelity": r.mean_fidelity(),
            }
            for r in results
        ],
        "min_fidelity": min(r.min_fidelity for r in results),
    }


def reference_point_fidelity(
    scale: float = 1.0, lam: float = 1.0, t_star: float | None = None
) -> float:
    """Fidelity at the reference operating point, optionally rescaled.

    Builds the three-site chain with fields at ``scale`` times the
    REFERENCE_FIELD_RATIOS of the first-bond coupling and returns the
    overlap with the unperturbed evolution.
    """
    scale = _check_real("field scale", scale)
    if scale < 0:
        raise ValidationError("field scale must be nonnegative")
    base = ChainSpec(3, lam)
    if t_star is None:
        t_star = matryoshka_time(base.lam)
    j_edge = base.lam * math.sqrt(2.0)
    perturbed = replace(base, fields_b=tuple(scale * r * j_edge for r in REFERENCE_FIELD_RATIOS))
    return state_fidelity(_evolve_zero_state(base, t_star), _evolve_zero_state(perturbed, t_star))
