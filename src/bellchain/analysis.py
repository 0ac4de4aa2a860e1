"""Fidelities and the field-robustness study.

The robustness study perturbs the three-site chain with local Z fields
expressed as ratios of the first-bond coupling J_Y1 = lam * sqrt(2),
evolves |000> for t*, and compares against the unperturbed result.  It
runs on the Majorana covariance route of :mod:`bellchain.fermion`: one
6x6 covariance Gamma(t*) per grid point, and the overlap of two such
Gaussian states from the Pfaffian of their mean, the helper that also
gives ``verify`` its global fidelity.  The sweep resolves the couplings
once, and each point writes its 3x3 block A[even, odd] from them and
its own fields.  No state is built.

``purity`` and ``concurrence`` live with the reduced densities in
:mod:`bellchain.pauli` and are re-exported here, their public home.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .chain import ChainSpec, Pattern
from .errors import ValidationError
from .evolve import _protocol_time
from .fermion import _block_covariance, _coupling_block, _evolved_covariance, _gaussian_fidelity
from .matryoshka import InitialState
from .pauli import _check_int, _check_memory, _check_real, _check_reals, _shown
from .pauli import concurrence, purity  # re-exported: their public home

# Hardware-motivated operating point for the three-site robustness
# study: per-site field strengths over the first-bond coupling.
REFERENCE_FIELD_RATIOS = (7.8 / 270.0, 19.6 / 270.0, 12.6 / 270.0)
# a sweep row, with its CSV line in cli.main: at most 420 bytes (tracemalloc)
_ROW_BYTES = 512


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


def field_sweep(
    base: ChainSpec,
    grid_points: int = 21,
    b3_ratios: Sequence[float] = (0.0, 0.05, 0.1),
    t_star: float | None = None,
) -> list[SweepResult]:
    """Fidelity surface over B1/J, B2/J in [0, 0.1] per B3/J slice.

    The reference state is the unperturbed evolution of |000> for t*,
    so the origin fidelity is 1 by construction.  Slices come back
    sorted by b3 ratio, each a grid_points x grid_points surface.  Each
    point is the overlap of two Gaussian states, sqrt|Pf((Gamma_ref +
    Gamma)/2)|, from one covariance Gamma(t*) per point.
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
    t_star = _protocol_time(base.lam, t_star)
    points = grid_points**2 * len(ratios_b3)
    _check_memory(_ROW_BYTES * points, f"a field sweep of {_shown(points)} points")
    axis = tuple(np.linspace(0.0, 0.1, grid_points))
    couplings = base.couplings()
    j_edge = couplings[1][0]
    reference = _evolved_covariance(base, t_star, InitialState.ALL0)
    results = []
    for b3 in sorted(ratios_b3):
        rows = []
        for b1 in axis:
            for b2 in axis:
                fields = tuple(r * j_edge for r in (b1, b2, b3))
                fidelity = _point_fidelity(reference, couplings, fields, t_star)
                rows.append((float(b1), float(b2), fidelity))
        results.append(SweepResult(b3, tuple(rows), min(row[2] for row in rows)))
    return results


def _point_fidelity(reference: np.ndarray, couplings, fields, t_star: float) -> float:
    """A field-study point: |000> evolved under its Z ``fields``, overlapped with ``reference``."""
    block = _coupling_block(*couplings, fields)
    return _gaussian_fidelity(reference, _block_covariance(block, t_star, InitialState.ALL0))


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

    One point of the :func:`field_sweep` study: the three-site chain with
    fields at ``scale`` times the REFERENCE_FIELD_RATIOS of the first-bond
    coupling, against the unperturbed evolution.
    """
    scale = _check_real("field scale", scale)
    if scale < 0:
        raise ValidationError("field scale must be nonnegative")
    base = ChainSpec(3, lam)
    t_star = _protocol_time(base.lam, t_star)
    couplings = base.couplings()
    fields = _check_reals("field", (scale * r * couplings[1][0] for r in REFERENCE_FIELD_RATIOS))
    reference = _evolved_covariance(base, t_star, InitialState.ALL0)
    return _point_fidelity(reference, couplings, fields, t_star)
