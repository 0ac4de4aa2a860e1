"""Dense reference routes that the tests compare the library against.

Everything in this module is plain dense linear algebra: operators are
placed by Kronecker products, evolution goes through scipy's Pade
``expm``, reduced states come from explicit reshapes, and expectations
from literal traces.  It shares no code with the package and imports
nothing from it, so a common-mode bug in the library's bitmask,
eigen or Krylov routes cannot hide here.  Tests call these routes live.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg import expm

T_STAR = math.pi / 4.0

_I2 = np.eye(2, dtype=complex)
_GATES = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "H": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0),
}

_SQRT_HALF = 1.0 / math.sqrt(2.0)
# amplitude of each Bell state on (bit_p, bit_q), p the first listed site
_BELL_AMPS = {
    "psi+": {(0, 1): _SQRT_HALF, (1, 0): _SQRT_HALF},
    "psi-": {(0, 1): _SQRT_HALF, (1, 0): -_SQRT_HALF},
    "phi+": {(0, 0): _SQRT_HALF, (1, 1): _SQRT_HALF},
    "phi-": {(0, 0): _SQRT_HALF, (1, 1): -_SQRT_HALF},
}
# magnitudes this close tie when choosing a pair's phase anchor
_ANCHOR_TIE = 1e-9

REFERENCE_RATIOS = (7.8 / 270.0, 19.6 / 270.0, 12.6 / 270.0)


@functools.cache
def op_at(n: int, site: int, gate: str) -> np.ndarray:
    """Single-site X, Y, Z or Hadamard embedded in the full space, site 1 = LSB."""
    out = np.eye(1, dtype=complex)
    for s in range(n, 0, -1):
        out = np.kron(out, _GATES[gate] if s == site else _I2)
    out.setflags(write=False)
    return out


def letters_dense(n: int, letters: dict[int, str]) -> np.ndarray:
    out = np.eye(1 << n, dtype=complex)
    for site, letter in letters.items():
        out = out @ op_at(n, site, letter)
    return out


def chain_hamiltonian(n: int, lam: float = 1.0, fields=None) -> np.ndarray:
    """Alternating YY/XX bonds at perfect-transfer strengths, plus Z fields."""
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for bond in range(1, n):
        j = lam * math.sqrt(bond * (n - bond))
        letter = "Y" if bond % 2 == 1 else "X"
        h += j * letters_dense(n, {bond: letter, bond + 1: letter})
    if fields is not None:
        for site, b in enumerate(fields, start=1):
            if b != 0.0:
                h += b * op_at(n, site, "Z")
    return h


@functools.cache
def t_star_unitary(n: int) -> np.ndarray:
    """exp(-i H t*) of the field-free chain at lam = 1, built once per length."""
    u = expm(-1j * T_STAR * chain_hamiltonian(n))
    u.setflags(write=False)
    return u


def evolve_dense(h: np.ndarray, vec: np.ndarray, t: float) -> np.ndarray:
    return expm(-1j * t * h) @ vec


def basis_vec(n: int, index: int) -> np.ndarray:
    v = np.zeros(1 << n, dtype=complex)
    v[index] = 1.0
    return v


def rdm(vec: np.ndarray, n: int, sites: tuple[int, ...]) -> np.ndarray:
    """Reduced density matrix; the first listed site is the MSB."""
    tensor = vec.reshape([2] * n)
    keep = [n - s for s in sites]
    rest = [a for a in range(n) if a not in keep]
    moved = np.transpose(tensor, keep + rest).reshape(1 << len(sites), -1)
    return moved @ moved.conj().T


def wootters(rho: np.ndarray) -> float:
    yy = np.array(
        [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex
    )
    spun = rho @ yy @ rho.conj() @ yy
    evals = np.sort(np.real(np.linalg.eigvals(spun)))[::-1]
    evals = np.where(evals < 1e-12, 0.0, evals)
    roots = np.sqrt(evals)
    return float(min(1.0, max(0.0, roots[0] - roots[1] - roots[2] - roots[3])))


def bell_vec(label: str) -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    for (bp, bq), amp in _BELL_AMPS[label].items():
        v[(bp << 1) | bq] = amp
    return v


def closest_bell_ref(pair) -> tuple[str, float]:
    pair = np.asarray(pair, dtype=complex)
    best_label, best_fid = None, -1.0
    for label in ("psi+", "psi-", "phi+", "phi-"):
        b = bell_vec(label)
        if pair.ndim == 1:
            fid = abs(np.vdot(b, pair))
        else:
            fid = math.sqrt(max(0.0, float(np.real(b.conj() @ pair @ b))))
        if fid > best_fid + 1e-12:
            best_label, best_fid = label, fid
    return best_label, float(best_fid)


def nested_amplitudes(n, labeled, central_site, central_value) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=complex)
    for idx in range(1 << n):
        bits = [(idx >> (s - 1)) & 1 for s in range(1, n + 1)]
        if bits[central_site - 1] != central_value:
            continue
        amp = 1.0
        for p, q, label in labeled:
            amp *= _BELL_AMPS[label].get((bits[p - 1], bits[q - 1]), 0.0)
            if amp == 0.0:
                break
        amps[idx] = amp
    return amps


def extract_ref(vec: np.ndarray, n: int):
    """Boundary-pair swap-out, mirrored index by index.

    The pair's phase is fixed as documented for the library: the lowest
    index whose magnitude is within 1e-9 of the largest is real positive,
    so a Bell pair's two equal entries cannot swap roles by rounding.
    """
    rho = rdm(vec, n, (1, n))
    pair_purity = float(np.real(np.trace(rho @ rho)))
    _, eigenvectors = np.linalg.eigh(rho)
    pair = eigenvectors[:, -1]
    magnitudes = np.abs(pair)
    anchor = min(k for k in range(4) if magnitudes[k] >= magnitudes.max() - _ANCHOR_TIE)
    pair = pair * (np.conj(pair[anchor]) / abs(pair[anchor]))
    inner = np.zeros(1 << (n - 2), dtype=complex)
    for m in range(1 << (n - 2)):
        acc = 0.0j
        for b1 in range(2):
            for bn in range(2):
                full = b1 | (m << 1) | (bn << (n - 1))
                acc += np.conj(pair[(b1 << 1) | bn]) * vec[full]
        inner[m] = acc
    overlap = float(np.linalg.norm(inner))
    inner = inner / overlap
    after = np.zeros(1 << n, dtype=complex)
    after[np.arange(1 << (n - 2)) << 1] = inner
    return pair, after, inner, pair_purity, overlap


def classify_ref(inner: np.ndarray, n_inner: int) -> tuple[str, float]:
    polarizations = []
    pure = True
    for s in range(1, n_inner + 1):
        r = rdm(inner, n_inner, (s,))
        polarizations.append(float(np.real(r[0, 0] - r[1, 1])))
        if float(np.real(np.trace(r @ r))) < 1.0 - 1e-8:
            pure = False
    if pure and all(abs(z) >= 1.0 - 1e-6 for z in polarizations):
        index = sum((z < 0) << (s - 1) for s, z in enumerate(polarizations, start=1))
        return "z-basis-separable", float(abs(inner[index]))
    central = (n_inner + 1) // 2
    central_value = 0 if polarizations[central - 1] > 0 else 1
    labeled = []
    for p in range(1, (n_inner - 1) // 2 + 1):
        q = n_inner - p + 1
        labeled.append((p, q, closest_bell_ref(rdm(inner, n_inner, (p, q)))[0]))
    candidate = nested_amplitudes(n_inner, labeled, central, central_value)
    return "matryoshka-like", float(abs(np.vdot(candidate, inner)))


def schedule_case_ref(n: int, start_index: int) -> dict:
    """Labels, central value, and nested fidelity read off the evolved state."""
    state = t_star_unitary(n) @ basis_vec(n, start_index)
    central = (n + 1) // 2
    central_rho = rdm(state, n, (central,))
    central_value = 0 if float(np.real(central_rho[0, 0] - central_rho[1, 1])) > 0 else 1
    labeled = []
    for p in range(1, (n - 1) // 2 + 1):
        q = n - p + 1
        label, _ = closest_bell_ref(rdm(state, n, (p, q)))
        labeled.append((p, q, label))
    candidate = nested_amplitudes(n, labeled, central, central_value)
    return {
        "pairs": labeled,
        "central_value": central_value,
        "fidelity": float(abs(np.vdot(candidate, state))),
    }


def conveyor_ref(n: int, rounds: int) -> list[dict]:
    """Evolve-extract rounds of the field-free chain at lam = 1."""
    u = t_star_unitary(n)
    state = basis_vec(n, 0)
    records = []
    for round_index in range(1, rounds + 1):
        state = u @ state
        boundary_concurrence = wootters(rdm(state, n, (1, n)))
        pair, after, inner, _, _ = extract_ref(state, n)
        label, label_fidelity = closest_bell_ref(pair)
        chain_class, internal_fidelity = classify_ref(inner, n - 2)
        records.append(
            {
                "round": round_index,
                "pair_state": pair,
                "label": label,
                "label_fidelity": label_fidelity,
                "boundary_concurrence": boundary_concurrence,
                "chain_class": chain_class,
                "internal_fidelity": internal_fidelity,
            }
        )
        state = after
    return records


def ghz_ref(n: int, fields=None) -> dict:
    """Evolve, Hadamard the central site, evolve again; lam = 1."""
    if fields is None:
        u = t_star_unitary(n)
    else:
        u = expm(-1j * T_STAR * chain_hamiltonian(n, fields=fields))
    hadamard = op_at(n, (n + 1) // 2, "H")
    state = u @ (hadamard @ (u @ basis_vec(n, 0)))
    a = complex(state[0])
    b = complex(state[-1])
    fidelity = (abs(a) + abs(b)) / math.sqrt(2.0)
    cross = b * np.conj(a)
    factor = cross / abs(cross) if abs(cross) > 1e-300 else 1.0 + 0.0j
    return {"fidelity": float(fidelity), "phase_factor": complex(factor)}


def sweep_minima_ref(grid: int = 21, b3_ratios=(0.0, 0.05, 0.1)) -> dict:
    n = 3
    j_edge = math.sqrt(2.0)
    reference = t_star_unitary(n) @ basis_vec(n, 0)
    axis = np.linspace(0.0, 0.1, grid)
    minima = {}
    for b3 in b3_ratios:
        worst = 1.0
        for b1 in axis:
            for b2 in axis:
                fields = (b1 * j_edge, b2 * j_edge, b3 * j_edge)
                evolved = evolve_dense(
                    chain_hamiltonian(n, fields=fields), basis_vec(n, 0), T_STAR
                )
                worst = min(worst, float(abs(np.vdot(reference, evolved))))
        minima[f"{b3:g}"] = worst
    return minima


def reference_point_ref(scale: float = 1.0) -> float:
    n = 3
    j_edge = math.sqrt(2.0)
    fields = tuple(scale * r * j_edge for r in REFERENCE_RATIOS)
    reference = t_star_unitary(n) @ basis_vec(n, 0)
    evolved = evolve_dense(chain_hamiltonian(n, fields=fields), basis_vec(n, 0), T_STAR)
    return float(abs(np.vdot(reference, evolved)))


def perturbed_extraction_ref() -> dict:
    n = 3
    j_edge = math.sqrt(2.0)
    fields = tuple(0.05 * j_edge for _ in range(n))
    state = evolve_dense(chain_hamiltonian(n, fields=fields), basis_vec(n, 0), T_STAR)
    pair, _, _, purity, overlap = extract_ref(state, n)
    label, label_fidelity = closest_bell_ref(pair)
    return {
        "purity": purity,
        "overlap": overlap,
        "label": label,
        "label_fidelity": label_fidelity,
    }
