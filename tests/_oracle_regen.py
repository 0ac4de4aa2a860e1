"""Reference-route computations behind the oracle fixtures.

Everything in this module is plain dense linear algebra: operators are
placed by Kronecker products, evolution goes through scipy's Pade
``expm``, reduced states come from explicit reshapes, and expectations
from literal traces.  None of the package's bitmask or eigh-cache code
paths are used to produce a reference value, so a common-mode bug in
the fast route cannot hide here.

Running ``pytest --regen-oracle`` rebuilds tests/fixtures/oracle_cases.json
by pairing each reference value with the corresponding main-route value.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "oracle_cases.json"

T_STAR = math.pi / 4.0

_I2 = np.eye(2, dtype=complex)
_PAULI = {
    "I": _I2,
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)

_SQRT_HALF = 1.0 / math.sqrt(2.0)
# amplitude of each Bell state on (bit_p, bit_q), p the first listed site
_BELL_AMPS = {
    "psi+": {(0, 1): _SQRT_HALF, (1, 0): _SQRT_HALF},
    "psi-": {(0, 1): _SQRT_HALF, (1, 0): -_SQRT_HALF},
    "phi+": {(0, 0): _SQRT_HALF, (1, 1): _SQRT_HALF},
    "phi-": {(0, 0): _SQRT_HALF, (1, 1): -_SQRT_HALF},
}

REFERENCE_RATIOS = (7.8 / 270.0, 19.6 / 270.0, 12.6 / 270.0)


def op_at(n: int, site: int, mat: np.ndarray) -> np.ndarray:
    """Single-site operator embedded in the full space, site 1 = LSB."""
    out = np.eye(1, dtype=complex)
    for s in range(n, 0, -1):
        out = np.kron(out, mat if s == site else _I2)
    return out


def letters_dense(n: int, letters: dict[int, str]) -> np.ndarray:
    out = np.eye(1 << n, dtype=complex)
    for site, letter in letters.items():
        out = out @ op_at(n, site, _PAULI[letter])
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
                h += b * op_at(n, site, _PAULI["Z"])
    return h


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
    """Boundary-pair swap-out, mirrored index by index."""
    rho = rdm(vec, n, (1, n))
    pair_purity = float(np.real(np.trace(rho @ rho)))
    _, eigenvectors = np.linalg.eigh(rho)
    pair = eigenvectors[:, -1]
    anchor = int(np.argmax(np.abs(pair)))
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
    h = chain_hamiltonian(n)
    state = evolve_dense(h, basis_vec(n, start_index), T_STAR)
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
        "pairs": [[p, q, label] for p, q, label in labeled],
        "central_value": central_value,
        "fidelity": float(abs(np.vdot(candidate, state))),
    }


def heisenberg_decomposition_ref(n: int, letters: dict[int, str], t: float) -> list[dict]:
    """Full 4^N trace decomposition of the evolved operator."""
    h = chain_hamiltonian(n)
    u = expm(-1j * t * h)
    evolved = u.conj().T @ letters_dense(n, letters) @ u
    dim = 1 << n
    terms = []
    for code in range(4**n):
        word = []
        rem = code
        for _ in range(n):
            word.append("IXYZ"[rem % 4])
            rem //= 4
        string = {s: w for s, w in enumerate(word, start=1) if w != "I"}
        dense = letters_dense(n, string)
        coefficient = complex(np.trace(dense.conj().T @ evolved) / dim)
        if abs(coefficient) > 1e-12:
            terms.append(
                {"letters": "".join(word), "re": coefficient.real, "im": coefficient.imag}
            )
    terms.sort(key=lambda item: (-abs(complex(item["re"], item["im"])), item["letters"]))
    return terms


def _mask_signs(idx: np.ndarray, mask: int) -> np.ndarray:
    """(-1)^popcount(idx & mask) for every index, via an xor fold."""
    bits = np.bitwise_and(idx, mask)
    for shift in (32, 16, 8, 4, 2, 1):
        bits = np.bitwise_xor(bits, bits >> shift)
    return 1.0 - 2.0 * np.bitwise_and(bits, 1)


def flux_ref(n: int, lam: float, t: float) -> list[dict]:
    """Match each evolved mirror-pair operator against diagonal Z-strings."""
    h = chain_hamiltonian(n, lam)
    u = expm(-1j * t * h)
    dim = 1 << n
    idx = np.arange(dim)
    out = []
    for i in range(1, (n - 1) // 2 + 1):
        mirror = n - i + 1
        for letter in ("X", "Y"):
            pair_op = letters_dense(n, {i: letter, mirror: letter})
            evolved = u.conj().T @ pair_op @ u
            diag = np.diag(evolved)
            best_mask, best_coeff = None, 0.0
            for mask in range(1, dim):
                coeff = float(np.real(np.sum(_mask_signs(idx, mask) * diag)) / dim)
                if abs(coeff) > abs(best_coeff):
                    best_mask, best_coeff = mask, coeff
            sign = 1 if best_coeff > 0 else -1
            z_dense = np.diag(_mask_signs(idx, best_mask).astype(complex))
            residual = float(np.linalg.norm(evolved - sign * z_dense, 2))
            sites = [p + 1 for p in range(n) if (best_mask >> p) & 1]
            out.append(
                {
                    "pair": i,
                    "kind": letter * 2,
                    "z_sites": sites,
                    "sign": sign,
                    "coefficient": best_coeff,
                    "residual": residual,
                }
            )
    return out


def conveyor_ref(n: int, rounds: int, lam: float = 1.0) -> list[dict]:
    u = expm(-1j * T_STAR * chain_hamiltonian(n, lam))
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
                "label": label,
                "label_fidelity": label_fidelity,
                "boundary_concurrence": boundary_concurrence,
                "chain_class": chain_class,
                "internal_fidelity": internal_fidelity,
            }
        )
        state = after
    return records


def ghz_ref(n: int, lam: float = 1.0, fields=None) -> dict:
    u = expm(-1j * T_STAR * chain_hamiltonian(n, lam, fields))
    hadamard = op_at(n, (n + 1) // 2, _HADAMARD)
    state = u @ (hadamard @ (u @ basis_vec(n, 0)))
    a = complex(state[0])
    b = complex(state[-1])
    fidelity = (abs(a) + abs(b)) / math.sqrt(2.0)
    cross = b * np.conj(a)
    factor = cross / abs(cross) if abs(cross) > 1e-300 else 1.0 + 0.0j
    return {
        "fidelity": float(fidelity),
        "phase_factor": [float(factor.real), float(factor.imag)],
    }


def sweep_minima_ref(grid: int = 21, b3_ratios=(0.0, 0.05, 0.1)) -> dict:
    n = 3
    j_edge = math.sqrt(2.0)
    reference = evolve_dense(chain_hamiltonian(n), basis_vec(n, 0), T_STAR)
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
    reference = evolve_dense(chain_hamiltonian(n), basis_vec(n, 0), T_STAR)
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


def build_reports() -> list:
    """Pair every reference value with its main-route counterpart."""
    from bellchain import (
        ChainSpec,
        PauliString,
        Propagator,
        StateVector,
        bell_schedule,
        build_hamiltonian,
        conveyor_run,
        extract_pair,
        field_sweep,
        flux_check,
        ghz_protocol,
        heisenberg_evolve,
        ideal_matryoshka_state,
        matryoshka_time,
        reference_point_fidelity,
    )
    from bellchain.matryoshka import closest_bell
    from bellchain.oracle import (
        OracleReport,
        compare_states,
        exhaustive_pauli_decompose,
    )

    t_star = matryoshka_time(1.0)
    reports = []

    def propagate(n: int, start_index: int, t: float) -> StateVector:
        propagator = Propagator(build_hamiltonian(ChainSpec(n)))
        start = np.zeros(1 << n, dtype=complex)
        start[start_index] = 1.0
        return propagator.evolve(StateVector(start), t)

    def as_state(vec: np.ndarray) -> StateVector:
        return StateVector(vec)

    # evolved matryoshka states and revivals
    for n in (3, 5, 7):
        ref = evolve_dense(chain_hamiltonian(n), basis_vec(n, 0), T_STAR)
        reports.append(
            compare_states(f"n{n}_matryoshka_state", as_state(ref), propagate(n, 0, t_star))
        )
        ref2 = evolve_dense(chain_hamiltonian(n), basis_vec(n, 0), 2 * T_STAR)
        reports.append(
            compare_states(f"n{n}_revival_all0", as_state(ref2), propagate(n, 0, 2 * t_star))
        )
    top = (1 << 3) - 1
    ref = evolve_dense(chain_hamiltonian(3), basis_vec(3, top), 2 * T_STAR)
    reports.append(
        compare_states("n3_revival_all1", as_state(ref), propagate(3, top, 2 * t_star))
    )

    # pairing schedules, both start states
    for n in (3, 5, 7, 9):
        for initial, start_index in (("all0", 0), ("all1", (1 << n) - 1)):
            ref_case = schedule_case_ref(n, start_index)
            schedule = bell_schedule(n, initial)
            ideal = ideal_matryoshka_state(schedule)
            state = propagate(n, start_index, t_star)
            main_case = {
                "pairs": [[p, q, label.value] for (p, q), label in schedule.pairs],
                "central_value": schedule.central_value,
                "fidelity": float(abs(ideal.inner(state))),
            }
            discrepancy = abs(ref_case["fidelity"] - main_case["fidelity"])
            if ref_case["pairs"] != main_case["pairs"]:
                discrepancy = max(discrepancy, 1.0)
            if ref_case["central_value"] != main_case["central_value"]:
                discrepancy = max(discrepancy, 1.0)
            reports.append(
                OracleReport(f"n{n}_schedule_{initial}", ref_case, main_case, discrepancy)
            )

    # Heisenberg flow of the N=3 boundary pair operators
    for case_id, letters, word in (
        ("n3_heisenberg_xx", {1: "X", 3: "X"}, "XIX"),
        ("n3_heisenberg_yy", {1: "Y", 3: "Y"}, "YIY"),
    ):
        ref_terms = heisenberg_decomposition_ref(3, letters, T_STAR)
        coefficients = exhaustive_pauli_decompose(
            heisenberg_evolve(
                build_hamiltonian(ChainSpec(3)), PauliString.from_letters(word), t_star
            )
        )
        main_terms = [
            {"letters": string.letters, "re": c.real, "im": c.imag}
            for c, string in coefficients
        ]
        discrepancy = _term_discrepancy(ref_terms, main_terms)
        reports.append(OracleReport(case_id, ref_terms, main_terms, discrepancy))

    # flux matches at N = 5, 7
    for n in (5, 7):
        ref_matches = flux_ref(n, 1.0, T_STAR)
        main_matches = [
            {
                "pair": m.pair_index,
                "kind": m.kind,
                "z_sites": list(m.z_sites) if m.z_sites else None,
                "sign": m.sign,
                "coefficient": m.coefficient,
                "residual": m.residual,
            }
            for m in flux_check(ChainSpec(n, 1.0), t_star)
        ]
        discrepancy = 0.0
        for ref_m, main_m in zip(ref_matches, main_matches):
            if (ref_m["z_sites"], ref_m["sign"]) != (main_m["z_sites"], main_m["sign"]):
                discrepancy = max(discrepancy, 1.0)
            discrepancy = max(
                discrepancy,
                abs(ref_m["coefficient"] - main_m["coefficient"]),
                abs(ref_m["residual"] - main_m["residual"]),
            )
        reports.append(OracleReport(f"n{n}_flux", ref_matches, main_matches, discrepancy))

    # conveyor rounds at N=7
    ref_rounds = conveyor_ref(7, 4)
    main_rounds = []
    for record in conveyor_run(ChainSpec(7), 4):
        main_rounds.append(
            {
                "round": record.round,
                "label": record.label.value,
                "label_fidelity": record.label_fidelity,
                "boundary_concurrence": record.extraction_concurrence,
                "chain_class": record.chain_class.value,
                "internal_fidelity": record.internal_state_fidelity,
            }
        )
    discrepancy = 0.0
    for ref_r, main_r in zip(ref_rounds, main_rounds):
        if (ref_r["label"], ref_r["chain_class"]) != (main_r["label"], main_r["chain_class"]):
            discrepancy = max(discrepancy, 1.0)
        for key in ("label_fidelity", "boundary_concurrence", "internal_fidelity"):
            discrepancy = max(discrepancy, abs(ref_r[key] - main_r[key]))
    reports.append(OracleReport("n7_conveyor", ref_rounds, main_rounds, discrepancy))

    # GHZ protocol, clean and perturbed
    for n in (3, 5, 7):
        ref_case = ghz_ref(n)
        result = ghz_protocol(ChainSpec(n))
        main_factor = np.exp(1j * result.relative_phase)
        main_case = {
            "fidelity": result.ghz_fidelity,
            "phase_factor": [float(main_factor.real), float(main_factor.imag)],
        }
        discrepancy = max(
            abs(ref_case["fidelity"] - main_case["fidelity"]),
            abs(
                complex(*ref_case["phase_factor"]) - complex(*main_case["phase_factor"])
            ),
        )
        reports.append(OracleReport(f"n{n}_ghz", ref_case, main_case, discrepancy))

    j_edge = math.sqrt(2.0)
    perturbed_fields = tuple(r * j_edge for r in REFERENCE_RATIOS)
    ref_case = ghz_ref(3, fields=perturbed_fields)
    result = ghz_protocol(ChainSpec(3, fields_b=perturbed_fields))
    main_factor = np.exp(1j * result.relative_phase)
    main_case = {
        "fidelity": result.ghz_fidelity,
        "phase_factor": [float(main_factor.real), float(main_factor.imag)],
    }
    discrepancy = max(
        abs(ref_case["fidelity"] - main_case["fidelity"]),
        abs(complex(*ref_case["phase_factor"]) - complex(*main_case["phase_factor"])),
    )
    reports.append(OracleReport("n3_ghz_perturbed", ref_case, main_case, discrepancy))

    # field sweep minima and the reference operating point
    ref_minima = sweep_minima_ref()
    results = field_sweep(ChainSpec(3))
    main_minima = {f"{r.b3_ratio:g}": r.min_fidelity for r in results}
    discrepancy = max(
        abs(ref_minima[key] - main_minima[key]) for key in ref_minima
    )
    reports.append(OracleReport("sweep_minima_21", ref_minima, main_minima, discrepancy))

    for case_id, scale in (("reference_point", 1.0), ("reference_point_x2", 2.0)):
        ref_value = reference_point_ref(scale)
        main_value = reference_point_fidelity(scale)
        reports.append(
            OracleReport(case_id, ref_value, main_value, abs(ref_value - main_value))
        )

    # forced extraction under uniform field perturbation
    ref_case = perturbed_extraction_ref()
    fields = tuple(0.05 * j_edge for _ in range(3))
    state = propagate_with_fields(3, fields, t_star)
    extraction = extract_pair(state, force=True)
    label, label_fidelity = closest_bell(extraction.pair_state)
    main_case = {
        "purity": extraction.purity,
        "overlap": extraction.fidelity,
        "label": label.value,
        "label_fidelity": label_fidelity,
    }
    discrepancy = max(
        abs(ref_case["purity"] - main_case["purity"]),
        abs(ref_case["overlap"] - main_case["overlap"]),
        abs(ref_case["label_fidelity"] - main_case["label_fidelity"]),
        0.0 if ref_case["label"] == main_case["label"] else 1.0,
    )
    reports.append(
        OracleReport("n3_perturbed_extraction", ref_case, main_case, discrepancy)
    )

    return reports


def propagate_with_fields(n: int, fields, t: float):
    from bellchain import ChainSpec, Propagator, StateVector, build_hamiltonian

    propagator = Propagator(build_hamiltonian(ChainSpec(n, fields_b=fields)))
    return propagator.evolve(StateVector.zero_state(n), t)


def _term_discrepancy(ref_terms: list[dict], main_terms: list[dict]) -> float:
    def as_map(terms):
        return {t["letters"]: complex(t["re"], t["im"]) for t in terms}

    ref_map, main_map = as_map(ref_terms), as_map(main_terms)
    keys = set(ref_map) | set(main_map)
    return max(
        abs(ref_map.get(k, 0.0) - main_map.get(k, 0.0)) for k in keys
    ) if keys else 0.0


def write_fixture(path: Path = FIXTURE_PATH) -> list:
    reports = build_reports()
    payload = {"cases": [r.to_json_dict() for r in reports]}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return reports


if __name__ == "__main__":
    written = write_fixture()
    worst = max(r.discrepancy for r in written)
    print(f"wrote {len(written)} oracle cases to {FIXTURE_PATH}")
    print(f"worst discrepancy: {worst:.3e}")
