"""Output checks for the benchmark's ops, run untimed after the passes.

Each check reads the artifacts one op wrote and returns a list of
problems (empty when the op is correct).  Exact references come from
routes that share no evolution code with the CLI path: the dense
`expm` oracle up to N = 9, the Krylov propagator against the eigen one
at N = 11, and physical invariants (norm, energy, the predicted Bell
schedule) beyond that.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from bellchain import (
    REFERENCE_FIELD_RATIOS,
    ChainSpec,
    Propagator,
    StateVector,
    bell_schedule,
    build_hamiltonian,
    ideal_matryoshka_state,
)
from bellchain.oracle import dense_expm_evolve

from workloads import Op

EXACT = 1e-8  # floor 1 - x for ideal fidelities and concurrences; norm and energy drift
ORACLE = 1e-9  # agreement with an independent propagation route
ORIGIN = 1e-12  # sweep origin, where the perturbed and reference chains coincide
SWEEP_MIN_FIDELITY = 0.99
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_OTHER_PSI = {"psi+": "psi-", "psi-": "psi+"}


def check(op: Op, files: dict[str, bytes]) -> list[str]:
    """Problems with one op's artifacts."""
    try:
        return _CHECKS[op.command](op, files)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"unreadable artifact: {type(exc).__name__}: {exc}"]


def _json(op: Op, files: dict[str, bytes]) -> dict:
    return json.loads(files[f"{op.name}.json"])


def _spec(config: dict) -> tuple[ChainSpec, float]:
    spec = ChainSpec(config["n_sites"], config["lambda"], fields_b=tuple(config["b_fields"]))
    return spec, config["t_star"]


def _fields_problems(op: Op, config: dict) -> list[str]:
    expected = list(op.fields) if op.fields else [0.0] * config["n_sites"]
    return [] if config["b_fields"] == expected else [f"config fields {config['b_fields']} != {expected}"]


def _hadamard(amps: np.ndarray, site: int) -> np.ndarray:
    lower = 1 << (site - 1)
    block = amps.reshape(-1, 2, lower)
    return np.einsum("ab,ibj->iaj", _HADAMARD, block).reshape(amps.size)


def _energy(amps: np.ndarray, spec: ChainSpec) -> float:
    """<psi|H|psi> by explicit bit flips, independent of the Pauli-mask kernel."""
    n = spec.n_sites
    idx = np.arange(1 << n)
    bit = [None] + [(idx >> (site - 1)) & 1 for site in range(1, n + 1)]
    j_x, j_y = spec.couplings()
    h_psi = np.zeros_like(amps)
    for bond in range(1, n):
        # XX|k> = |k^m>,  YY|k> = -(-1)^(b_p + b_q) |k^m>
        sign = 1 - 2 * (bit[bond] ^ bit[bond + 1])
        h_psi[idx ^ (0b11 << (bond - 1))] += (j_x[bond - 1] - j_y[bond - 1] * sign) * amps
    for site in range(1, n + 1):
        h_psi += spec.fields_b[site - 1] * (1 - 2 * bit[site]) * amps
    return float(np.vdot(amps, h_psi).real)


def _check_verify(op: Op, files: dict[str, bytes]) -> list[str]:
    doc = _json(op, files)
    report = doc["verification"]
    problems = _fields_problems(op, doc["config"])
    if report["global_fidelity"] < 1 - EXACT:
        problems.append(f"global fidelity {report['global_fidelity']!r}")
    expected = [([p, q], label.value) for (p, q), label in bell_schedule(doc["config"]["n_sites"]).pairs]
    labels = [(pair["sites"], pair["label"]) for pair in report["pairs"]]
    if labels != expected:
        problems.append(f"labels {labels} != schedule {expected}")
    problems += [
        f"pair {pair['sites']} concurrence {pair['concurrence']!r}"
        for pair in report["pairs"]
        if pair["concurrence"] < 1 - EXACT
    ]
    return problems


def _check_flux(op: Op, files: dict[str, bytes]) -> list[str]:
    doc = _json(op, files)
    matches = doc["matches"]
    problems = _fields_problems(op, doc["config"])
    if len(matches) != doc["config"]["n_sites"] - 1:
        problems.append(f"{len(matches)} matches for {doc['config']['n_sites']} sites")
    return problems + [f"pair {m['pair_index']} {m['kind']} unmatched" for m in matches if not m["matched"]]


def _check_conveyor(op: Op, files: dict[str, bytes]) -> list[str]:
    doc = _json(op, files)
    rounds = doc["rounds"]
    problems = _fields_problems(op, doc["config"])
    if len(rounds) != doc["config"]["rounds"]:
        problems.append(f"{len(rounds)} rounds recorded, {doc['config']['rounds']} requested")
    # the boundary pair of the schedule comes out first, then the label alternates
    first = bell_schedule(doc["config"]["n_sites"]).pairs[0][1].value
    for record in rounds:
        predicted = first if record["round"] % 2 == 1 else _OTHER_PSI[first]
        if record["label"] != predicted:
            problems.append(f"round {record['round']} label {record['label']} != {predicted}")
        if record["extraction_concurrence"] < 1 - EXACT:
            problems.append(f"round {record['round']} concurrence {record['extraction_concurrence']!r}")
    return problems


def _ghz_reference(spec: ChainSpec, evolve) -> tuple[float, complex]:
    state = evolve(StateVector.zero_state(spec.n_sites))
    middle = _hadamard(state.amplitudes, (spec.n_sites + 1) // 2)
    final = evolve(StateVector(middle)).amplitudes
    a, b = complex(final[0]), complex(final[-1])
    return (abs(a) + abs(b)) / math.sqrt(2.0), b * a.conjugate() / abs(b * a.conjugate())


def _check_ghz(op: Op, files: dict[str, bytes]) -> list[str]:
    doc = _json(op, files)
    result = doc["result"]
    problems = _fields_problems(op, doc["config"])
    spec, t = _spec(doc["config"])
    if spec.n_sites >= 13:
        # no dense reference this large; zero fields make the protocol exact
        if result["ghz_fidelity"] < 1 - EXACT:
            problems.append(f"ghz fidelity {result['ghz_fidelity']!r}")
        return problems
    hamiltonian = build_hamiltonian(spec)
    if spec.n_sites <= 9:

        def evolve(state: StateVector) -> StateVector:
            return dense_expm_evolve(hamiltonian, state, t)

    else:
        krylov = Propagator(hamiltonian, method="krylov")

        def evolve(state: StateVector) -> StateVector:
            return krylov.evolve(state, t)

    fidelity, phase = _ghz_reference(spec, evolve)
    if abs(fidelity - result["ghz_fidelity"]) > ORACLE:
        problems.append(f"ghz fidelity {result['ghz_fidelity']!r} vs reference {fidelity!r}")
    if abs(phase - complex(math.cos(result["relative_phase"]), math.sin(result["relative_phase"]))) > ORACLE:
        problems.append(f"relative phase {result['relative_phase']!r} vs reference {phase!r}")
    return problems


def _check_generate(op: Op, files: dict[str, bytes]) -> list[str]:
    doc = _json(op, files)
    problems = _fields_problems(op, doc["config"])
    spec, t = _spec(doc["config"])
    n = spec.n_sites
    amps = np.zeros(1 << n, dtype=complex)
    for entry in doc["state"]["components"]:
        amps[int(entry["basis"][::-1], 2)] = complex(entry["re"], entry["im"])
    if n <= 9:
        reference = dense_expm_evolve(build_hamiltonian(spec), StateVector.zero_state(n), t)
        error = float(np.max(np.abs(amps - reference.amplitudes)))
        if error > ORACLE:
            problems.append(f"state differs from the dense oracle by {error:.3e}")
        ideal = abs(ideal_matryoshka_state(bell_schedule(n)).inner(reference))
        reported = doc["verification"]["global_fidelity"]
        if abs(ideal - reported) > ORACLE:
            problems.append(f"global fidelity {reported!r} vs oracle {ideal!r}")
        return problems
    norm_error = abs(float(np.linalg.norm(amps)) - 1.0)
    drift = abs(_energy(amps, spec) - sum(spec.fields_b))  # |0..0> has energy sum(B_i)
    if norm_error > EXACT:
        problems.append(f"norm error {norm_error:.3e}")
    if drift > EXACT:
        problems.append(f"energy drift {drift:.3e}")
    return problems


def _check_sweep(op: Op, files: dict[str, bytes]) -> list[str]:
    args = dict(zip(op.args[::2], op.args[1::2]))
    grid = np.linspace(0.0, 0.1, int(args["--grid"]))
    ratios = [float(r) for r in args["--b3"].split(",")]
    doc = json.loads(files[f"{op.name}.summary.json"])
    problems = []
    if doc["summary"]["min_fidelity"] < SWEEP_MIN_FIDELITY:
        problems.append(f"minimum fidelity {doc['summary']['min_fidelity']!r}")
    spec, t = _spec(doc["config"])
    j_edge = spec.lam * math.sqrt(spec.n_sites - 1)
    start = StateVector.zero_state(spec.n_sites)
    reference = dense_expm_evolve(build_hamiltonian(spec), start, t)
    for b3 in sorted(ratios):
        text = files[f"{op.name}.b3_{b3:g}.csv"].decode()
        rows = list(csv.reader(line for line in io.StringIO(text) if not line.startswith("#")))[1:]
        expected = [(b1, b2) for b1 in grid for b2 in grid]
        if [(float(r[0]), float(r[1])) for r in rows] != [
            (float(f"{b1:.11e}"), float(f"{b2:.11e}")) for b1, b2 in expected
        ]:
            problems.append(f"b3 {b3:g}: grid points differ from the requested grid")
            continue
        for (b1, b2), row in zip(expected, rows):
            fields = tuple(r * j_edge for r in (b1, b2, b3))
            perturbed = build_hamiltonian(ChainSpec(spec.n_sites, spec.lam, fields_b=fields))
            fidelity = abs(reference.inner(dense_expm_evolve(perturbed, start, t)))
            if abs(fidelity - float(row[3])) > ORACLE:
                problems.append(f"b3 {b3:g} ({b1:g}, {b2:g}): {row[3]} vs oracle {fidelity!r}")
            if b1 == b2 == b3 == 0.0 and abs(float(row[3]) - 1.0) > ORIGIN:
                problems.append(f"origin fidelity {row[3]}")
    return problems


def _check_reference_point(op: Op, files: dict[str, bytes]) -> list[str]:
    doc = _json(op, files)
    config = doc["config"]
    lam, t = config["lambda"], config["t_star"]
    fields = tuple(config["scale"] * r * lam * math.sqrt(2.0) for r in REFERENCE_FIELD_RATIOS)
    start = StateVector.zero_state(3)
    ideal = dense_expm_evolve(build_hamiltonian(ChainSpec(3, lam)), start, t)
    actual = dense_expm_evolve(build_hamiltonian(ChainSpec(3, lam, fields_b=fields)), start, t)
    fidelity = abs(ideal.inner(actual))
    if abs(fidelity - doc["fidelity"]) > ORACLE:
        return [f"fidelity {doc['fidelity']!r} vs oracle {fidelity!r}"]
    return []


_CHECKS = {
    "verify": _check_verify,
    "flux-check": _check_flux,
    "conveyor": _check_conveyor,
    "ghz": _check_ghz,
    "generate": _check_generate,
    "sweep": _check_sweep,
    "reference-point": _check_reference_point,
}
