"""Span tracing of the program's layers from outside the program.

`Tracer.install` wraps the public functions and methods listed in
`SPAN_TARGETS`, at every binding in the loaded `bellchain` modules (a
name pulled in with ``from .x import y`` is bound in several modules).
Each call records a span ``[name, start, end, parent]`` in memory.
`layer_metrics` turns the spans of one traced pass into the per-layer
metrics; `run.py` writes the spans to disk when it ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

import numpy
import scipy.linalg

# span name, defining module, attribute (Class.method for methods)
SPAN_TARGETS = (
    ("cli.main", "bellchain.cli", "main"),
    ("chain.build_hamiltonian", "bellchain.chain", "build_hamiltonian"),
    ("chain.dense", "bellchain.chain", "HamiltonianTerms.dense"),
    ("chain.apply", "bellchain.chain", "HamiltonianTerms.apply"),
    ("evolve.propagator_init", "bellchain.evolve", "Propagator.__init__"),
    ("evolve.evolve", "bellchain.evolve", "Propagator.evolve"),
    ("evolve.heisenberg", "bellchain.evolve", "heisenberg_evolve"),
    ("evolve.pauli_coefficients", "bellchain.evolve", "pauli_coefficients"),
    ("pauli.reduced_density", "bellchain.pauli", "reduced_density"),
    ("pauli.dominant_components", "bellchain.pauli", "StateVector.dominant_components"),
    ("pauli.gate_apply", "bellchain.pauli", "gate_apply"),
    ("analysis.concurrence", "bellchain.analysis", "concurrence"),
    ("analysis.purity", "bellchain.analysis", "purity"),
    ("analysis.field_sweep", "bellchain.analysis", "field_sweep"),
    ("analysis.reference_point", "bellchain.analysis", "reference_point_fidelity"),
    ("matryoshka.verify", "bellchain.matryoshka", "verify_matryoshka"),
    ("matryoshka.flux_check", "bellchain.matryoshka", "flux_check"),
    ("protocols.extract_pair", "bellchain.protocols", "extract_pair"),
    ("protocols.conveyor", "bellchain.protocols", "conveyor_run"),
    ("protocols.ghz", "bellchain.protocols", "ghz_protocol"),
)

# Dense diagonalisations are counted (sum of dim^3) when called directly
# from an evolve-layer span, whichever routine or block sizes it uses.
EIGH_TARGETS = ((numpy.linalg, "eigh"), (scipy.linalg, "eigh"))

# Per-layer metrics: name, unit, source, workloads where the layer dominates.
# A layer with zero calls on a workload where it dominates, or whose
# wrapped name no longer exists, is reported as missing instead of 0.
SMALL, EIGEN, KRYLOV = "small_chains", "eigen_n11", "krylov_large"
LAYER_METRICS = (
    ("evolve.propagator_init_s", "s", ("total", "evolve.propagator_init"), (EIGEN,)),
    ("evolve.propagator_init_calls", "count", ("calls", "evolve.propagator_init"), (EIGEN,)),
    ("evolve.eigh_dim3", "count", ("counter", "eigh_dim3"), (EIGEN,)),
    ("chain.dense_s", "s", ("total", "chain.dense"), (EIGEN,)),
    ("chain.dense_calls", "count", ("calls", "chain.dense"), (EIGEN,)),
    ("chain.apply_s", "s", ("total", "chain.apply"), (KRYLOV,)),
    ("chain.apply_calls", "count", ("calls", "chain.apply"), (KRYLOV,)),
    ("chain.apply_term_amps", "count", ("counter", "apply_term_amps"), (KRYLOV,)),
    ("evolve.matvecs_per_evolve", "matvec/evolve", ("per_call", "chain.apply", "evolve.evolve"), (KRYLOV,)),
    ("evolve.evolve_s", "s", ("total", "evolve.evolve"), (KRYLOV,)),
    ("evolve.evolve_self_s", "s", ("self", "evolve.evolve"), (KRYLOV,)),
    ("evolve.evolve_calls", "count", ("calls", "evolve.evolve"), (KRYLOV,)),
    ("evolve.heisenberg_s", "s", ("total", "evolve.heisenberg"), (SMALL,)),
    ("evolve.heisenberg_calls", "count", ("calls", "evolve.heisenberg"), (SMALL,)),
    ("evolve.pauli_coefficients_s", "s", ("total", "evolve.pauli_coefficients"), (SMALL,)),
    ("chain.build_hamiltonian_s", "s", ("total", "chain.build_hamiltonian"), (SMALL,)),
    ("chain.build_hamiltonian_calls", "count", ("calls", "chain.build_hamiltonian"), (SMALL,)),
    ("analysis.field_sweep_self_s", "s", ("self", "analysis.field_sweep"), (SMALL,)),
    ("pauli.reduced_density_s", "s", ("total", "pauli.reduced_density"), (SMALL,)),
    ("pauli.reduced_density_calls", "count", ("calls", "pauli.reduced_density"), (SMALL,)),
    ("analysis.concurrence_s", "s", ("total", "analysis.concurrence"), (SMALL,)),
    ("analysis.concurrence_calls", "count", ("calls", "analysis.concurrence"), (SMALL,)),
    ("analysis.purity_s", "s", ("total", "analysis.purity"), (SMALL,)),
    ("matryoshka.verify_self_s", "s", ("self", "matryoshka.verify"), (SMALL,)),
    ("matryoshka.flux_check_self_s", "s", ("self", "matryoshka.flux_check"), (SMALL,)),
    ("pauli.dominant_components_s", "s", ("total", "pauli.dominant_components"), (KRYLOV,)),
    ("pauli.gate_apply_s", "s", ("total", "pauli.gate_apply"), (KRYLOV,)),
    ("protocols.ghz_self_s", "s", ("self", "protocols.ghz"), (KRYLOV,)),
    ("protocols.extract_pair_s", "s", ("total", "protocols.extract_pair"), (SMALL, KRYLOV)),
    ("protocols.conveyor_self_s", "s", ("self", "protocols.conveyor"), (SMALL, KRYLOV)),
    ("cli.main_self_s", "s", ("self", "cli.main"), (SMALL,)),
)


# Times of layers that some workload never calls: they read exactly 0 on
# every run there, so they go to the report line only.  Their call counts,
# where the table has them, stay in the result.
REPORT_ONLY = frozenset(
    {
        "chain.dense_s",
        "chain.apply_s",
        "evolve.heisenberg_s",
        "evolve.pauli_coefficients_s",
        "analysis.field_sweep_self_s",
        "matryoshka.flux_check_self_s",
        "pauli.dominant_components_s",
        "protocols.extract_pair_s",
        "protocols.conveyor_self_s",
    }
)


class Tracer:
    """Records spans of the wrapped calls while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
                if name == "chain.apply":  # HamiltonianTerms.apply(self, amplitudes)
                    self.counters["apply_term_amps"] += len(args[0].terms) * args[1].size

        return traced

    def _wrap_eigh(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0].startswith("evolve."):
                self.counters["eigh_dim3"] += numpy.shape(a)[-1] ** 3
            return fn(a, *args, **kwargs)

        return counted

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every target at every binding; record targets that are gone."""
        modules = [m for key, m in sys.modules.items() if key == "bellchain" or key.startswith("bellchain.")]
        for name, module_name, attribute in SPAN_TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
            except (ImportError, AttributeError, KeyError):
                self.missing[name] = f"{module_name}.{attribute} not found"
                continue
            wrapped = self._wrap(name, original)
            if path:  # a method: the class object is shared by every binding
                self._patch(owner, leaf, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        for module, attr in EIGH_TARGETS:
            self._patch(module, attr, self._wrap_eigh(getattr(module, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so children never overlap and their
    durations simply add up.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def nesting_problems(spans: list[list]) -> list[str]:
    """Spans that end before they start, leave their parent, or have negative self time."""
    problems = []
    own = self_times(spans)
    for index, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {index} {name} ends before it starts")
        if parent >= 0 and not (spans[parent][1] <= start and end <= spans[parent][2]):
            problems.append(f"span {index} {name} leaves its parent {spans[parent][0]}")
        if own[index] < -1e-9:
            problems.append(f"span {index} {name} has self time {own[index]:.3e}")
    return problems


def layer_metrics(tracer: Tracer, workload: str) -> dict[str, float | None]:
    """Per-layer values of one traced pass; None marks a missing layer."""
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    for (name, start, end, _), self_time in zip(tracer.spans, self_times(tracer.spans)):
        total[name] += end - start
        own[name] += self_time
        calls[name] += 1
    values: dict[str, float | None] = {}
    for metric, _, source, dominant in LAYER_METRICS:
        kind, *names = source
        if any(span in tracer.missing for span in names):
            values[metric] = None
        elif kind == "counter":
            values[metric] = tracer.counters[names[0]]
        elif kind == "per_call":
            values[metric] = calls[names[0]] / calls[names[1]] if calls[names[1]] else None
        elif kind == "calls":
            values[metric] = calls[names[0]]
        else:
            values[metric] = float({"total": total, "self": own}[kind][names[0]])
        if workload in dominant and not values[metric]:
            values[metric] = None
    return values
