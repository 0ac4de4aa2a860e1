"""The benchmark's workloads: the `bellchain` command lines of one pass.

Each workload is a fixed list of CLI ops.  The seed sets only the
generated inputs: the Z fields of the perturbed ops, the two free
`sweep --b3` ratios and the `reference-point --scale`.  The library sees
nothing but these command lines.

This module imports only the standard library, so the set-up probe
measures the program's import and not ours.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Bounds on |B_i| as multiples of lam (the CLI default, lam = 1).
FIELD_BOUND = 0.05
FIELD_BOUND_N11 = 1e-3


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``name`` is unique in a workload and prefixes its files."""

    name: str
    command: str
    args: tuple[str, ...]

    @property
    def fields(self) -> tuple[float, ...] | None:
        for arg in self.args:
            if arg.startswith("--b="):
                return tuple(float(b) for b in arg[len("--b="):].split(","))
        return None

    def argv(self, out_dir: Path) -> list[str]:
        """Full command line writing every artifact into ``out_dir``."""
        if self.command == "sweep":
            return [self.command, *self.args, "--out-dir", str(out_dir), "--prefix", f"{self.name}."]
        return [self.command, *self.args, "--out", str(out_dir / f"{self.name}.json")]

    def owns(self, filename: str) -> bool:
        return filename.startswith(f"{self.name}.")


def _fields(rng: random.Random, n: int, bound: float) -> str:
    # one token, so that a leading minus sign is not read as an option
    return "--b=" + ",".join(f"{rng.uniform(-bound, bound):.6e}" for _ in range(n))


def _op(command: str, *args: str) -> Op:
    name = f"{command}-n{args[args.index('--n') + 1]}" if "--n" in args else command
    return Op(name, command, args)


def small_chains(rng: random.Random) -> list[Op]:
    # The first b3 slice stays at 0 so that the sweep origin, an exact
    # identity, is part of every run.
    b3 = ",".join(["0"] + [f"{k / 10000:g}" for k in sorted(rng.sample(range(1, 1001), 2))])
    return [
        _op("sweep", "--n", "3", "--grid", "21", "--b3", b3),
        _op("flux-check", "--n", "5"),
        _op("flux-check", "--n", "7"),
        *(_op("verify", "--n", str(n)) for n in (3, 5, 7)),
        *(_op("generate", "--n", str(n), _fields(rng, n, FIELD_BOUND)) for n in (3, 5, 7)),
        _op("conveyor", "--n", "7", "--rounds", "8"),
        _op("conveyor", "--n", "9", "--rounds", "4"),
        *(_op("ghz", "--n", str(n), _fields(rng, n, FIELD_BOUND)) for n in (5, 7)),
        _op("reference-point", "--scale", f"{rng.uniform(0.0, 2.0):.6f}"),
    ]


def eigen_n11(rng: random.Random) -> list[Op]:
    return [
        _op("verify", "--n", "11"),
        _op("ghz", "--n", "11", _fields(rng, 11, FIELD_BOUND_N11)),
    ]


def krylov_large(rng: random.Random) -> list[Op]:
    return [
        *(_op("verify", "--n", str(n)) for n in (13, 15, 17)),
        _op("ghz", "--n", "13"),
        _op("conveyor", "--n", "13", "--rounds", "4"),
        _op("generate", "--n", "13", _fields(rng, 13, FIELD_BOUND)),
    ]


WORKLOADS = {
    "small_chains": small_chains,
    "eigen_n11": eigen_n11,
    "krylov_large": krylov_large,
}


def build(workload: str, seed: int) -> list[Op]:
    """The ops of one pass; the same seed always gives the same ops."""
    ops = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    assert len({op.name for op in ops}) == len(ops), "op names must be unique"
    return ops
