"""Command-line interface: generation, verification, protocols, sweeps.

Every artifact embeds the fully resolved configuration (a ``config``
object in JSON files, a leading comment line in CSV files), with the
artifact ``format`` (2: compact one-line JSON) and the ``route`` that
computed it, and uses fixed float formatting, so identical invocations
produce byte-identical outputs.  Exit codes: 0 success, 2 validation problem (including
non-finite numbers, a coupling scale whose largest coupling overflows
or whose t* underflows to 0, a size the host's memory cannot hold, and
unreadable or unwritable files),
3 numerical contract violation (non-convergence, a non-finite result,
impure boundary pair, failed linear algebra).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import (
    field_sweep,
    reference_point_fidelity,
    sweep_summary,
    sweep_to_csv,
)
from .chain import ChainSpec, Pattern, _config_fields, _covariance_need, build_hamiltonian
from .chain import load_chain_config
from .errors import BellchainError, ValidationError
from .evolve import Propagator, _protocol_time
from .fermion import verify_free_fermion
from .matryoshka import InitialState, bell_schedule, flux_check, verify_matryoshka
from .pauli import StateVector, _check_chain_length, _check_memory, _check_real, _parse_reals
from .protocols import conveyor_run, ghz_protocol


# built on the first call and kept: every default is an immutable str, int or
# float, so parsing leaves the parser as it was for the next call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellchain",
        description="Simulate engineered XY chains that nest, extract, and perturb Bell pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def chain_command(name: str, help: str) -> argparse.ArgumentParser:
        """A command that runs one chain: its spec from a config file and flags, and a time."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="chain config file (flags override file values)")
        p.add_argument("--n", type=int, help="chain length (odd, >= 3)")
        p.add_argument("--lam", type=float, help="coupling scale (default 1.0)")
        p.add_argument(
            "--pattern",
            choices=[Pattern.MATRYOSHKA_ALTERNATING.value, Pattern.PERFECT_TRANSFER.value],
            help="coupling pattern (default matryoshka; custom arrays only via --config)",
        )
        p.add_argument("--b", help="comma-separated absolute Z fields, one per site")
        p.add_argument(
            "--t-star",
            type=float,
            dest="t_star",
            help="override the protocol time (default pi/(4 lam))",
        )
        return p

    p = chain_command("generate", "evolve a product state to t* and report the result")
    p.add_argument("--initial", choices=["all0", "all1"], default="all0")
    p = chain_command("verify", "evolve and gate on the nested-Bell verification")
    p.add_argument("--initial", choices=["all0", "all1"], default="all0")
    p.add_argument(
        "--min-fidelity",
        type=float,
        default=0.999,
        help="global fidelity below this exits with code 3 (default 0.999)",
    )
    chain_command("flux-check", "match evolved pair operators to signed Z-strings")
    p = chain_command("conveyor", "run evolve-extract rounds and log each pair")
    p.add_argument("--rounds", type=int, default=4)
    chain_command("ghz", "evolve, Hadamard the central spin, evolve again")

    p = chain_command("sweep", "fidelity surface over field ratios on the 3-site chain")
    p.add_argument("--grid", type=int, default=21, help="points per axis (default 21)")
    p.add_argument("--b3", default="0,0.05,0.1", help="comma-separated B3/J ratios")
    p.add_argument("--out-dir", default=".", help="directory for CSV and summary files")
    p.add_argument("--prefix", default="sweep_", help="output filename prefix")

    p = sub.add_parser("reference-point", help="fidelity at the hardware-motivated field point")
    p.add_argument("--scale", type=float, default=1.0, help="field scale multiplier")
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--t-star", type=float, dest="t_star")

    for name, p in sub.choices.items():
        if name != "sweep":  # it writes CSV files and a summary into --out-dir
            p.add_argument("--out", help="write the JSON report here instead of stdout")
        # full option names only: `flux-check --t 0.5` is an error, not `--t-star 0.5`
        p.allow_abbrev = False
    return parser


def _resolve_spec(args: argparse.Namespace) -> ChainSpec:
    """The --config file, if given, supplies defaults; flags override them."""
    if args.config:
        base = load_chain_config(args.config)
    elif args.n is None:
        raise ValidationError("chain length required: pass --n or --config")
    else:
        base = ChainSpec  # the flag defaults are the spec's own field defaults
    n = _check_chain_length(args.n if args.n is not None else base.n_sites)
    # the smallest route's need, checked before the spec builds N-float coupling tuples
    _check_memory(*_covariance_need(n))
    lam = args.lam if args.lam is not None else base.lam
    pattern = Pattern(args.pattern) if args.pattern else base.pattern
    fields = _parse_reals("field", args.b) if args.b else base.fields_b
    j_x = base.j_x if pattern is Pattern.CUSTOM else None
    j_y = base.j_y if pattern is Pattern.CUSTOM else None
    return ChainSpec(n, lam, pattern, fields, j_x=j_x, j_y=j_y)


_ARTIFACT_FORMAT = 2


def _command_config(command: str, fields: dict) -> dict:
    """A config: the command, the artifact format, the route and ``fields``."""
    route = _DISPATCH[command][1]
    return {"command": command, "format": _ARTIFACT_FORMAT, "route": route, **fields}


def _spec_config_dict(
    command: str, spec: ChainSpec, t_star: float, extra: dict | None = None
) -> dict:
    return _command_config(command, {**_config_fields(spec), "t_star": t_star, **(extra or {})})


def _config_comment(config: dict) -> str:
    parts = []
    for key in sorted(config):
        value = config[key]
        if isinstance(value, (list, tuple)):
            rendered = ",".join(repr(v) for v in value)
        else:
            rendered = repr(value) if isinstance(value, float) else str(value)
        parts.append(f"{key}={rendered}")
    return "config: " + " ".join(parts)


def _emit_json(payload: dict, out: str | None, echo: Sequence[str] = ()) -> None:
    """Write the payload to ``out`` and print the echo lines, or print the payload."""
    # compact separators keep json on its C encoder; indent would not
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
        for line in echo:
            print(line)
    else:
        sys.stdout.write(text)


def _cmd_generate(args: argparse.Namespace, spec: ChainSpec, t_star: float) -> int:
    # the propagator is built, and checks the size against memory, before
    # the start state exists; it is dropped as soon as the state is evolved
    state = Propagator(build_hamiltonian(spec)).evolve(
        StateVector.zero_state(spec.n_sites)
        if args.initial == "all0"
        else StateVector.from_bits("1" * spec.n_sites),
        t_star,
    )
    report = verify_matryoshka(state, bell_schedule(spec.n_sites, InitialState(args.initial)))
    config = _spec_config_dict("generate", spec, t_star, {"initial": args.initial})
    payload = {
        "config": config,
        "state": {
            "components": [
                {"basis": basis, "re": amp.real, "im": amp.imag}
                for basis, amp in state.dominant_components(1e-12)
            ]
        },
        "verification": report.to_json_dict(),
    }
    echo = [f"global fidelity = {report.global_fidelity:.12g} -> {args.out}"]
    _emit_json(payload, args.out, echo)
    return 0


def _cmd_verify(args: argparse.Namespace, spec: ChainSpec, t_star: float) -> int:
    _check_real("--min-fidelity", args.min_fidelity)
    report = verify_free_fermion(spec, t_star, args.initial)
    config = _spec_config_dict("verify", spec, t_star, {"initial": args.initial})
    payload = {"config": config, "verification": report.to_json_dict()}
    echo = [
        f"pair {pair.sites}: label {pair.label.value} "
        f"concurrence {pair.concurrence:.12g} fidelity {pair.bell_fidelity:.12g}"
        for pair in report.pair_reports
    ]
    _emit_json(payload, args.out, echo + [f"global fidelity = {report.global_fidelity:.12g}"])
    if report.global_fidelity < args.min_fidelity:
        print(f"verification failed: below {args.min_fidelity}", file=sys.stderr)
        return 3
    return 0


def _cmd_flux_check(args: argparse.Namespace, spec: ChainSpec, t_star: float) -> int:
    matches = flux_check(spec, t_star)
    payload = {
        "config": _spec_config_dict("flux-check", spec, t_star),
        "matches": [m.to_json_dict() for m in matches],
    }
    echo = []
    for m in matches:
        sites = ",".join(str(s) for s in m.z_sites) if m.z_sites else "-"
        echo.append(
            f"pair {m.pair_index} {m.kind}: Z[{sites}] sign {m.sign} "
            f"residual {m.residual:.3e} matched {m.matched}"
        )
    _emit_json(payload, args.out, echo)
    return 0


def _cmd_conveyor(args: argparse.Namespace, spec: ChainSpec, t_star: float) -> int:
    records = conveyor_run(spec, args.rounds, t_star)
    payload = {
        "config": _spec_config_dict("conveyor", spec, t_star, {"rounds": args.rounds}),
        "rounds": [r.to_json_dict() for r in records],
    }
    echo = [
        f"round {r.round}: {r.label.value} concurrence {r.extraction_concurrence:.12g} "
        f"internal {r.chain_class.value} ({r.internal_state_fidelity:.12g})"
        for r in records
    ]
    _emit_json(payload, args.out, echo)
    return 0


def _cmd_ghz(args: argparse.Namespace, spec: ChainSpec, t_star: float) -> int:
    result = ghz_protocol(spec, t_star)
    payload = {
        "config": _spec_config_dict("ghz", spec, t_star),
        "result": result.to_json_dict(),
    }
    echo = [f"ghz fidelity = {result.ghz_fidelity:.12g} phase = {result.relative_phase:.12g}"]
    _emit_json(payload, args.out, echo)
    return 0


def _cmd_sweep(args: argparse.Namespace, spec: ChainSpec, t_star: float) -> int:
    ratios = _parse_reals("b3 ratio", args.b3)
    names = [f"b3_{ratio:g}" for ratio in ratios]
    if len(set(names)) < len(names) or len(set(ratios)) < len(ratios):
        raise ValidationError(f"b3 ratio list {args.b3!r} repeats a slice: {names}")
    results = field_sweep(spec, args.grid, ratios, t_star)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for result in results:
        config = _spec_config_dict(
            "sweep", spec, t_star, {"grid": args.grid, "b3_ratio": result.b3_ratio}
        )
        path = out_dir / f"{args.prefix}b3_{result.b3_ratio:g}.csv"
        path.write_text(sweep_to_csv(result, _config_comment(config)), encoding="utf-8")
        print(f"b3 {result.b3_ratio:g}: min fidelity {result.min_fidelity:.12g} -> {path}")
    summary = {
        "config": _spec_config_dict(
            "sweep", spec, t_star, {"grid": args.grid, "b3_ratios": list(ratios)}
        ),
        "summary": sweep_summary(results),
    }
    summary_path = out_dir / f"{args.prefix}summary.json"
    _emit_json(summary, str(summary_path), [f"summary -> {summary_path}"])
    return 0


def _cmd_reference_point(args: argparse.Namespace) -> int:
    t_star = _protocol_time(args.lam, args.t_star)
    fidelity = reference_point_fidelity(args.scale, args.lam, t_star)
    print(f"F = {fidelity:.12g}")
    if args.out:
        payload = {
            "config": _command_config(
                "reference-point", {"scale": args.scale, "lambda": args.lam, "t_star": t_star}
            ),
            "fidelity": fidelity,
        }
        _emit_json(payload, args.out)
    return 0


# each command's handler and its route: the representation behind its numbers,
# the 2N x 2N covariance matrix of the free-fermion chain or the 2^N state vector
_DISPATCH = {
    "generate": (_cmd_generate, "state"),
    "verify": (_cmd_verify, "covariance"),
    "flux-check": (_cmd_flux_check, "state"),
    "conveyor": (_cmd_conveyor, "state"),
    "ghz": (_cmd_ghz, "state"),
    "sweep": (_cmd_sweep, "covariance"),
    "reference-point": (_cmd_reference_point, "covariance"),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = _DISPATCH[args.command][0]
    try:
        if args.command == "reference-point":  # the one command without chain options
            return handler(args)
        spec = _resolve_spec(args)
        return handler(args, spec, _protocol_time(spec.lam, args.t_star))
    except (ValidationError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except (BellchainError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
