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
from .chain import ChainSpec, Pattern, _config_fields, build_hamiltonian, load_chain_config
from .errors import BellchainError, ValidationError
from .evolve import Propagator, _check_memory, matryoshka_time
from .fermion import _covariance_bytes, verify_free_fermion
from .matryoshka import InitialState, bell_schedule, flux_check, verify_matryoshka
from .pauli import StateVector, _check_chain_length, _check_real, _parse_reals
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

    def add_chain_options(p: argparse.ArgumentParser) -> None:
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

    p = sub.add_parser("generate", help="evolve a product state to t* and report the result")
    add_chain_options(p)
    p.add_argument("--initial", choices=["all0", "all1"], default="all0")
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("verify", help="evolve and gate on the nested-Bell verification")
    add_chain_options(p)
    p.add_argument("--initial", choices=["all0", "all1"], default="all0")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument(
        "--min-fidelity",
        type=float,
        default=0.999,
        help="global fidelity below this exits with code 3 (default 0.999)",
    )

    p = sub.add_parser("flux-check", help="match evolved pair operators to signed Z-strings")
    add_chain_options(p)
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("conveyor", help="run evolve-extract rounds and log each pair")
    add_chain_options(p)
    p.add_argument("--rounds", type=int, default=4)
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("ghz", help="evolve, Hadamard the central spin, evolve again")
    add_chain_options(p)
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("sweep", help="fidelity surface over field ratios on the 3-site chain")
    add_chain_options(p)
    p.add_argument("--grid", type=int, default=21, help="points per axis (default 21)")
    p.add_argument("--b3", default="0,0.05,0.1", help="comma-separated B3/J ratios")
    p.add_argument("--out-dir", default=".", help="directory for CSV and summary files")
    p.add_argument("--prefix", default="sweep_", help="output filename prefix")

    p = sub.add_parser("reference-point", help="fidelity at the hardware-motivated field point")
    p.add_argument("--scale", type=float, default=1.0, help="field scale multiplier")
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--t-star", type=float, dest="t_star")
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    # full option names only: `flux-check --t 0.5` is an error, not `--t-star 0.5`
    for p in sub.choices.values():
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
    _check_memory(_covariance_bytes(n), f"the smallest route (covariance) at {n} sites")
    lam = args.lam if args.lam is not None else base.lam
    pattern = Pattern(args.pattern) if args.pattern else base.pattern
    fields = _parse_reals("field", args.b) if args.b else base.fields_b
    j_x = base.j_x if pattern is Pattern.CUSTOM else None
    j_y = base.j_y if pattern is Pattern.CUSTOM else None
    return ChainSpec(n, lam, pattern, fields, j_x=j_x, j_y=j_y)


_ARTIFACT_FORMAT = 2
# the representation behind each command's numbers: the 2N x 2N covariance
# matrix of the free-fermion chain, or the 2^N state vector
_ROUTES = {
    **dict.fromkeys(("verify", "sweep", "reference-point"), "covariance"),
    **dict.fromkeys(("generate", "conveyor", "ghz", "flux-check"), "state"),
}


def _command_config(command: str, fields: dict) -> dict:
    """A config: the command, the artifact format, the route and ``fields``."""
    return {"command": command, "format": _ARTIFACT_FORMAT, "route": _ROUTES[command], **fields}


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


def _t_star(args: argparse.Namespace, spec: ChainSpec) -> float:
    return args.t_star if args.t_star is not None else matryoshka_time(spec.lam)


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    t_star = _t_star(args, spec)
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


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_real("--min-fidelity", args.min_fidelity)
    spec = _resolve_spec(args)
    t_star = _t_star(args, spec)
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


def _cmd_flux_check(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    t_star = _t_star(args, spec)
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


def _cmd_conveyor(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    t_star = _t_star(args, spec)
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


def _cmd_ghz(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    t_star = _t_star(args, spec)
    result = ghz_protocol(spec, t_star)
    payload = {
        "config": _spec_config_dict("ghz", spec, t_star),
        "result": result.to_json_dict(),
    }
    echo = [f"ghz fidelity = {result.ghz_fidelity:.12g} phase = {result.relative_phase:.12g}"]
    _emit_json(payload, args.out, echo)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    t_star = _t_star(args, spec)
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
    t_star = args.t_star if args.t_star is not None else matryoshka_time(args.lam)
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


_DISPATCH = {
    "generate": _cmd_generate,
    "verify": _cmd_verify,
    "flux-check": _cmd_flux_check,
    "conveyor": _cmd_conveyor,
    "ghz": _cmd_ghz,
    "sweep": _cmd_sweep,
    "reference-point": _cmd_reference_point,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ValidationError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except (BellchainError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
