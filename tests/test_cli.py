import functools
import json
import re
import subprocess
import sys

import numpy as np
import pytest

import bellchain.evolve
import bellchain.fermion
from bellchain import ChainSpec, Propagator, StateVector, ValidationError, cli
from bellchain.cli import main


def run_json(capsys, argv) -> dict:
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_generate_stdout_json(capsys):
    payload = run_json(capsys, ["generate", "--n", "3"])
    assert payload["config"]["n_sites"] == 3
    assert payload["config"]["pattern"] == "matryoshka"
    assert payload["config"]["command"] == "generate"
    assert payload["verification"]["global_fidelity"] > 1 - 1e-10
    labels = {component["basis"] for component in payload["state"]["components"]}
    assert labels == {"110", "011"}


def test_generate_writes_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["generate", "--n", "5", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["config"]["n_sites"] == 5
    assert payload["verification"]["global_fidelity"] > 1 - 1e-10


def test_generate_all1_initial(capsys):
    payload = run_json(capsys, ["generate", "--n", "3", "--initial", "all1"])
    assert payload["verification"]["schedule"]["central_value"] == 0
    assert payload["verification"]["global_fidelity"] > 1 - 1e-10


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--n", "3"],
        ["verify", "--n", "3"],
        ["flux-check", "--n", "3"],
        ["conveyor", "--n", "3"],
        ["ghz", "--n", "3"],
        ["reference-point"],
    ],
    ids=lambda argv: argv[0],
)
def test_byte_identical_outputs(tmp_path, capsys, argv):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


_ROUTE = {
    "generate": "state",
    "verify": "covariance",
    "flux-check": "state",
    "conveyor": "state",
    "ghz": "state",
    "reference-point": "covariance",
}


@pytest.mark.parametrize("command", sorted(_ROUTE))
def test_artifact_is_one_compact_json_line_with_format_and_route(tmp_path, capsys, command):
    out = tmp_path / "report.json"
    argv = [command] if command == "reference-point" else [command, "--n", "5"]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text(encoding="utf-8")
    assert text.endswith("\n") and text.count("\n") == 1
    payload = json.loads(text)
    assert json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n" == text
    assert (payload["config"]["format"], payload["config"]["route"]) == (2, _ROUTE[command])
    assert payload["config"]["command"] == command


def test_sweep_configs_carry_format_and_route(tmp_path, capsys):
    argv = ["sweep", "--n", "3", "--grid", "3", "--b3", "0,0.1", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    text = (tmp_path / "sweep_summary.json").read_text(encoding="utf-8")
    assert text.count("\n") == 1
    config = json.loads(text)["config"]
    assert (config["format"], config["route"], config["command"]) == (2, "covariance", "sweep")
    for name in ("sweep_b3_0.csv", "sweep_b3_0.1.csv"):
        comment = (tmp_path / name).read_text(encoding="utf-8").splitlines()[0].split()
        assert {"format=2", "route=covariance", "command=sweep"} <= set(comment)


_OUT_ECHO_N5 = {
    "generate": "global fidelity = 1 -> {out}\n",
    "verify": (
        "pair (1, 5): label psi+ concurrence 1 fidelity 1\n"
        "pair (2, 4): label psi- concurrence 1 fidelity 1\n"
        "global fidelity = 1\n"
    ),
    "flux-check": (
        "pair 1 XX: Z[1,2,3,4] sign 1 residual R matched True\n"
        "pair 1 YY: Z[2,3,4,5] sign 1 residual R matched True\n"
        "pair 2 XX: Z[3,4] sign -1 residual R matched True\n"
        "pair 2 YY: Z[2,3] sign -1 residual R matched True\n"
    ),
    "conveyor": (
        "round 1: psi+ concurrence 1 internal matryoshka-like (1)\n"
        "round 2: psi- concurrence 1 internal z-basis-separable (1)\n"
        "round 3: psi+ concurrence 1 internal matryoshka-like (1)\n"
        "round 4: psi- concurrence 1 internal z-basis-separable (1)\n"
    ),
    "ghz": "ghz fidelity = 1 phase = 3.14159265359\n",
}


@pytest.mark.parametrize("command", sorted(_OUT_ECHO_N5))
def test_out_echo_stdout(tmp_path, capsys, command):
    out = tmp_path / "report.json"
    assert main([command, "--n", "5", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    # flux-check residuals are rounding noise: check their size, pin the rest
    residuals = re.findall(r"residual (\S+)", stdout)
    assert all(float(r) < 1e-12 for r in residuals)
    assert re.sub(r"residual \S+", "residual R", stdout) == _OUT_ECHO_N5[command].format(
        out=out
    )
    assert json.loads(out.read_text())["config"]["command"] == command
    assert main([command, "--n", "5"]) == 0
    json.loads(capsys.readouterr().out)  # without --out, stdout is the JSON alone


def test_generate_and_verify_agree_across_routes(capsys):
    # generate scores the evolved state, verify the evolved covariance: the
    # schedule is the same object, every number the same to rounding
    argv = ["--n", "5", "--b", "0.01,0.02,0.03,0.04,0.05", "--initial", "all1"]
    generated = run_json(capsys, ["generate", *argv])["verification"]
    verified = run_json(capsys, ["verify", *argv, "--min-fidelity", "0"])["verification"]
    assert generated["schedule"] == verified["schedule"]
    assert generated["central"]["site"] == verified["central"]["site"]
    for a, b in zip(generated["pairs"], verified["pairs"], strict=True):
        assert (a["sites"], a["label"]) == (b["sites"], b["label"])
        for key in ("concurrence", "bell_fidelity", "purity"):
            assert a[key] == pytest.approx(b[key], abs=1e-9), key
    for key in ("purity", "z_expectation"):
        assert generated["central"][key] == pytest.approx(verified["central"][key], abs=1e-9)
    assert generated["global_fidelity"] == pytest.approx(verified["global_fidelity"], abs=1e-9)


def test_verify_passes_clean_chain(capsys):
    payload = run_json(capsys, ["verify", "--n", "7"])
    assert payload["verification"]["global_fidelity"] > 1 - 1e-10


def test_verify_gate_fails_perturbed_chain(capsys):
    code = main(["verify", "--n", "3", "--b", "0.5,0.5,0.5"])
    captured = capsys.readouterr()
    assert code == 3
    assert "below" in captured.err


def test_missing_chain_length_is_validation_error(capsys):
    code = main(["generate"])
    captured = capsys.readouterr()
    assert code == 2
    assert "chain length required" in captured.err


def test_even_chain_rejected(capsys):
    code = main(["verify", "--n", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert "odd" in captured.err


def test_malformed_field_list(tmp_path, capsys):
    # --b and the lists of a config file go through one parser, which names the list
    config = tmp_path / "chain.cfg"
    for flags, text, name in (
        (["--b", "0.1,oops,0.3"], None, "field list"),
        (["--config", str(config)], "b_fields = 0.1,,0.3\n", "b_fields list"),
        (["--config", str(config)], "pattern = custom\nj_x = 1,x\nj_y = 1,1\n", "j_x list"),
    ):
        if text is not None:
            config.write_text("n_sites = 3\n" + text)
        code = main(["verify", "--n", "3", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and name in captured.err


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["verify", "--n", "3", "--frobnicate"])
    assert info.value.code == 2


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["transmogrify"])
    assert info.value.code == 2


def test_the_kept_parser_writes_what_a_fresh_one_writes(tmp_path, capsys):
    # main builds its parser once and keeps it: a run of commands that sets each
    # default and then leaves it, with a bad argument in between, writes the same
    # bytes as the same commands each on a parser of its own
    commands = [
        ["verify", "--n", "5", "--initial", "all1", "--min-fidelity", "0.5"],
        ["verify", "--n", "5"],
        ["reference-point", "--scale", "0.5", "--lam", "2.0"],
        ["reference-point"],
        ["sweep", "--n", "3", "--grid", "3", "--b3", "0.01", "--prefix", "a_"],
        ["sweep", "--n", "3", "--grid", "2"],
        ["flux-check", "--n", "5", "--t-star", "0.3"],
        ["conveyor", "--n", "5", "--rounds", "2"],
        ["conveyor", "--n", "5"],
        ["generate", "--n", "3", "--initial", "all1"],
        ["generate", "--n", "3"],
        ["ghz", "--n", "5"],
    ]

    def run(out_dir, fresh):
        out_dir.mkdir()
        for i, argv in enumerate(commands):
            if fresh:
                cli.build_parser.cache_clear()
            if argv[0] == "sweep":
                argv = [*argv, "--out-dir", str(out_dir / str(i))]
            else:
                argv = [*argv, "--out", str(out_dir / f"{i}.json")]
            assert main(argv) == 0
            with pytest.raises(SystemExit) as info:
                main(["verify", "--n", "five"])
            assert info.value.code == 2
        capsys.readouterr()
        return {path.relative_to(out_dir): path.read_bytes() for path in out_dir.rglob("*.*")}

    cli.build_parser.cache_clear()
    kept = run(tmp_path / "kept", fresh=False)
    assert cli.build_parser.cache_info().misses == 1
    fresh = run(tmp_path / "fresh", fresh=True)
    assert len(kept) == 10 + 2 + 4  # ten reports, and each sweep's slices with its summary
    assert kept == fresh


def test_conveyor_impure_pair_exits_three(capsys):
    code = main(["conveyor", "--n", "3", "--b", "0.4,0.4,0.4", "--rounds", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert "purity" in captured.err
    # conveyor_run has no force parameter, so the error must not suggest one
    assert "force" not in captured.err


def test_conveyor_json(capsys):
    payload = run_json(capsys, ["conveyor", "--n", "7", "--rounds", "4"])
    rounds = payload["rounds"]
    assert [r["label"] for r in rounds] == ["psi-", "psi+", "psi-", "psi+"]
    assert [r["chain_class"] for r in rounds] == [
        "matryoshka-like",
        "z-basis-separable",
        "matryoshka-like",
        "z-basis-separable",
    ]
    assert all(r["extraction_concurrence"] > 1 - 1e-8 for r in rounds)


def test_flux_check_json(capsys):
    payload = run_json(capsys, ["flux-check", "--n", "5"])
    matches = payload["matches"]
    assert len(matches) == 4
    assert all(m["matched"] for m in matches)
    assert all(m["residual"] < 1e-9 for m in matches)


@pytest.mark.parametrize("flags", [["--b", "5,5,5,5,5"], ["--pattern", "perfect-transfer"]])
def test_flux_check_honours_the_resolved_chain(capsys, flags):
    payload = run_json(capsys, ["flux-check", "--n", "5", *flags])
    assert not any(m["matched"] for m in payload["matches"])


def test_flux_check_takes_its_time_from_t_star(tmp_path, capsys):
    # the time evolved to is the only one resolved, so pi/(4 lam) need not be representable
    out = tmp_path / "f.json"
    argv = ["flux-check", "--n", "3", "--lam", "5e307", "--t-star", "1e-300", "--out", str(out)]
    assert main(argv) == 0
    config = json.loads(out.read_text())["config"]
    assert config["t_star"] == 1e-300 and "t" not in config
    with pytest.raises(SystemExit) as info:
        main(["flux-check", "--n", "3", "--t", "0.5"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--n", "3", "--lam", "nan"],
        ["verify", "--n", "3", "--t-star", "nan"],
        ["verify", "--n", "3", "--b", "nan,0,0"],
        ["sweep", "--n", "3", "--lam", "inf"],
        ["reference-point", "--lam", "nan"],
        ["verify", "--n", "3", "--min-fidelity", "nan"],
        # zero rounds never evolve, so the time is checked before the first round
        ["conveyor", "--n", "5", "--rounds", "0", "--t-star", "nan", "--out", "{tmp}/c.json"],
        ["conveyor", "--n", "5", "--rounds", "0", "--t-star", "inf", "--out", "{tmp}/c.json"],
    ],
)
def test_non_finite_input_exits_two(tmp_path, capsys, argv):
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["ghz", "--n", "3", "--lam", "1e200", "--t-star", "1e200"],
        ["reference-point", "--lam", "1e200", "--t-star", "1e200", "--out", "{tmp}/ref.json"],
        ["sweep", "--n", "3", "--grid", "2", "--b3", "0", "--lam", "1e200", "--t-star", "1e200",
         "--out-dir", "{tmp}"],
        ["verify", "--n", "13", "--lam", "1e307", "--t-star", "0.5", "--out", "{tmp}/v.json"],
        ["flux-check", "--n", "3", "--lam", "1e200", "--t-star", "1e200", "--out", "{tmp}/f.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_non_finite_result_exits_three(tmp_path, capsys, argv):
    """Finite, valid couplings and times whose products overflow inside the evolution."""
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 3
    captured = capsys.readouterr()
    assert "overflowed" in captured.err
    assert "nan" not in captured.out.lower()
    for path in tmp_path.rglob("*"):
        assert "nan" not in path.read_text().lower(), path


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--n", "13", "--lam", "1e308", "--out", "{tmp}/g.json"],
        ["ghz", "--n", "3", "--lam", "1e308", "--out", "{tmp}/ghz.json"],
        ["reference-point", "--lam", "1e308", "--out", "{tmp}/ref.json"],
        ["sweep", "--n", "3", "--grid", "2", "--b3", "0", "--lam", "1e308", "--out-dir", "{tmp}"],
        ["verify", "--n", "13", "--lam", "1e308", "--t-star", "0.5", "--out", "{tmp}/v.json"],
        ["flux-check", "--n", "3", "--lam", "1e308", "--out", "{tmp}/f.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_overflowing_coupling_scale_exits_two(tmp_path, capsys, argv):
    """At N = 13 the largest coupling is inf; at N = 3 it is finite but t* underflows to 0."""
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "coupling scale 1e+308" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["verify", "flux-check", "ghz"])
def test_vanishing_coupling_scale_exits_two(capsys, command):
    """A subnormal scale is positive and finite, but pi/(4 lam) overflows."""
    assert main([command, "--n", "3", "--lam", "1e-320"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "coupling scale 1e-320" in err
    assert "time must be finite" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--config", "{tmp}/missing.cfg"],
        ["verify", "--config", "{tmp}"],
        ["verify", "--config", "{tmp}/latin1.cfg"],
        ["verify", "--n", "5", "--out", "{tmp}/missing/x.json"],
        ["sweep", "--n", "3", "--grid", "2", "--out-dir", "{tmp}/plain.txt"],
    ],
    ids=["missing-config", "directory-config", "undecodable-config", "missing-out-dir", "out-dir-is-file"],
)
def test_file_errors_exit_two(tmp_path, capsys, argv):
    (tmp_path / "latin1.cfg").write_bytes(b"n_sites = 3\nlambda = 1.0 # \xe9\n")
    (tmp_path / "plain.txt").write_text("not a directory\n")
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_linear_algebra_failure_exits_three(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # verify's R comes from an SVD; the eigen engine's from eigh
    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "svd", fail)
    assert main(["verify", "--n", "3"]) == 3
    assert "did not converge" in capsys.readouterr().err


def test_krylov_convergence_failure_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(bellchain.evolve, "_KRYLOV_TOLERANCE", 1e-300)
    monkeypatch.setattr(bellchain.evolve, "_KRYLOV_MAX_SUBSPACE", 2)
    monkeypatch.setattr(cli, "Propagator", functools.partial(Propagator, method="krylov"))
    assert main(["generate", "--n", "5"]) == 3
    assert "did not reach tolerance" in capsys.readouterr().err


def test_chain_too_large_for_memory_exits_two_before_any_state(monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("a state was allocated")

    monkeypatch.setattr(StateVector, "zero_state", unreachable)
    monkeypatch.setattr(StateVector, "from_bits", unreachable)
    assert main(["generate", "--n", "31"]) == 2
    assert "physical memory" in capsys.readouterr().err


def test_oversized_verify_exits_two_before_the_schedule(monkeypatch, capsys):
    # the schedule's pairs grow with N, so the memory check must come first; the
    # flag defaults come from ChainSpec's own field defaults, so one spec is built
    def refuse(need, what):
        raise ValidationError(f"{what} needs {need} bytes, more than the 0 bytes of physical memory")

    def unreachable(*args, **kwargs):
        raise AssertionError("the schedule was built")

    specs = []
    post_init = ChainSpec.__post_init__

    def counted(spec):
        specs.append(spec.n_sites)
        post_init(spec)

    monkeypatch.setattr(bellchain.fermion, "_check_memory", refuse)
    monkeypatch.setattr(bellchain.fermion, "bell_schedule", unreachable)
    monkeypatch.setattr(ChainSpec, "__post_init__", counted)
    assert main(["verify", "--n", "31"]) == 2
    assert "physical memory" in capsys.readouterr().err
    assert specs == [31]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "20000001"],
        ["verify", "--n", "99999999"],
        ["generate", "--n", "99999999"],
        ["conveyor", "--config", "{cfg}", "--n", "20000001"],
    ],
    ids=["verify-2e7", "verify-1e8", "generate-1e8", "config-override"],
)
def test_oversized_chain_exits_two_before_its_couplings(monkeypatch, capsys, tmp_path, argv):
    # even the covariance route, the smallest, needs 512 N^2 bytes: far beyond any
    # host here, so the check refuses before a spec builds its N-float couplings
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("n_sites = 5\n", encoding="utf-8")
    specs = []
    post_init = ChainSpec.__post_init__

    def counted(spec):
        specs.append(spec.n_sites)
        if spec.n_sites > 1000:
            raise AssertionError("an oversized spec was built")
        post_init(spec)

    monkeypatch.setattr(ChainSpec, "__post_init__", counted)
    assert main([arg.format(cfg=cfg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "physical memory" in err and "covariance" in err
    assert specs == ([5] if "--config" in argv else [])


def test_memory_error_exits_two(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "verify_free_fermion", exhausted)
    assert main(["verify", "--n", "5"]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_verify_builds_no_state(monkeypatch, capsys):
    # the covariance route holds 62 x 62 matrices where a state would need 2^31 amplitudes
    def unreachable(*args, **kwargs):
        raise AssertionError("a state was allocated")

    for name in ("zero_state", "from_bits", "_trusted", "__init__"):
        monkeypatch.setattr(StateVector, name, unreachable)
    for initial in ("all0", "all1"):
        payload = run_json(capsys, ["verify", "--n", "31", "--initial", initial])
        assert payload["verification"]["global_fidelity"] > 1 - 1e-10


@pytest.mark.parametrize("n", [15, 27])
def test_verify_reports_no_rounding_above_one(capsys, n):
    # rounding alone once printed pair (1, 15) at a Bell fidelity of 1.0000000000000016
    # and a purity of 1.0000000000000067; both are clipped at 1, as concurrence is
    pairs = run_json(capsys, ["verify", "--n", str(n)])["verification"]["pairs"]
    assert all(p[key] <= 1.0 for p in pairs for key in ("bell_fidelity", "purity", "concurrence"))


def test_ghz_json(capsys):
    payload = run_json(capsys, ["ghz", "--n", "5"])
    assert payload["result"]["ghz_fidelity"] > 1 - 1e-8


@pytest.mark.parametrize("n", ["5", "7", "13"])
def test_ghz_fidelity_never_exceeds_one(capsys, n):
    # zero-field N = 7 rounded to 1.0000000000000002 before the clip
    assert run_json(capsys, ["ghz", "--n", n])["result"]["ghz_fidelity"] <= 1.0


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "chain.cfg"
    config.write_text("n_sites = 3\nlambda = 2.0\n")
    payload = run_json(capsys, ["generate", "--config", str(config)])
    assert payload["config"]["lambda"] == 2.0
    assert payload["config"]["t_star"] == pytest.approx(3.14159265 / 8, abs=1e-6)
    payload = run_json(capsys, ["generate", "--config", str(config), "--lam", "1.0"])
    assert payload["config"]["lambda"] == 1.0


def test_t_star_override_misses_the_window(capsys):
    t_double = 2 * 0.7853981633974483
    payload = run_json(capsys, ["generate", "--n", "3", "--t-star", str(t_double)])
    assert payload["verification"]["global_fidelity"] < 0.01


def test_reference_point_output(capsys):
    assert main(["reference-point"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "F = 0.996888805685"
    assert main(["reference-point", "--scale", "0"]) == 0
    assert capsys.readouterr().out.strip() == "F = 1"


def test_reference_point_json(tmp_path, capsys):
    out = tmp_path / "ref.json"
    assert main(["reference-point", "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["fidelity"] == pytest.approx(0.996888805685, abs=1e-10)


def test_sweep_files_and_determinism(tmp_path, capsys):
    first = tmp_path / "first"
    second = tmp_path / "second"
    argv = ["sweep", "--n", "3", "--grid", "3", "--b3", "0,0.1"]
    assert main(argv + ["--out-dir", str(first)]) == 0
    assert main(argv + ["--out-dir", str(second)]) == 0
    capsys.readouterr()
    for name in ("sweep_b3_0.csv", "sweep_b3_0.1.csv", "sweep_summary.json"):
        assert (first / name).exists(), name
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    lines = (first / "sweep_b3_0.csv").read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "b1_ratio,b2_ratio,b3_ratio,fidelity"
    assert len(lines) == 11  # comment + header + 9 grid rows
    summary = json.loads((first / "sweep_summary.json").read_text())
    assert summary["summary"]["min_fidelity"] > 0.99
    assert len(summary["summary"]["slices"]) == 2


def test_sweep_rejects_bad_b3_list(capsys, tmp_path):
    # two slices named alike would write one CSV over the other; 0 and -0 are one slice
    for b3 in ("0,x", "0.05,0.050000001", "0,0", "0,-0"):
        code = main(["sweep", "--n", "3", "--grid", "3", "--b3", b3, "--out-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "b3 ratio" in captured.err
        assert not any(tmp_path.iterdir())  # rejected before any slice is written


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "bellchain", "reference-point"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "F = 0.996888805685"


def test_console_script_help():
    result = subprocess.run(
        [sys.executable, "-m", "bellchain", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "sweep" in result.stdout
    assert "reference-point" in result.stdout


def test_runtime_imports_no_scipy():
    script = (
        "import sys, bellchain, bellchain.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# with scipy blocked, any import of scipy or scipy.*, lazy ones inside functions
# included, raises ImportError
_NUMPY_ONLY_RUN = """
import sys
sys.modules["scipy"] = None
from bellchain.cli import main

out = sys.argv[1]
for argv in (
    ["generate", "--n", "5", "--b=0.01,-0.02,0.03,0.004,-0.005", "--out", out + "/generate.json"],
    ["verify", "--n", "7", "--out", out + "/verify7.json"],
    ["generate", "--n", "13", "--out", out + "/generate13.json"],
    ["flux-check", "--n", "5", "--out", out + "/flux.json"],
    ["conveyor", "--n", "7", "--out", out + "/conveyor.json"],
    ["ghz", "--n", "5", "--out", out + "/ghz.json"],
    ["sweep", "--n", "3", "--grid", "5", "--out-dir", out],
    ["reference-point", "--out", out + "/reference.json"],
):
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
"""


def test_every_command_runs_without_scipy(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_ONLY_RUN, str(tmp_path)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    # generate --n 13 runs on the Krylov route, the only one that diagonalises T
    assert json.loads((tmp_path / "generate13.json").read_text())["config"]["n_sites"] == 13
