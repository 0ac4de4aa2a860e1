import functools
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from bellchain import Propagator, StateVector, cli
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


def test_generate_and_verify_share_the_verification(capsys):
    argv = ["--n", "5", "--b", "0.01,0.02,0.03,0.04,0.05", "--initial", "all1"]
    generated = run_json(capsys, ["generate", *argv])
    verified = run_json(capsys, ["verify", *argv, "--min-fidelity", "0"])
    assert generated["verification"] == verified["verification"]


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


def test_malformed_field_list(capsys):
    code = main(["verify", "--n", "3", "--b", "0.1,oops,0.3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "field list" in captured.err


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["verify", "--n", "3", "--frobnicate"])
    assert info.value.code == 2


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["transmogrify"])
    assert info.value.code == 2


def test_conveyor_impure_pair_exits_three(capsys):
    code = main(["conveyor", "--n", "3", "--b", "0.4,0.4,0.4", "--rounds", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert "purity" in captured.err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--n", "3", "--lam", "nan"],
        ["verify", "--n", "3", "--t-star", "nan"],
        ["verify", "--n", "3", "--b", "nan,0,0"],
        ["sweep", "--n", "3", "--lam", "inf"],
        ["reference-point", "--lam", "nan"],
        ["verify", "--n", "3", "--min-fidelity", "nan"],
    ],
)
def test_non_finite_input_exits_two(capsys, argv):
    assert main(argv) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["ghz", "--n", "3", "--lam", "1e308"],
        ["reference-point", "--lam", "1e308", "--out", "{tmp}/ref.json"],
        ["sweep", "--n", "3", "--grid", "2", "--b3", "0", "--lam", "1e308", "--out-dir", "{tmp}"],
        ["verify", "--n", "13", "--lam", "1e308", "--t-star", "0.5", "--out", "{tmp}/v.json"],
        ["flux-check", "--n", "3", "--lam", "1e308", "--out", "{tmp}/f.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_non_finite_result_exits_three(tmp_path, capsys, argv):
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 3
    captured = capsys.readouterr()
    assert "overflowed" in captured.err
    assert "nan" not in captured.out.lower()
    for path in tmp_path.rglob("*"):
        assert "nan" not in path.read_text().lower(), path


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

    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert main(["verify", "--n", "3"]) == 3
    assert "did not converge" in capsys.readouterr().err


def test_krylov_convergence_failure_exits_three(monkeypatch, capsys):
    strict = functools.partial(Propagator, method="krylov", tolerance=1e-300, max_subspace=2)
    monkeypatch.setattr(cli, "Propagator", strict)
    assert main(["verify", "--n", "5"]) == 3
    assert "did not reach tolerance" in capsys.readouterr().err


def test_chain_too_large_for_memory_exits_two_before_any_state(monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("a state was allocated")

    monkeypatch.setattr(StateVector, "zero_state", unreachable)
    monkeypatch.setattr(StateVector, "from_bits", unreachable)
    for command in ("generate", "verify"):
        assert main([command, "--n", "31"]) == 2
        assert "physical memory" in capsys.readouterr().err


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
    code = main(["sweep", "--n", "3", "--b3", "0,x", "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "b3 ratio" in captured.err


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
