"""Seeded property tests over the public API: random valid chains and random command lines.

Each chain is drawn with an odd N from 3 to 9, either built-in pattern,
fields of up to 0.05 and a time in [-3, 3].  Every property is a
contract of the library, not a number from a reference route.
"""

import contextlib
import io

import numpy as np
import pytest

from bellchain import ChainSpec, Pattern, Propagator, StateVector, build_hamiltonian
from bellchain import reduced_density
from bellchain.cli import main
from bellchain.fermion import _evolved_covariance, _pair_density
from bellchain.matryoshka import InitialState
from bellchain.pauli import _HERM_TOL
from _helpers import random_state


def _random_chains(seed, count):
    """``count`` seeded ``(spec, t)`` draws."""
    rng = np.random.default_rng(seed)
    patterns = (Pattern.MATRYOSHKA_ALTERNATING, Pattern.PERFECT_TRANSFER)
    for _ in range(count):
        n = int(rng.choice((3, 5, 7, 9)))
        fields = tuple(rng.uniform(-0.05, 0.05, size=n))
        spec = ChainSpec(n, pattern=patterns[rng.integers(2)], fields_b=fields)
        yield spec, float(rng.uniform(-3.0, 3.0)), rng


def _assert_density(rho):
    """Hermitian, unit trace and positive semidefinite, each within ``_HERM_TOL``."""
    assert np.max(np.abs(rho - rho.conj().T)) <= _HERM_TOL
    assert abs(np.trace(rho) - 1.0) <= _HERM_TOL
    assert np.min(np.linalg.eigvalsh(rho)) >= -_HERM_TOL


@pytest.mark.parametrize("method", ["eigen", "krylov"])
def test_evolution_keeps_the_norm_and_gives_valid_densities(method):
    for spec, t, rng in _random_chains(3400, 12):
        n = spec.n_sites
        propagator = Propagator(build_hamiltonian(spec), method)
        for start in (StateVector.zero_state(n), random_state(rng, n)):
            state = propagator.evolve(start, t)
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-10
            p, q = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False))
            for sites in ((p, q), (q, p), (p,)):
                _assert_density(reduced_density(state, sites).matrix)


def test_covariance_route_gives_valid_pair_densities():
    for spec, t, rng in _random_chains(3401, 12):
        n = spec.n_sites
        initial = (InitialState.ALL0, InitialState.ALL1)[rng.integers(2)]
        gamma = _evolved_covariance(spec, t, initial)
        for p in range(1, n):
            for q in range(p + 1, n + 1):
                _assert_density(_pair_density(gamma, p, q))


def _cli_exit(argv):
    """``main``'s exit code for ``argv`` (argparse's own for a usage error) and its stderr.

    Any other exception escapes, and fails the test with its traceback.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


# each command's options: valid values, then invalid ones, which are drawn one time in five
_CHAIN_OPTIONS = {
    "--n": (("3", "5", "7", "9"), ("4", "1", "-3", "x", "71", str(10**400 + 1), "20000001")),
    "--lam": (("1", "0.5", "2"), ("0", "-1", "nan", "inf", "1e308", "1e-320", "x")),
    "--pattern": (("matryoshka", "perfect-transfer"), ("custom",)),
    "--t-star": (("0.5", "-1", "0", "3"), ("nan", "-inf", "1e308", "x")),
    "--config": (("{cfg}",), ("{tmp}/missing.cfg", "{tmp}")),
}
_OPTIONS = {
    "generate": {**_CHAIN_OPTIONS, "--initial": (("all0", "all1"), ("all2",))},
    "verify": {
        **_CHAIN_OPTIONS,
        "--initial": (("all0", "all1"), ("all2",)),
        "--min-fidelity": (("0", "0.999"), ("2", "nan")),
    },
    "flux-check": _CHAIN_OPTIONS,
    "conveyor": {**_CHAIN_OPTIONS, "--rounds": (("0", "2"), ("-1", "x", str(10**15)))},
    "ghz": _CHAIN_OPTIONS,
    "sweep": {
        **_CHAIN_OPTIONS,
        "--grid": (("2", "3"), ("1", str(10**20), "x")),
        "--b3": (("0", "0,0.05"), ("0.2", "0,0", "x")),
    },
    "reference-point": {
        "--scale": (("0", "1.5"), ("-1", "nan", "1e308", "x")),
        "--lam": (("1", "2"), ("0", "inf", "1e-320")),
        "--t-star": (("0.5",), ("nan", "1e308")),
    },
}
_FIELDS = (("0.01", "-0.05", "0"), ("1e308", "nan", "x"))


def _draw(rng, pools):
    values = pools[int(rng.random() < 0.2)]
    return values[rng.integers(len(values))]


def _random_argv(rng, paths):
    """A random command line: its options in random order, each given or not, some invalid."""
    command = sorted(_OPTIONS)[rng.integers(len(_OPTIONS))]
    argv = [command]
    for name in rng.permutation(sorted(_OPTIONS[command])):
        if rng.random() < (0.9 if name == "--n" else 0.3):
            argv.append(f"{name}={_draw(rng, _OPTIONS[command][name]).format(**paths)}")
    if command != "reference-point" and rng.random() < 0.3:
        count = int(rng.choice((1, 3, 5, 7, 9)))
        argv.append("--b=" + ",".join(_draw(rng, _FIELDS) for _ in range(count)))
    if command == "sweep":
        argv.append(f"--out-dir={paths['tmp']}")
    elif rng.random() < 0.5:
        argv.append(f"--out={_draw(rng, ((paths['out'],), (paths['tmp'],)))}")
    if rng.random() < 0.05:
        argv.append("--bogus")
    return argv


def test_cli_exits_zero_two_or_three_without_a_traceback(tmp_path):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("n_sites = 5\nlambda = 1.0\nb_fields = 0.01, 0, 0, 0, -0.02\n")
    paths = {"cfg": cfg, "tmp": tmp_path, "out": tmp_path / "out.json"}
    rng = np.random.default_rng(3402)
    codes = []
    for _ in range(150):
        argv = _random_argv(rng, paths)
        code, err = _cli_exit(argv)
        assert code in (0, 2, 3), argv
        assert "Traceback" not in err, argv
        codes.append(code)
    # the draws reach every outcome
    assert {0, 2, 3} <= set(codes)
