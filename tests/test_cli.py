"""Command line interface: pipelines, exit codes, report formats."""

import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from wka import WeakKac, algebra, cli, cube_family, duality, storage, weakkac
from wka.cli import main
from wka.storage import load_wka, save_wka

from conftest import dense_coproduct, get_example


def run(*argv):
    return main(list(argv))


@pytest.fixture
def cube2_file(tmp_path):
    path = str(tmp_path / "c2.wka")
    assert run("build", "cube-family", "2", "-o", path) == 0
    return path


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "constructor,params",
    [("cube-family", ["2"]), ("elementary", ["1,2"]), ("group-algebra", ["z3"])],
)
def test_full_pipeline(tmp_path, constructor, params):
    path = str(tmp_path / "a.wka")
    dual_path = str(tmp_path / "a.dual.wka")
    assert run("build", constructor, *params, "-o", path) == 0
    assert run("verify", path) == 0
    assert run("derive", "--what", "all", path) == 0
    assert run("dual", path, "-o", dual_path) == 0
    assert run("verify", dual_path) == 0


def test_hyper_center_is_solved_once_across_derive(tmp_path, monkeypatch):
    # the hypercenter step and the trace cone's classes read one solve, on
    # an algebra that splits into two summands
    path = str(tmp_path / "disc.wka")
    assert run("build", "group-algebra", "disc", "-o", path) == 0
    real, solves = weakkac.intersect_subspaces, []

    def counting(*args, **kwargs):
        solves.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(weakkac, "intersect_subspaces", counting)
    assert run("derive", "--what", "all", path) == 0
    assert len(solves) == 1


def test_build_writes_loadable_file(cube2_file):
    w = load_wka(cube2_file)
    assert w.dim == 8
    assert np.abs(dense_coproduct(w) - dense_coproduct(cube_family(2))).max() == 0.0


def test_build_function_algebra_from_table_file(tmp_path):
    table = tmp_path / "z2.gpd"
    table.write_text(
        "morphisms: e g\nunits: e\n"
        "compose: e e -> e\ncompose: e g -> g\n"
        "compose: g e -> g\ncompose: g g -> e\n"
    )
    path = str(tmp_path / "f.wka")
    assert run("build", "function-algebra", str(table), "-o", path) == 0
    assert load_wka(path).dim == 2


@pytest.mark.parametrize("what", ["cartan", "haar", "counital-rep", "fusion", "quotient", "expectations", "hypercenter"])
def test_derive_each_structure(cube2_file, what):
    assert run("derive", "--what", what, cube2_file) == 0


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_unknown_constructor_is_input_error(tmp_path):
    assert run("build", "frobnicator", "-o", str(tmp_path / "x.wka")) == 2


def test_bad_params_is_input_error(tmp_path):
    assert run("build", "cube-family", "banana", "-o", str(tmp_path / "x.wka")) == 2


def test_unparseable_file_is_input_error(tmp_path):
    path = tmp_path / "bad.wka"
    path.write_text("{ not json")
    assert run("verify", str(path)) == 2


def test_missing_file_is_input_error(tmp_path):
    assert run("verify", str(tmp_path / "nope.wka")) == 2


def test_failing_axioms_exit_one(tmp_path, capsys):
    w = get_example("fun_k2")
    bad = WeakKac(w.algebra, w.coproduct, w.antipode, np.zeros(w.dim), {})
    path = tmp_path / "bad.wka"
    save_wka(bad, path)
    assert run("verify", str(path)) == 1
    out = capsys.readouterr().out
    assert "counit_left" in out and "FAIL" in out


@pytest.mark.parametrize("argv", [("derive", "--what", "expectations"), ("check-gen-kac",)])
def test_no_haar_trace_exits_one(tmp_path, capsys, argv):
    # with S := id the Haar trace conditions of function-algebra[k2] have
    # only the zero solution: a verification failure, not bad input
    w = get_example("fun_k2")
    path = tmp_path / "sid.wka"
    save_wka(WeakKac(w.algebra, w.coproduct, np.eye(w.dim), w.counit, {}), path)
    assert run(*argv, str(path)) == 1
    assert "verification failure: Haar trace equations" in capsys.readouterr().err


def test_numerical_failure_is_input_error(tmp_path, monkeypatch, capsys):
    # the group algebra of Z/3 takes the split into minimal projections,
    # which takes eigenspaces of compressed operators
    def no_convergence(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(algebra, "eigenspaces", no_convergence)
    assert run("build", "group-algebra", "z3", "-o", str(tmp_path / "z3.wka")) == 2
    err = capsys.readouterr().err
    assert err == "error: numerical failure in linear algebra: Eigenvalues did not converge\n"


@pytest.mark.parametrize("tensor, value", [("coproduct", "nan"), ("counit", "inf")])
def test_non_finite_entry_is_input_error(cube2_file, capsys, tensor, value):
    with open(cube2_file) as fh:
        obj = json.load(fh)
    obj[tensor][0][-2] = float(value)
    with open(cube2_file, "w") as fh:
        json.dump(obj, fh)
    assert run("verify", cube2_file) == 2
    captured = capsys.readouterr()
    assert f"error: {tensor} entry 0: re/im must be finite" in captured.err
    assert "verdict" not in captured.out


@pytest.mark.parametrize("tensor", ["coproduct", "antipode", "counit"])
@pytest.mark.parametrize(
    "argv", [["verify"], ["derive", "--what", "all"], ["recover-counit"]], ids=lambda a: a[0]
)
def test_oversized_entry_is_input_error(cube2_file, capsys, tensor, argv):
    """An entry of 1e300, whose products overflow, is a bad file: exit 2
    with a message that names the array, and no numpy overflow warning."""
    with open(cube2_file) as fh:
        obj = json.load(fh)
    obj[tensor][0][-2] = 1e300
    with open(cube2_file, "w") as fh:
        json.dump(obj, fh)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(*argv, cube2_file) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert f"error: {tensor} has an entry of magnitude 1e+300, above 1e+100" in captured.err
    assert "verdict" not in captured.out


def test_repeated_entry_is_input_error(cube2_file, capsys):
    """A coproduct index listed twice, with another value, is a bad file
    (exit 2), not a file whose last row silently wins."""
    with open(cube2_file) as fh:
        obj = json.load(fh)
    obj["coproduct"].append(obj["coproduct"][3][:3] + [2.0, 0.0])
    with open(cube2_file, "w") as fh:
        json.dump(obj, fh)
    assert run("verify", cube2_file) == 2
    captured = capsys.readouterr()
    assert "error: coproduct entry 16: index [" in captured.err
    assert "is listed twice" in captured.err
    assert "verdict" not in captured.out


def test_counit_free_file_requires_recovery(tmp_path):
    w = get_example("cube2")
    gen = WeakKac(w.algebra, w.coproduct, w.antipode, None, {})
    path = tmp_path / "gen.wka"
    save_wka(gen, path)
    # structural commands demand a counit
    assert run("verify", str(path)) == 2
    assert run("derive", "--what", "haar", str(path)) == 2
    assert run("dual", str(path), "-o", str(path) + ".d") == 2
    assert run("report", str(path)) == 2
    # the generalized commands work
    assert run("check-gen-kac", "--trace", "normalized", str(path)) == 0
    assert run("check-gen-kac", "--trace", "regular", str(path)) == 0
    out_path = str(tmp_path / "rec.wka")
    assert run("recover-counit", str(path), "-o", out_path) == 0
    rec = load_wka(out_path)
    assert np.abs(rec.counit - w.counit).max() < 1e-7


def test_recover_counit_solves_the_unit_system_once(cube2_file, monkeypatch, capsys):
    """The printed counit is the counit of the written algebra, from one
    solve of the counit equations."""
    solves = []
    real = duality.solve_by_components

    def counting(*args):
        solves.append(args)
        return real(*args)

    monkeypatch.setattr(duality, "solve_by_components", counting)
    out_path = cube2_file + ".rec"
    assert run("recover-counit", cube2_file, "-o", out_path) == 0
    assert len(solves) == 1
    printed = capsys.readouterr().out.splitlines()[0].removeprefix("recovered counit: ")
    written = " ".join(f"{v.real:.12g}{v.imag:+.12g}j" for v in load_wka(out_path).counit)
    assert printed == written


# ---------------------------------------------------------------------------
# tolerance control
# ---------------------------------------------------------------------------


def _perturbed_file(tmp_path):
    w = get_example("fun_k2")
    eps = w.counit.copy()
    eps[0] += 1e-5
    bad = WeakKac(w.algebra, w.coproduct, w.antipode, eps, {})
    path = tmp_path / "pert.wka"
    save_wka(bad, path)
    return str(path)


def test_tol_flag_loosens_verification(tmp_path):
    path = _perturbed_file(tmp_path)
    assert run("verify", path) == 1
    assert run("verify", "--tol", "1e-3", path) == 0


def test_tol_env_var(tmp_path, monkeypatch):
    path = _perturbed_file(tmp_path)
    monkeypatch.setenv("WKA_TOL", "1e-3")
    assert run("verify", path) == 0
    monkeypatch.setenv("WKA_TOL", "1e-9")
    assert run("verify", path) == 1
    # explicit flag beats the environment
    assert run("verify", "--tol", "1e-3", path) == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("argv", [("verify",), ("derive", "--what", "all")])
def test_tolerance_not_positive_and_finite_is_input_error(cube2_file, capsys, monkeypatch, value, argv):
    """A tolerance that is not positive and finite exits 2 with a message
    that names where it came from, before any check runs."""
    monkeypatch.delenv("WKA_TOL", raising=False)
    assert run(*argv, "--tol", value, cube2_file) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --tol: ") and "positive and finite" in err
    monkeypatch.setenv("WKA_TOL", value)
    assert run(*argv, cube2_file) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: WKA_TOL: ")


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_run_catalog_rejects_a_tolerance_not_positive_and_finite(capsys, value):
    """scripts/run_catalog.py exits 2 with the message of wka, before it
    builds any member."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_catalog.py"
    spec = importlib.util.spec_from_file_location("run_catalog", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--tol", value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --tol: ") and "positive and finite" in err


def test_malformed_tol_env_var_is_input_error(cube2_file, capsys, monkeypatch):
    monkeypatch.setenv("WKA_TOL", "abc")
    assert run("verify", cube2_file) == 2
    assert capsys.readouterr().err == "error: WKA_TOL: could not convert string to float: 'abc'\n"
    # the flag is read first, so a good flag still runs
    assert run("verify", "--tol", "1e-9", cube2_file) == 0


def test_cached_parser_parses_each_call_on_its_own(cube2_file, monkeypatch, capsys):
    # the parser is built once per process; each call still reads its own
    # command and --tol, and a call without --tol falls back to the default
    monkeypatch.delenv("WKA_TOL", raising=False)
    assert cli._parser() is cli._parser()
    assert run("verify", "--tol", "1e-6", cube2_file) == 0
    first = capsys.readouterr().out
    assert run("derive", "--what", "cartan", "--tol", "1e-8", cube2_file) == 0
    second = capsys.readouterr().out
    assert run("derive", "--what", "cartan", cube2_file) == 0
    third = capsys.readouterr().out
    assert "abs_tol=1e-06" in first and "cartan:" not in first
    assert "abs_tol=1e-08" in second and "cartan:" in second
    assert "abs_tol=1e-09" in third and "abs_tol=1e-08" not in third


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_json_report_is_deterministic(cube2_file, capsys):
    assert run("report", "--format", "json", cube2_file) == 0
    first = capsys.readouterr().out
    assert run("report", "--format", "json", cube2_file) == 0
    second = capsys.readouterr().out
    assert first == second
    obj = json.loads(first)
    assert obj["passed"] is True
    assert obj["block_shape"] == [2, 2]
    assert obj["dim"] == 8


def test_report_does_not_serialize_again(cube2_file, monkeypatch, capsys):
    calls = []

    def counted(w):
        calls.append(w)
        return original(w)

    original = storage.serialize
    monkeypatch.setattr(storage, "serialize", counted)
    monkeypatch.setattr(cli, "serialize", counted, raising=False)
    assert run("report", "--format", "json", cube2_file) == 0
    assert json.loads(capsys.readouterr().out)["block_shape"] == [2, 2]
    assert calls == []


def test_text_report_mentions_checks(cube2_file, capsys):
    assert run("report", cube2_file) == 0
    out = capsys.readouterr().out
    assert "delta_coassociative" in out


def test_derive_fusion_prints_table(cube2_file, capsys):
    assert run("derive", "--what", "fusion", cube2_file) == 0
    out = capsys.readouterr().out
    assert "x" in out and "=" in out


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------


def test_entry_point_subprocess(tmp_path):
    path = str(tmp_path / "e.wka")
    r = subprocess.run(
        [sys.executable, "-m", "wka.cli", "build", "elementary", "1,1", "-o", path],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert r.returncode == 0, r.stderr
    r = subprocess.run(
        [sys.executable, "-m", "wka.cli", "verify", path],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert "pass" in r.stdout.lower()


_RANDOM_MODULE = """
import contextlib, io, json, sys
from wka.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print("numpy.random" in sys.modules)
"""


def _imports_numpy_random(*commands) -> bool:
    """Whether a fresh process that runs the commands through wka.cli.main
    has imported numpy.random afterwards."""
    src = str(Path(cli.__file__).resolve().parents[1])
    r = subprocess.run(
        [sys.executable, "-c", _RANDOM_MODULE, json.dumps(commands)],
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert r.returncode == 0, r.stderr
    return r.stdout.split()[-1] == "True"


def test_only_build_twist_imports_numpy_random(tmp_path):
    """Every check is exact, so derive, dual, verify and report import no
    random number generator, on the monomial cube family and on the split
    group algebra of Z/3; the random cocycle of a twist is the one draw."""
    commands = []
    for constructor, param in (("cube-family", "4"), ("group-algebra", "z3")):
        path = tmp_path / f"{constructor}.wka"
        assert run("build", constructor, param, "-o", str(path)) == 0
        path = str(path)
        commands += [
            ["derive", "--what", "all", path],
            ["dual", path, "-o", path + ".dual"],
            ["verify", path],
            ["report", "--format", "json", path],
        ]
    assert not _imports_numpy_random(*commands)
    assert _imports_numpy_random(["build", "twist", "1,1", "-o", str(tmp_path / "twist.wka")])


def test_dual_files_are_byte_identical_across_processes(tmp_path):
    """The group algebra of Z/3 and its dual take the split into minimal
    projections, which draws nothing: two fresh processes write the same
    bytes."""
    path = str(tmp_path / "z3.wka")
    assert run("build", "group-algebra", "z3", "-o", path) == 0
    written = []
    for n in range(2):
        out = tmp_path / f"z3.dual{n}.wka"
        r = subprocess.run(
            [sys.executable, "-m", "wka.cli", "dual", path, "-o", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert r.returncode == 0, r.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]
