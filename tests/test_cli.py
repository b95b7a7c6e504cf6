"""CLI frontend: exit codes, formats, reproducibility, the documented examples."""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from p3bundles import cli
from p3bundles.cli import main
from p3bundles.monad import InconsistentProfile
from p3bundles.oracle import GeometryConfig, serre_cohomology

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:   # argparse's own exit on usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def test_documented_verify_example():
    code, out, _ = run_cli("verify", "prop1", "--m", "1", "--eps", "0",
                           "--a", "5", "--seed", "0")
    assert code == 0
    assert out.startswith("PASS prop1")


def test_documented_enumerate_example():
    code, out, _ = run_cli("series", "enumerate", "--series", "sigma0",
                           "--n-max", "150", "--format", "tsv")
    assert code == 0
    assert any(line.split("\t")[2] == "146" for line in out.splitlines()[1:])


def test_documented_spectrum_example():
    code, out, _ = run_cli("spectrum", "--series", "sigma0",
                           "--m", "1", "--eps", "0", "--a", "2")
    assert code == 0
    assert out == "(-1,0^4,1)\n"


def test_json_reports_embed_seed_and_config_hash():
    code, out, _ = run_cli("monad", "dims", "--series", "sigma1", "--m", "1",
                           "--eps", "0", "--a", "5", "--seed", "9",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 9
    assert len(payload["config_hash"]) == 64
    assert payload["dimension"] == 281


def test_identical_invocations_are_byte_identical():
    argv = ("verify", "prop2", "--m", "1", "--eps", "0", "--a", "6",
            "--seed", "2", "--format", "json")
    assert run_cli(*argv) == run_cli(*argv)


def test_seed_changes_the_witnesses_not_the_verdict():
    one = run_cli("verify", "prop1", "--m", "2", "--eps", "0", "--a", "7",
                  "--seed", "0", "--format", "json")
    two = run_cli("verify", "prop1", "--m", "2", "--eps", "0", "--a", "7",
                  "--seed", "1", "--format", "json")
    assert one[0] == two[0] == 0
    assert json.loads(one[1])["verify"]["configs"] != json.loads(two[1])["verify"]["configs"]


def test_failed_verification_exits_1_with_trace():
    code, _, err = run_cli("verify", "prop1", "--m", "9", "--eps", "0", "--a", "5")
    assert code == 1
    assert "assertion not entailed" in err
    assert "via " in err  # rule trace for the conflicting interval


def test_usage_errors_exit_2():
    assert run_cli("verify", "prop1", "--m", "1")[0] == 2          # missing params
    assert run_cli("series", "density")[0] == 2                    # missing --r
    assert run_cli("nonsense")[0] == 2
    assert run_cli("monad", "dims", "--series", "sigma0", "--m", "1",
                   "--eps", "0", "--a", "3")[0] == 2               # invalid spec


SIGMA0_24 = ("--series", "sigma0", "--m", "19", "--eps", "0", "--a", "24")


# argv ({tmp} is a scratch directory, and {tmp}/variant.les holds the script
# text when one is given), script text, exit code, text stderr must contain
@pytest.mark.parametrize("argv,text,code,message", [
    pytest.param(("verify", "prop1", "--m", "1", "--eps", "0", "--a", "5", "--d", "2"),
                 None, 2, "undeclared parameter(s) d", id="undeclared-param"),
    pytest.param(("verify", "prop1", "--m", "1"),
                 None, 2, "prop1:13: missing required parameter", id="missing-params"),
    pytest.param(("verify", "prop1", "--m", "1", "--script-file", "{tmp}/variant.les"),
                 "param m\nconfig Y ruling\n", 2, "prop1:2: ", id="config-without-m"),
    pytest.param(("verify", "prop1", "--m", "1", "--script-file", "{tmp}/variant.les"),
                 "param m\nnode\n", 2, "prop1:2: malformed line 'node'", id="malformed-line"),
    pytest.param(("verify", "prop1", "--m", "1", "--script-file", "{tmp}/variant.les"),
                 "param m\nassert h0 NOPE 0 = 0\n", 2, "prop1:2: unknown node NOPE",
                 id="unknown-node"),
    pytest.param(("verify", "prop1", "--m", "1", "--script-file", "{tmp}/missing.les"),
                 None, 2, "cannot read --script-file", id="missing-script-file"),
    # 20 ruling lines need more than the 19-value coordinate pool
    pytest.param(("monad", "profile", *SIGMA0_24, "--lo", "-2", "--hi", "-1"), None, 0, "",
                 id="profile-pool"),
    pytest.param(("monad", "checks", *SIGMA0_24), None, 0, "", id="checks-pool"),
    # 17 and 18 ruling lines leave the secant at most two pool values
    pytest.param(("verify", "prop1-modified", "--m", "16", "--a", "30", "--d", "1"),
                 None, 0, "", id="modified-pool-16"),
    pytest.param(("verify", "prop1-modified", "--m", "17", "--a", "30", "--d", "1"),
                 None, 0, "", id="modified-pool-17"),
    pytest.param(("verify", "prop1", "--m", "1", "--script-file", "{tmp}/variant.les"),
                 "param m\nconfig Y ruling m={m}\nconfig Z join Y Y\n", 1,
                 "SamplingFailed: joined configurations share a point",
                 id="join-shares-a-point"),
    pytest.param(("verify", "prop1", "--m", "1", "--script-file", "{tmp}/variant.les"),
                 "param m\ntwist T {max()}\n", 2, "prop1:2: max() in 'max()'",
                 id="brace-call-arity"),
    pytest.param(("verify", "prop1", "--m", "1", "--script-file", "{tmp}/variant.les"),
                 "param m\ntwist T {binom(m,k=1)}\n", 2,
                 "prop1:2: binom() takes positional arguments only", id="brace-call-keyword"),
    pytest.param(("verify", "prop1", "--m", "1", "--script-file", "{tmp}/variant.les"),
                 "param m\ntwist T {max(3,4,key=5)}\n", 2,
                 "prop1:2: max() takes positional arguments only", id="brace-call-ignored-keyword"),
    pytest.param(("verify", "prop1", "--m", "1", "--script-file", "{tmp}/variant.les"),
                 "param m\nconfig Y ruling m={m}\nconfig Z modification d=1 avoid=Y\n"
                 "node O line 0\nnode E sheaf lf geom=serre:Z\ntriple T O E O\n", 2,
                 "prop1:5: geometry binding 'serre:Z': config 'Z' has no extension data",
                 id="serre-binding-without-extension"),
    pytest.param(("verify", "prop1", "--m", "1", "--script-file", "{tmp}/variant.les"),
                 "param m\nconfig Y ruling m={m}\nnode I ideal geom=ideal-ruling:Y\n", 2,
                 "prop1:3: geometry binding 'ideal-ruling:Y': config 'Y' is not a conic",
                 id="ruling-view-of-ruling-config"),
    # an epi out of O(t) onto the two marked points of a secant: onto from t = 1
    pytest.param(("verify", "prop1", "--m", "1", "--script-file", "{tmp}/variant.les"),
                 "param m\nconfig Z modification d={m}\nnode O line 0\n"
                 "node P points {2*m} geom=points:Z\nnode K sheaf\ntriple T K O P\n"
                 "twist T 1\nfact ORACLE epi T 1\n", 0, "", id="epi-out-of-a-line-node"),
    pytest.param(("verify", "prop1", "--m", "1", "--script-file", "{tmp}/variant.les"),
                 "param m\nconfig Z modification d={m}\nnode O line 0\n"
                 "node P points {2*m} geom=points:Z\nnode K sheaf\ntriple T K O P\n"
                 "twist T 0\nfact ORACLE epi T 0\n", 1,
                 "OracleFactMismatch: prop1:8: fact epi T@0: restriction not surjective",
                 id="epi-out-of-a-line-node-not-onto"),
    pytest.param(("series", "density", "--r", "17", "--out", "{tmp}/missing/x.json"),
                 None, 2, "cannot write --out", id="unwritable-out"),
    pytest.param(("oracle", "ideal", "--kind", "ruling", "--m", "-1", "--twist", "0"),
                 None, 2, "argument --m: must be at least 0", id="oracle-m-negative"),
    pytest.param(("oracle", "restrict", "--kind", "modification", "--d", "-1", "--twist", "0"),
                 None, 2, "argument --d: must be at least 1", id="oracle-d-negative"),
    pytest.param(("series", "density", "--r", "0"),
                 None, 2, "argument --r: must be at least 1", id="density-r-0"),
    pytest.param(("series", "enumerate", "--series", "sigma0", "--n-max", "0"),
                 None, 2, "argument --n-max: must be at least 1", id="enumerate-n-max-0"),
    pytest.param(("series", "coverage", "--n-lo", "1", "--n-hi", "0"),
                 None, 2, "argument --n-hi: must be at least 1", id="coverage-n-hi-0"),
    pytest.param(("series", "coverage", "--n-lo", "200", "--n-hi", "100"),
                 None, 2, "--n-lo must not exceed --n-hi", id="coverage-n-lo-above-n-hi"),
    pytest.param(("series", "coverage", "--n-lo", "-5", "--n-hi", "3"),
                 None, 2, "argument --n-lo: must be at least 1", id="coverage-n-lo-negative"),
    pytest.param(("verify", "prop1", "--m", "1", "--eps", "0", "--a", "5", "--order", "reverse"),
                 None, 2, "unrecognized arguments: --order reverse", id="verify-order-removed"),
    pytest.param(("series", "compare", "--e", "0", "--n", "0"),
                 None, 2, "argument --n: must be at least 1", id="compare-n-0"),
    pytest.param(("spectrum", "--series", "sigma0", "--m", "1", "--eps", "0", "--a", "5",
                  "--retry-budget", "3"),
                 None, 2, "unrecognized arguments: --retry-budget 3",
                 id="retry-budget-removed"),
    pytest.param(("verify", "prop1", "--m", "1", "--script-file", "{tmp}/variant.les"),
                 "param m\nnode O line 0\nnode E sheaf\nchern E 2 0 1 0\n"
                 "triple T O E O\ntwist T 0\nchern E 2 0 5 0\ntwist T 1\n", 2,
                 "prop1:7: node E already has a Chern character", id="chern-twice"),
    pytest.param(("verify", "prop1", "--m", "1", "--script-file", "{tmp}/variant.les"),
                 "param m\nnode O line 0\nnode E sheaf\nchern E 2 0 1 1\n"
                 "triple T O E O\ntwist T 0\n", 2,
                 "prop1:6: malformed line 'twist T 0': NonIntegerChi: chi(E) = 1/2",
                 id="chern-non-integer-chi"),
])
def test_exit_code_matrix(tmp_path, argv, text, code, message):
    if text is not None:
        (tmp_path / "variant.les").write_text(text)
    got, _, err = run_cli(*(arg.format(tmp=tmp_path) for arg in argv))
    assert got == code
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("op", ["profile", "checks"])
def test_tsv_is_rejected_before_any_work(monkeypatch, op):
    def fail(*args, **kwargs):
        raise AssertionError("the command ran before its --format was checked")

    monkeypatch.setattr(cli, "h1_intervals", fail)
    monkeypatch.setattr(cli, "middle_term_checks", fail)
    code, _, err = run_cli("monad", op, "--series", "sigma0", "--m", "1", "--eps", "0",
                           "--a", "5", "--format", "tsv")
    assert code == 2
    assert "argument --format: invalid choice: 'tsv'" in err


def test_a_stray_value_error_is_a_usage_error(monkeypatch):
    def refuse(*args, **kwargs):
        raise ValueError("configuration has no extension data")

    monkeypatch.setattr(cli, "h1_intervals", refuse)
    code, _, err = run_cli("monad", "profile", "--series", "sigma0", "--m", "1",
                           "--eps", "0", "--a", "5")
    assert code == 2
    assert "usage:" in err and "error: configuration has no extension data" in err
    assert "Traceback" not in err


def test_a_configuration_error_is_a_usage_error(monkeypatch):
    def refuse(*args, **kwargs):
        return serre_cohomology(GeometryConfig("lines", 0, ()), 0)

    monkeypatch.setattr(cli, "h1_intervals", refuse)
    code, _, err = run_cli("monad", "profile", "--series", "sigma0", "--m", "1",
                           "--eps", "0", "--a", "5")
    assert code == 2
    assert "usage:" in err and "error: configuration has no extension data" in err
    assert "Traceback" not in err


def test_an_inconsistent_profile_still_fails_verification(monkeypatch):
    def inconsistent(*args, **kwargs):
        raise InconsistentProfile("h^1 profile is not non-increasing")

    monkeypatch.setattr(cli, "spectrum", inconsistent)
    code, _, err = run_cli("spectrum", "--series", "sigma0", "--m", "1", "--eps", "0",
                           "--a", "5")
    assert code == 1
    assert "verification failed: InconsistentProfile: h^1 profile" in err


def test_config_hash_covers_the_oracle_kind():
    hashes = set()
    for kind in ("ruling", "conics"):
        code, out, _ = run_cli("oracle", "ideal", "--kind", kind, "--m", "1",
                               "--twist", "2", "--format", "json")
        assert code == 0
        hashes.add(json.loads(out)["config_hash"])
    assert len(hashes) == 2


def test_oracle_subcommands():
    code, out, _ = run_cli("oracle", "ideal", "--kind", "ruling", "--m", "2",
                           "--twist", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"]["cohomology"][0] == 1   # only the quadric itself
    # charge-2 conics bundle: spectrum (0, -1), so h^1(E(-1)) counts one entry
    code, out, _ = run_cli("oracle", "serre", "--kind", "conics", "--m", "1",
                           "--twist", "-1", "--format", "json")
    assert code == 0
    assert json.loads(out)["oracle"]["cohomology"][1] == 1


def test_profile_reports_unpinned_twists():
    code, out, _ = run_cli("monad", "profile", "--series", "sigma0", "--m", "1",
                           "--eps", "0", "--a", "2", "--lo", "-2", "--hi", "1",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["profile"]["-1"] == 6
    assert payload["profile"]["1"] is None
    assert payload["unpinned_twists"] == [1]


def test_catalog_tsv_lists_all_rows():
    code, out, _ = run_cli("series", "catalog", "--format", "tsv")
    assert code == 0
    assert len(out.strip().splitlines()) == 13


def console_script() -> tuple[list[str], dict]:
    """The installed `p3bundles` command, or else the `[project.scripts]`
    target of pyproject.toml run from the source tree: argv prefix and env."""
    if shutil.which("p3bundles") is not None:
        return ["p3bundles"], dict(os.environ)
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["p3bundles"]
    module, func = target.split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return [sys.executable, "-c", code], env


def test_console_script_runs():
    argv, env = console_script()
    proc = subprocess.run(
        argv + ["spectrum", "--series", "sigma0", "--m", "1", "--eps", "0", "--a", "2"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "(-1,0^4,1)\n"
    invalid = subprocess.run(
        argv + ["spectrum", "--series", "sigma0", "--m", "1", "--eps", "0", "--a", "1"],
        capture_output=True, text=True, timeout=120, env=env)
    assert invalid.returncode == 2


def test_out_file_respects_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("P3BUNDLES_OUT_DIR", str(tmp_path))
    code, out, _ = run_cli("series", "density", "--r", "17",
                           "--format", "json", "--out", "d.json")
    assert code == 0 and out == ""
    assert json.loads((tmp_path / "d.json").read_text())["density"] == "1/17"
