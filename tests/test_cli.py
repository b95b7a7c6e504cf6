"""CLI frontend: exit codes, formats, reproducibility, the documented examples."""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from p3bundles import cli
from p3bundles.cli import main
from p3bundles.oracle import configs, sample_ruling


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
    pytest.param(("spectrum", *SIGMA0_24), None, 1, "SamplingFailed", id="spectrum-pool"),
    pytest.param(("monad", "profile", *SIGMA0_24), None, 1, "SamplingFailed",
                 id="profile-pool"),
    pytest.param(("monad", "checks", *SIGMA0_24), None, 1, "SamplingFailed", id="checks-pool"),
    pytest.param(("monad", "checks", "--series", "sigma0", "--m", "1", "--eps", "0",
                  "--a", "5", "--retry-budget", "0"), None, 1, "SamplingFailed",
                 id="checks-retry-budget-0"),
    pytest.param(("verify", "prop1", "--m", "1", "--script-file", "{tmp}/variant.les"),
                 "param m\nconfig Y ruling m={m}\nconfig Z modification d=1 avoid=Y\n"
                 "node O line 0\nnode E sheaf lf geom=serre:Z\ntriple T O E O\n", 2,
                 "prop1:5: geometry binding 'serre:Z': config 'Z' has no extension data",
                 id="serre-binding-without-extension"),
    pytest.param(("verify", "prop1", "--m", "1", "--script-file", "{tmp}/variant.les"),
                 "param m\nconfig Y ruling m={m}\nnode I ideal geom=ideal-ruling:Y\n", 2,
                 "prop1:3: geometry binding 'ideal-ruling:Y': config 'Y' is not a conic",
                 id="ruling-view-of-ruling-config"),
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
    pytest.param(("series", "compare", "--e", "0", "--n", "0"),
                 None, 2, "argument --n: must be at least 1", id="compare-n-0"),
    pytest.param(("oracle", "serre", "--kind", "ruling", "--m", "1", "--twist", "0",
                  "--retry-budget", "-1"),
                 None, 2, "argument --retry-budget: must be at least 0",
                 id="retry-budget-negative"),
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


def test_retry_budget_is_restored_after_the_command():
    assert run_cli("spectrum", "--series", "sigma0", "--m", "1", "--eps", "0",
                   "--a", "5", "--retry-budget", "0")[0] == 1
    assert configs.RETRY_BUDGET == 64
    assert sample_ruling(1, 0).components == 2


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


@pytest.mark.skipif(shutil.which("p3bundles") is None,
                    reason="console script not installed")
def test_console_script_runs():
    proc = subprocess.run(
        ["p3bundles", "spectrum", "--series", "sigma0", "--m", "1",
         "--eps", "0", "--a", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == "(-1,0^4,1)\n"


def test_out_file_respects_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("P3BUNDLES_OUT_DIR", str(tmp_path))
    code, out, _ = run_cli("series", "density", "--r", "17",
                           "--format", "json", "--out", "d.json")
    assert code == 0 and out == ""
    assert json.loads((tmp_path / "d.json").read_text())["density"] == "1/17"
