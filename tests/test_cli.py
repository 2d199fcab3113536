import json
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import redhom
from redhom import catalog, cli, gf
from redhom.algebra import build_ring
from redhom.catalog import catalog_spec, module_from_spec
from redhom.cli import cli_run

from module_helpers import dense_ext_dims


def run_cli(capsys, argv, expect=0):
    code = cli_run(argv)
    captured = capsys.readouterr()
    assert code == expect, captured.err or captured.out
    return json.loads(captured.out), captured.err


def test_ring_list(capsys):
    report, err = run_cli(capsys, ["ring", "list"])
    ids = [e["id"] for e in report["results"]["catalog"]]
    assert ids == ["R1", "R2", "R3", "R4", "R5"]
    assert report["tool"]["name"] == "redhom"


def test_ring_show_with_field_suffix(capsys):
    report, _ = run_cli(capsys, ["ring", "show", "R1q2"])
    ring = report["results"]["ring"]
    assert ring["p"] == 2 and ring["dim"] == 3
    assert ring["classification"]["socle_dim"] == 2
    assert not ring["classification"]["is_gorenstein"]


def test_ring_show_r4_flags(capsys):
    report, _ = run_cli(capsys, ["ring", "show", "R4q5"])
    ring = report["results"]["ring"]
    assert ring["dim"] == 5 and ring["classification"]["is_gorenstein"]


def test_unknown_ring_exits_2(capsys):
    report, err = run_cli(capsys, ["ring", "show", "R9"], expect=2)
    assert "error" in report
    assert "R9" in err


def test_ring_validate_good_and_bad(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "mode": "monomial_quotient", "p": 5,
        "variables": ["x"], "ideal": ["x^3"]}))
    report, _ = run_cli(capsys, ["ring", "validate", str(good)])
    assert report["results"]["valid"]

    bad = tmp_path / "bad.json"
    table = np.zeros((3, 3, 3), dtype=np.int64)
    table[0] = np.eye(3, dtype=np.int64)
    table[:, 0] = np.eye(3, dtype=np.int64)
    table[1, 2, 1] = 1  # breaks commutativity
    bad.write_text(json.dumps({
        "mode": "structure_constants", "p": 5,
        "labels": ["1", "x", "y"], "table": table.tolist()}))
    report, err = run_cli(capsys, ["ring", "validate", str(bad)], expect=2)
    assert "witness" in report["error"]

    # numbers that are not exact integers are refused, not truncated
    line = {"mode": "monomial_quotient", "variables": ["x"], "ideal": ["x^2"]}
    for doc in (dict(line, p="5"), dict(line, p=5.7),
                {"mode": "structure_constants", "p": 5, "labels": ["1", "x"],
                 "products": {"x,x": {"x": 0.5}}}):
        bad.write_text(json.dumps(doc))
        for action in ("validate", "show"):
            report, _ = run_cli(capsys, ["ring", action, str(bad)], expect=2)
            assert "integers" in report["error"]


def test_resolve_betti(capsys):
    report, err = run_cli(capsys, ["resolve", "--ring", "R1q5",
                                   "--module", "k", "--steps", "6"])
    assert report["results"]["betti"] == [1, 2, 4, 8, 16, 32, 64]
    assert set(report["results"]["interior_defects"].values()) == {0}


def test_ext_command(capsys):
    report, _ = run_cli(capsys, ["ext", "--ring", "R2q5", "--module", "k",
                                 "--bound", "5"])
    assert report["results"]["ext"]["dims"] == [1, 0, 0, 0, 0, 0]


def test_classify_command(capsys):
    report, err = run_cli(capsys, ["classify", "--ring", "R2q5",
                                   "--module", "k", "--bound", "6"])
    tf = report["results"]["torsionfree"]
    assert tf["totally_reflexive_up_to_bound"]
    assert tf["m_max"] == 6 and tf["n_max"] == 6
    assert report["results"]["gdim"]["verdict"].startswith("gdim = 0")


def test_reduce_paper_example(capsys):
    report, err = run_cli(capsys, [
        "reduce", "--mode", "red", "--target", "pd", "--ring", "R1q5",
        "--module", "k", "--max-steps", "2", "--n-max", "1", "--ab-max", "2"])
    witness = report["results"]["search"]["witness"]
    assert witness["depth"] == 1
    step = witness["steps"][0]
    assert (step["n"], step["a"], step["b"]) == (0, 2, 1)
    assert report["results"]["witness_reverified"]
    assert report["limits"]["ab_max"] == 2


def test_growth_command(capsys):
    report, _ = run_cli(capsys, ["growth", "--ring", "R1q5", "--module", "k",
                                 "--kind", "betti", "--bound", "10"])
    assert report["results"]["growth"]["verdict"] == "exponential"
    report, _ = run_cli(capsys, ["growth", "--ring", "R3q5", "--module", "k",
                                 "--kind", "betti", "--bound", "12"])
    assert report["results"]["growth"]["verdict"] == "poly(2)"


def test_seq_build_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "window.json"
    report, _ = run_cli(capsys, ["seq", "build", "--ring", "R2q5",
                                 "--module", "k", "--m", "1", "--n", "1",
                                 "--out", str(out)])
    assert report["results"]["build"]["m"] == 1
    report2, err2 = run_cli(capsys, ["seq", "verify", "--ring", "R2q5",
                                     "--file", str(out)])
    assert report2["results"]["verify"]["ok"]


@pytest.mark.parametrize("flags, edit, message", [
    (["--m", "2", "--n", "0"], {}, "expected [0, 3]"),
    ([], {"m": -1}, "nonnegative"),
], ids=["span-does-not-match-degrees", "negative-degree-in-file"])
def test_seq_verify_refuses_bad_degrees(tmp_path, capsys, flags, edit, message):
    # a degree that does not fit the sequence is an input error (exit 2),
    # not an internal invariant failure (exit 3)
    out = tmp_path / "window.json"
    run_cli(capsys, ["seq", "build", "--ring", "R2q5", "--module", "k",
                     "--m", "1", "--n", "1", "--out", str(out)])
    out.write_text(json.dumps(dict(json.loads(out.read_text()), **edit)))
    report, err = run_cli(capsys, ["seq", "verify", "--ring", "R2q5",
                                   "--file", str(out)] + flags, expect=2)
    assert "error" in report and "results" not in report
    assert err.startswith("error: ") and message in err


def run_capped(argv):
    """Run the CLI in a child under a 1.5 GiB address-space limit.

    The limit applies to the child alone and turns a memory regression
    into a MemoryError, not a killed machine."""
    limit = 1536 * 2**20
    src = os.path.dirname(os.path.dirname(redhom.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", "from redhom.cli import main; main()", *argv],
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))


def test_cor20_answers_at_bound_12_under_a_memory_cap():
    # at the default bound 12 the resolution of k over R1 reaches d_13; the
    # dense form of d_12 alone would take 576 MiB, but kernels and ranks
    # above the cutover build only nonzero blocks and support components
    proc = run_capped(["check", "cor20", "--ring", "R1q5", "--module", "k"])
    assert proc.returncode == 0, proc.stderr
    gdim = json.loads(proc.stdout)["results"]["report"]["gdim"]
    assert gdim["bound"] == 12 and gdim["verdict"] == "infinite-up-to-bound"
    assert gdim["ext_self"] == [2] + [3 * 2**(i - 1) for i in range(1, 13)]


def test_ext_of_k_against_k_is_the_betti_numbers_under_a_memory_cap():
    # the minimal differentials lie in the radical, which acts on k as
    # zero, so every map of Hom(P, k) vanishes and Ext^i(k, k) = beta_i(k)
    # exactly; over R1q5 that is 2^i, with d_13 of 4096 x 8192 entries
    proc = run_capped(["ext", "--ring", "R1q5", "--module", "k", "--target", "k",
                       "--bound", "12"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["ext"]["dims"] == [2**i for i in range(13)]


def test_cor20_over_budget_exits_2_with_betti_numbers(capsys, monkeypatch):
    # a budget under the nonzero blocks of d_12 (4096 of 3 x 3, 288 KiB),
    # but over every dense form the run builds (at most 144 KiB, d_6's): the
    # step above the cutover is refused as an input error that names it and
    # the Betti numbers so far.  A fresh ring cache keeps other tests'
    # cached ranks out of it
    monkeypatch.setattr(catalog, "_cached_rings", {})
    monkeypatch.setattr(gf, "LINEAR_FORM_BUDGET_BYTES", 200_000)
    report, err = run_cli(capsys, ["check", "cor20", "--ring", "R1q5", "--module", "k"],
                          expect=2)
    assert "results" not in report and err.startswith("error: ")
    assert "resolution step 12: the 4096 nonzero blocks" in report["error"]
    assert "Betti numbers so far [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, " \
        "4096]" in report["error"]


def test_resolve_refuses_linear_form_over_budget(capsys, monkeypatch):
    # `resolve --steps n` computes kernels up to d_{n-1} and forms d_n only
    # for its exactness check; that form is refused too.  Over R1 beta_i =
    # 2^i and dim 3, so with lin(d_4) as the budget 4 steps pass and 5 do
    # not.  A fresh ring cache keeps other tests' cached forms out of it
    monkeypatch.setattr(catalog, "_cached_rings", {})
    monkeypatch.setattr(gf, "LINEAR_FORM_BUDGET_BYTES", 8 * 8 * 3 * 16 * 3)
    report, _ = run_cli(capsys, ["resolve", "--ring", "R1q5", "--module", "k",
                                 "--steps", "4"])
    assert report["results"]["betti"] == [1, 2, 4, 8, 16]
    report, err = run_cli(capsys, ["resolve", "--ring", "R1q5", "--module", "k",
                                   "--steps", "5"], expect=2)
    assert "results" not in report
    assert "16 x 32 matrix" in report["error"] and err.startswith("error: ")


def test_seq_verify_refuses_missing_differential(tmp_path, capsys):
    # a window with a gap is malformed input (exit 2), refused when the
    # complex is built, not an internal invariant failure (exit 3)
    out = tmp_path / "window.json"
    run_cli(capsys, ["seq", "build", "--ring", "R2q5", "--module", "k",
                     "--m", "1", "--n", "1", "--out", str(out)])
    doc = json.loads(out.read_text())
    del doc["sequence"]["differentials"]["0"]
    out.write_text(json.dumps(doc))
    report, err = run_cli(capsys, ["seq", "verify", "--ring", "R2q5",
                                   "--file", str(out)], expect=2)
    assert "error" in report and "results" not in report
    assert err.startswith("error: ") and "missing differentials at positions [0]" in err


def test_seq_verify_rejects_bad_file(tmp_path, capsys):
    f = tmp_path / "bad_seq.json"
    f.write_text(json.dumps({"kind": "free", "m": 0, "n": 0,
                             "ranks": {"0": 1, "1": 1},
                             "differentials": {"1": [[[1, 0]]]}}))
    # identity differential: d has a unit entry, so d.d = 0 holds trivially
    # but the window fails verification as non-minimal/non-exact data is fine;
    # a malformed shape must exit 2
    f2 = tmp_path / "malformed.json"
    f2.write_text(json.dumps({"kind": "free", "ranks": {"0": 1},
                              "differentials": {"5": [[[1, 0]]]}}))
    report, _ = run_cli(capsys, ["seq", "verify", "--ring", "R2q5",
                                 "--file", str(f2), "--m", "0", "--n", "0"],
                        expect=2)
    assert "error" in report


def test_check_commands(capsys):
    report, _ = run_cli(capsys, ["check", "thm4", "--ring", "R2q5",
                                 "--module", "k", "--max-steps", "1"])
    assert report["results"]["report"]["consistent"]
    report, _ = run_cli(capsys, ["check", "cor20", "--ring", "R2q5",
                                 "--module", "k", "--bound", "4"])
    assert report["results"]["report"]["sup_formula_instance"]["holds"]
    report, _ = run_cli(capsys, ["check", "thm3", "--ring", "R2q5",
                                 "--module", "k", "--bound", "2"])
    assert report["results"]["report"]["all_ok"]
    report, _ = run_cli(capsys, ["check", "prop7", "--ring", "R2q2",
                                 "--module", "k", "--bound", "8"])
    assert report["results"]["report"]["consistent"]


def test_check_prop7_inconclusive_plexity_is_consistent(capsys):
    # R2 is Gorenstein, so k has a gdim witness; Bass numbers to bound 4
    # are too few for the growth window, and an inconclusive plexity
    # estimate contradicts nothing
    report, _ = run_cli(capsys, ["check", "prop7", "--ring", "R2q5",
                                 "--module", "k", "--bound", "4"])
    rep = report["results"]["report"]
    assert rep["plexity_instance"]["k_ured_gdim"]["found"]
    assert rep["ring_plexity"]["verdict"] == "inconclusive"
    assert rep["plexity_instance"]["instance_consistent"]
    assert rep["consistent"]


def test_module_file_input(tmp_path, capsys):
    spec = tmp_path / "mod.json"
    spec.write_text(json.dumps({"actions": [[[0]], [[0]]]}))
    report, _ = run_cli(capsys, ["classify", "--ring", "R1q5",
                                 "--module", str(spec), "--bound", "2"])
    assert report["results"]["torsionfree"]["m_max"] == 0
    # a fraction would be truncated, and 10^20 overflows int64: both refused
    for doc in ({"actions": [[[0.5]], [[0]]]}, {"actions": [[[10**20]], [[0]]]},
                {"presentation": [[[0, 1.9, 0]]]}, {"presentation": [[[0, 10**20, 0]]]}):
        spec.write_text(json.dumps(doc))
        report, _ = run_cli(capsys, ["ext", "--ring", "R1q5", "--module", str(spec),
                                     "--bound", "2"], expect=2)
        assert "integers" in report["error"]


def test_bad_module_spec_exits_2(capsys):
    run_cli(capsys, ["resolve", "--ring", "R1q5", "--module", "nonsense"],
            expect=2)


def test_negative_syzygy_index_exits_2(capsys):
    report, _ = run_cli(capsys, ["resolve", "--ring", "R1q5", "--module",
                                 "syzygy:-1:k"], expect=2)
    assert "nonnegative" in report["error"]


def test_report_reproducibility(capsys):
    argv = ["reduce", "--mode", "ured", "--target", "pd", "--ring", "R2q5",
            "--module", "k", "--max-steps", "1", "--n-max", "1"]
    r1, _ = run_cli(capsys, argv)
    r2, _ = run_cli(capsys, argv)
    assert r1["results"] == r2["results"]
    assert r1["command"] == argv
    # the embedded command reproduces the results field bit for bit
    r3, _ = run_cli(capsys, r1["command"])
    assert r3["results"] == r1["results"]


def test_report_schema_keys(capsys):
    report, _ = run_cli(capsys, ["classify", "--ring", "R2q5",
                                 "--module", "k", "--bound", "4"])
    assert {"tool", "command", "seed", "ring", "limits",
            "results", "timing"} <= set(report)
    assert report["limits"]["bound"] == 4
    assert report["ring"]["mode"] == "monomial_quotient"
    assert isinstance(report["timing"]["seconds"], float)


def test_ext_with_module_target(capsys):
    # explicit targets, free or not, give the dense reference's Ext table
    alg = build_ring(catalog_spec("R3", 5))
    k = module_from_spec(alg, "k")
    for target in ("free:1", "k", "syzygy:1:k", "transpose:k"):
        report, _ = run_cli(capsys, ["ext", "--ring", "R3q5", "--module", "k",
                                     "--target", target, "--bound", "4"])
        want = dense_ext_dims(k, module_from_spec(alg, target), 4)
        assert tuple(report["results"]["ext"]["dims"]) == want, target
    report, _ = run_cli(capsys, ["ext", "--ring", "R3q5", "--module", "k", "--bound", "4"])
    assert tuple(report["results"]["ext"]["dims"]) == \
        dense_ext_dims(k, module_from_spec(alg, "ring"), 4)


def test_suite_command_wiring(capsys, monkeypatch):
    import redhom.acceptance as acceptance

    def fake_pass():
        return True, "fake"

    def fake_fail():
        return False, "fake failure"

    monkeypatch.setattr(acceptance, "CRITERIA", [("fake ok", fake_pass, 5.0)])
    report, err = run_cli(capsys, ["suite", "acceptance"])
    assert report["results"]["passed"]
    assert "PASS" in err
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [("fake bad", fake_fail, 5.0)])
    code = cli_run(["suite", "acceptance"])
    captured = capsys.readouterr()
    assert code == 3
    assert "FAIL" in captured.err


def test_limits_config_file(tmp_path, capsys):
    config = tmp_path / "limits.json"
    config.write_text(json.dumps({"max_steps": 2, "n_max": 1, "ab_max": 2,
                                  "seed": 7}))
    report, _ = run_cli(capsys, ["reduce", "--mode", "red", "--target", "pd",
                                 "--ring", "R1q5", "--module", "k",
                                 "--config", str(config)])
    assert report["limits"]["max_steps"] == 2
    assert report["limits"]["ab_max"] == 2
    assert report["limits"]["seed"] == 7
    assert report["results"]["search"]["witness"]["depth"] == 1
    # explicit flags override the config
    report2, _ = run_cli(capsys, ["reduce", "--mode", "red", "--target", "pd",
                                  "--ring", "R1q5", "--module", "k",
                                  "--config", str(config), "--ab-max", "1",
                                  "--max-steps", "1"])
    assert report2["limits"]["ab_max"] == 1
    assert not report2["results"]["search"]["found"]
    # unknown keys are rejected
    bad = tmp_path / "bad_limits.json"
    bad.write_text(json.dumps({"nonsense": 1}))
    run_cli(capsys, ["reduce", "--mode", "red", "--target", "pd",
                     "--ring", "R1q5", "--module", "k", "--config", str(bad)],
            expect=2)


def test_limits_config_is_read_once(tmp_path, capsys, monkeypatch):
    # the report echoes the limits the search used instead of parsing again
    config = tmp_path / "limits.json"
    config.write_text(json.dumps({"max_steps": 1, "n_max": 0}))
    reads = []

    def counting_open(path, *args, **kwargs):
        reads.append(str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    for command in (["reduce", "--mode", "ured", "--target", "pd"], ["check", "thm4"]):
        reads.clear()
        report, _ = run_cli(capsys, command + ["--ring", "R2q5", "--module", "k",
                                               "--config", str(config)])
        assert reads == [str(config)]
        assert report["limits"]["max_steps"] == 1 and report["limits"]["n_max"] == 0


def test_seq_verify_module_form(tmp_path, capsys):
    # a short exact module sequence 0 -> k -> Lambda -> k -> 0 over R2 is a
    # valid (0,1)-window once positions are arranged as 1, 0, -1
    doc = {
        "kind": "modules",
        "modules": {"1": {"dim": 1, "actions": [[[0]]]},
                    "0": {"dim": 2, "actions": [[[0, 0], [1, 0]]]},
                    "-1": {"dim": 1, "actions": [[[0]]]}},
        "maps": {"1": [[0], [1]], "0": [[1, 0]]},
    }
    f = tmp_path / "seq.json"
    f.write_text(json.dumps(doc))
    report, _ = run_cli(capsys, ["seq", "verify", "--ring", "R2q5",
                                 "--file", str(f), "--m", "0", "--n", "1"])
    assert report["results"]["verify"]["ok"]


def test_regular_case_field(capsys):
    # over the field every module is free: reducing dimensions are zero
    report, _ = run_cli(capsys, ["reduce", "--mode", "red", "--target", "pd",
                                 "--ring", "R5q2", "--module", "k"])
    assert report["results"]["search"]["witness"]["depth"] == 0
    report2, _ = run_cli(capsys, ["classify", "--ring", "R5q5",
                                  "--module", "k", "--bound", "3"])
    assert report2["results"]["torsionfree"]["totally_reflexive_up_to_bound"]


def test_witness_reverification_survives_optimize_flag():
    # under python -O a failed re-verification must still exit 3, not
    # emit the witness
    script = (
        "import sys\n"
        "import redhom.cli as cli\n"
        "cli.verify_witness = lambda *args: False\n"
        "sys.exit(cli.cli_run(['reduce', '--mode', 'ured', '--target', 'pd',\n"
        "                      '--ring', 'R2q5', '--module', 'k']))\n")
    src = os.path.dirname(os.path.dirname(redhom.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    report = json.loads(proc.stdout)
    assert "re-verification" in report["error"]
    assert "results" not in report


def test_reduce_report_counts_pruned_triples(capsys):
    report, err = run_cli(capsys, ["reduce", "--mode", "ured", "--target", "pd",
                                   "--ring", "R1q2", "--module", "k",
                                   "--max-steps", "1", "--n-max", "1"])
    search = report["results"]["search"]
    assert not search["found"] and search["exhaustive"]
    assert (search["tested"], search["pruned"]) == (0, 2)
    assert "threads" not in report["limits"]
    assert "pruned 2" in err


@pytest.mark.parametrize("config,flags,message", [
    ({"cap": "abc"}, [], "must be integers"),
    ([1, 2], [], "JSON object"),
    (None, ["--max-steps", "-1"], "must not be negative"),
    (None, ["--ab-max", "0"], "at least 1"),
    (None, ["--cap", "0"], "at least 1"),
    (None, ["--target", "gdim", "--ring", "R1q5", "--tr-bound", "0"], "at least 1"),
], ids=["non-integer-value", "non-object-config", "negative-limit",
        "ab-max-below-1", "cap-below-1", "gdim-tr-bound-below-1"])
def test_reduce_refuses_bad_limits(tmp_path, capsys, config, flags, message):
    argv = ["reduce", "--mode", "ured", "--target", "pd", "--ring", "R2q5",
            "--module", "k"] + flags
    if config is not None:
        path = tmp_path / "limits.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    report, err = run_cli(capsys, argv, expect=2)
    assert message in report["error"] and message in err
    assert "results" not in report


@pytest.mark.parametrize("argv,flag", [
    (["classify", "--bound", "0"], "--bound"),
    (["check", "thm3", "--bound", "0"], "--bound"),
    (["resolve", "--steps", "-1"], "--steps"),
    (["ext", "--bound", "-1"], "--bound"),
    (["check", "prop7", "--bound", "-1"], "--bound"),
    (["check", "thm4", "--bound", "-1"], "--bound"),
    (["seq", "build", "--m", "-1", "--n", "0"], "--m"),
    (["seq", "build"], "--m"),
    (["growth", "--kind", "betti", "--window", "1"], "--window"),
    (["growth", "--kind", "betti", "--window", "0"], "--window"),
    (["growth", "--kind", "betti", "--bound", "-3"], "--bound"),
], ids=["classify-bound-0", "thm3-bound-0", "resolve-steps-neg", "ext-bound-neg",
        "prop7-bound-neg", "thm4-bound-neg", "seq-m-neg", "seq-build-no-degrees",
        "growth-window-1", "growth-window-0", "growth-bound-neg"])
def test_refused_numeric_flags_exit_2(capsys, argv, flag):
    # a flag below its range is an input error, not an invariant failure
    report, err = run_cli(capsys, argv + ["--ring", "R2q5", "--module", "k"], expect=2)
    assert flag in report["error"] and flag in err
    assert "results" not in report


_K_R1 = {"dim": 1, "actions": [[[0]], [[0]]]}


@pytest.mark.parametrize("ring,doc,flags", [
    ("R1", {"kind": "modules", "modules": {"1": _K_R1, "0": _K_R1},
            "maps": {"1": [[1, 0]]}}, ["--m", "0", "--n", "0"]),
    ("R1", {"kind": "modules", "modules": {"1": _K_R1, "0": _K_R1},
            "maps": {"0": [[1]]}}, ["--m", "0", "--n", "0"]),
    ("R1", {"kind": "free", "ranks": {"0": 1, "1": 1},
            "differentials": {"1": [[[0, 1]]]}}, ["--m", "0", "--n", "0"]),
    ("R2q5", {"kind": "modules", "modules": {"0": {"dim": 2, "actions": [[[1, 0], [0, 0]]]}},
              "maps": {}}, ["--m", "0", "--n", "0"]),
    ("R1", {"kind": "modules", "modules": {"0": dict(_K_R1, dim=2)}, "maps": {}},
     ["--m", "0", "--n", "0"]),
    ("R5", {"kind": "modules", "modules": {"0": {"actions": []}}, "maps": {}},
     ["--m", "0", "--n", "0"]),
    ("R2q5", {"kind": "free", "m": "one", "n": 0, "ranks": {"0": 1},
              "differentials": {}}, []),
    ("R2q5", {"kind": "free", "differentials": {}}, ["--m", "0", "--n", "0"]),
    ("R2q5", [1, 2], ["--m", "0", "--n", "0"]),
    ("R2q5", {"sequence": [1, 2]}, ["--m", "0", "--n", "0"]),
    ("R1", {"kind": "free", "ranks": {"0": 1, "1": 1},
            "differentials": {"1": [[[0, 1.5, 0]]]}}, ["--m", "0", "--n", "0"]),
    ("R1", {"kind": "free", "ranks": {"0": 1, "1": 1},
            "differentials": {"1": [[[0, 10**20, 0]]]}}, ["--m", "0", "--n", "0"]),
    ("R1", {"kind": "free", "ranks": {"0": 1.0, "1": 1},
            "differentials": {"1": [[[0, 1, 0]]]}}, ["--m", "0", "--n", "0"]),
    ("R1", {"kind": "modules", "modules": {"1": _K_R1, "0": {"actions": [[[0.5]], [[0]]]}},
            "maps": {"1": [[0]]}}, ["--m", "0", "--n", "0"]),
    ("R1", {"kind": "modules", "modules": {"1": _K_R1, "0": _K_R1},
            "maps": {"1": [[10**20]]}}, ["--m", "0", "--n", "0"]),
], ids=["map-shape", "map-without-target", "differential-entry-length",
        "actions-break-relations", "dim-disagrees-with-actions", "field-module-without-dim",
        "non-integer-degree", "free-without-ranks",
        "not-an-object", "sequence-not-an-object",
        "differential-entry-fraction", "differential-entry-overflow", "rank-float",
        "module-action-fraction", "map-entry-overflow"])
def test_seq_verify_refuses_malformed_documents(tmp_path, capsys, ring, doc, flags):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    report, err = run_cli(capsys, ["seq", "verify", "--ring", ring, "--file", str(path)]
                          + flags, expect=2)
    assert "error" in report and "results" not in report
    assert err.startswith("error: ")


def _readme_commands():
    """argv lists of the README's command-line usage block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    usage = [b for b in blocks if "redhom ring list" in b]
    assert len(usage) == 1
    lines = usage[0].replace("\\\n", " ").splitlines()
    return [shlex.split(line.split("#")[0])[1:] for line in lines
            if line.startswith("redhom ")]


def test_readme_commands_run(tmp_path, capsys, monkeypatch):
    commands = _readme_commands()
    assert len(commands) == 16
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)     # exits 2 on a renamed flag or command
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_ring.json").write_text(
        json.dumps(catalog_spec("R1", 5).to_dict()))
    (tmp_path / "limits.json").write_text(
        json.dumps({"max_steps": 1, "n_max": 1, "ab_max": 2}))
    for argv in commands:
        if argv[0] == "growth" and "--bound" in argv:
            continue                # about 7.5 s; test_growth_command runs growth
        report, _ = run_cli(capsys, argv)
        assert report["command"] == argv
