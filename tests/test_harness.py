"""Config parsing, exit codes, and reproducibility of the experiment runner."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modvar import arithmetic, cli, harness, multipliers, variation
from modvar.bumpkit import SmoothBump
from modvar.harness import SCHEMAS, ConfigError, default_config, parse_config
from modvar.util import GridTooCoarseError


def test_parse_config_round_trip():
    cfg = parse_config("kind = variation\nn_oracle = 10\nmax_len = 6\n")
    assert cfg.kind == "variation"
    assert cfg.params["n_oracle"] == 10
    assert cfg.params["max_len"] == 6
    # untouched keys fall back to schema defaults
    assert cfg.params["r_list"] == (2.2, 2.5, 3.0, 4.0, 8.0)


def test_parse_config_comments_and_blanks():
    cfg = parse_config("# header\n\nkind = chaining   # trailing\nn_inst = 5\n")
    assert cfg.kind == "chaining"
    assert cfg.params["n_inst"] == 5


def test_parse_config_rejects_duplicates():
    with pytest.raises(ConfigError):
        parse_config("kind = variation\nn_oracle = 1\nn_oracle = 2\n")


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("kind = variation\nbogus = 1\n")


def test_parse_config_rejects_bad_value():
    with pytest.raises(ConfigError):
        parse_config("kind = variation\nn_oracle = soup\n")


def test_parse_config_rejects_missing_kind():
    with pytest.raises(ConfigError):
        parse_config("n_oracle = 5\n")


def test_parse_config_rejects_kind_conflict():
    with pytest.raises(ConfigError):
        parse_config("kind = weyl\n", kind="variation")


def test_parse_config_missing_required():
    with pytest.raises(ConfigError):
        parse_config("", kind="sweep")      # operator is required


def test_default_config_for_defaulted_kind():
    cfg = default_config("bump-check")
    assert cfg.params["eps0_list"] == (0.1, 0.25)


def test_cli_exit_one_on_bad_set(tmp_path):
    assert cli.main(["variation", "--set", "bogus=1", "--out", str(tmp_path)]) == 1
    assert cli.main(["variation", "--set", "justakey", "--out", str(tmp_path)]) == 1


def test_cli_exit_one_on_unknown_sweep_operator(tmp_path):
    rc = cli.main(["sweep", "--set", "operator=not-a-thing",
                   "--out", str(tmp_path)])
    assert rc == 1
    # the linear theta sup is carleson parts 3-4, not a sweep operator
    with pytest.raises(ConfigError, match="unknown operator"):
        parse_config("kind = sweep\noperator = vr-linear-sup-theta\n")


def test_cli_exit_one_on_missing_config_file(tmp_path):
    rc = cli.main(["variation", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 1


def test_cli_exit_one_on_non_utf8_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_bytes(b"\xff\xfe")
    out = tmp_path / "out"
    assert cli.main(["variation", "--config", str(cfgfile),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not UTF-8" in err
    assert not out.exists()


# what argparse cannot parse is a config error: exit 1 and one line, not
# its usage text and exit 2 (which means a checked property failed)
@pytest.mark.parametrize("argv,cause", [
    (["weyl", "--jobs", "abc"], "--jobs"),
    (["weyl", "--seed", "abc"], "--seed"),
    ([], "KIND"),
    (["weyl", "--bogus"], "--bogus"),
    (["no-such-kind"], "no-such-kind"),
])
def test_cli_parse_errors_exit_one_with_one_line(argv, cause, tmp_path,
                                                  capsys):
    out = tmp_path / "out"
    assert cli.main(argv + (["--out", str(out)] if argv else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert cause in err
    assert not out.exists()


def test_cli_help_exits_zero(capsys):
    for argv in (["--help"], ["weyl", "--help"]):
        with pytest.raises(SystemExit) as ex:
            cli.main(argv)
        assert ex.value.code == 0
        assert "usage: modvar" in capsys.readouterr().out


def test_cli_runs_small_variation(tmp_path):
    rc = cli.main(["variation", "--set", "n_oracle=40", "--set", "max_len=7",
                   "--set", "n_jump=100", "--set", "jump_len=10",
                   "--out", str(tmp_path), "--seed", "7"])
    assert rc == 0
    summary = json.loads((tmp_path / "variation.json").read_text())
    assert summary["ok"] is True
    assert summary["oracle"]["ok"] is True
    assert summary["oracle"]["n"] == 40
    assert summary["jump"]["violations"] == 0


def test_cli_reproducible_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["variation", "--set", "n_oracle=25", "--set", "max_len=6",
            "--set", "n_jump=50", "--set", "jump_len=8", "--seed", "99"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("argv, digests", [
    (["chaining", "--set", "n_inst=300", "--seed", "2026"],
     {"chaining.json": "ecb4847e7a11b4854bb0d42aa676e4cc"
                       "8b3496d013daa49aeef2d1bc8284b5a7"}),
    (["chaining", "--set", "n_inst=300", "--seed", "20260819"],
     {"chaining.json": "5901897faf23fd0e66dcd88a654582ad"
                       "910c9107eb1a5dc8209ae59d377b1ca6"}),
    (["converge", "--seed", "20260819"],
     {"converge.json": "e2ba966dd37b7144c6fd94dbfddd6d83"
                       "bdc36f3f93fa769847ecdd82117297da",
      "converge_scan.csv": "5680519bcaf36c4b2f116043b46a8175"
                           "49e268f0d365db981032cfb1ebe068a0"}),
])
def test_chaining_and_converge_bytes_pinned(tmp_path, argv, digests):
    # the bytes that the one-cover-per-call chaining code and the
    # per-(P, N) scan weights of commit 6da8ceb wrote, with numpy's AVX-512
    # dispatch on and off alike
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    for name, want in digests.items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == want, name


def test_cli_seed_changes_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["chaining", "--set", "n_inst=8", "--set", "max_times=6"]
    assert cli.main(args + ["--seed", "1", "--out", str(a)]) == 0
    assert cli.main(args + ["--seed", "2", "--out", str(b)]) == 0
    sa = json.loads((a / "chaining.json").read_text())
    sb = json.loads((b / "chaining.json").read_text())
    assert sa["worst_increment_ratio"] != sb["worst_increment_ratio"]


def test_run_respects_jobs_env(tmp_path, monkeypatch):
    # jobs 2 passes the jobs cap on a one-CPU host too
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("MODVAR_JOBS", "0")
    cfg = parse_config("kind = chaining\nn_inst = 2\n")
    with pytest.raises(ConfigError):
        harness.run(cfg, out_dir=str(tmp_path))
    monkeypatch.setenv("MODVAR_JOBS", "2")
    assert harness.run(cfg, out_dir=str(tmp_path)) == 0


def test_config_file_plus_override(tmp_path):
    cfgfile = tmp_path / "v.cfg"
    cfgfile.write_text("kind = variation\nn_oracle = 30\nmax_len = 6\n"
                       "n_jump = 50\njump_len = 8\n")
    rc = cli.main(["variation", "--config", str(cfgfile),
                   "--set", "n_oracle=10", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "variation.json").read_text())
    assert summary["oracle"]["n"] == 10


def test_cli_exit_one_on_non_integer_jobs_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MODVAR_JOBS", "abc")
    rc = cli.main(["chaining", "--set", "n_inst=2", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "MODVAR_JOBS" in err


@pytest.mark.parametrize("argv", [
    ["variation", "--set", "oracle_tol=nan"],
    ["sweep", "--set", "operator=vr-sd", "--set", "r=inf"],
])
def test_non_finite_floats_refused(argv, tmp_path, capsys):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    with pytest.raises(ConfigError, match="finite"):
        parse_config("kind = bump-check\neps0_list = 0.1, -inf\n")


def test_jobs_above_cpu_count_refused_before_any_work(tmp_path, monkeypatch,
                                                      capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool started")

    ran = []

    def runner(cfg, out, seed, jobs):
        ran.append(jobs)
        return True, {}

    monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
    monkeypatch.setitem(harness._RUNNERS, "carleson", runner)
    monkeypatch.delenv("MODVAR_JOBS", raising=False)
    out = str(tmp_path / "out")
    for cpus, jobs in ((3, "4"), (None, "2")):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert cli.main(["carleson", "--jobs", jobs, "--out", out]) == 1
        monkeypatch.setenv("MODVAR_JOBS", jobs)
        assert cli.main(["carleson", "--out", out]) == 1
        monkeypatch.delenv("MODVAR_JOBS")
        errs = capsys.readouterr().err.splitlines()
        assert len(errs) == 2
        assert all(e.startswith("config error:") and "CPUs" in e
                   for e in errs)
    assert ran == [] and not os.path.exists(out)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli.main(["carleson", "--jobs", "3", "--out", out]) == 0
    assert ran == [3]


def test_int_lists_reject_fractions(tmp_path):
    assert parse_config("kind = carleson\nsizes = 1024, 2048\n").params[
        "sizes"] == (1024, 2048)
    with pytest.raises(ConfigError, match="sizes"):
        parse_config("kind = carleson\nsizes = 1024.7\n")
    rc = cli.main(["carleson", "--set", "sizes=1024.7", "--out",
                   str(tmp_path)])
    assert rc == 1


def test_summary_line_prints_json_booleans(tmp_path, capsys):
    # a zero tolerance fails the scan check, so ok prints as false
    rc = cli.main(["converge", "--set", "n_top=65537", "--set", "top_tol=0",
                   "--out", str(tmp_path)])
    assert rc == 2
    line = capsys.readouterr().out.strip().splitlines()[-1]
    flat = json.loads(line.split(" ", 2)[2])
    assert flat["ok"] is (rc == 0)


@pytest.mark.parametrize("operator", harness.SWEEP_OPERATORS)
def test_sweep_level_range_checked_before_any_draw(operator, monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("a draw ran before the level check")

    monkeypatch.setattr(harness, "_gauss", draw)
    for s_min, s_max in ((1, 9), (0, 2), (3, 2)):
        with pytest.raises(ConfigError, match="s_min <= s_max"):
            cfg = parse_config("kind = sweep\noperator = %s\ns_min = %d\n"
                               "s_max = %d\n" % (operator, s_min, s_max))
            harness.sweep_norm_ratio(cfg, 1, 1)


@pytest.mark.parametrize("operator", harness.SWEEP_OPERATORS)
def test_sweep_builds_symbols_once_per_level(operator, monkeypatch):
    # no symbol depends on the draw, so the Weyl rows behind the symbols
    # are computed per level: their count must not grow with the batch
    calls = []
    weyl_row = arithmetic.weyl_row

    def counted(Q, A):
        calls.append((Q, A))
        return weyl_row(Q, A)

    monkeypatch.setattr(arithmetic, "weyl_row", counted)
    # the lambda sup keeps the MIN_MODULUS floor
    M = multipliers.MIN_MODULUS if operator == "vr-sd" else 240
    counts = []
    for batch in (30, 60):
        calls.clear()
        cfg = parse_config("kind = sweep\noperator = %s\ns_max = 2\n"
                           "batch = %d\nM = %d\n" % (operator, batch, M))
        harness.sweep_norm_ratio(cfg, 1, 1)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_cli_empty_level_range_exits_one_and_writes_nothing(tmp_path,
                                                             capsys):
    rc = cli.main(["sweep", "--set", "operator=maximal-arc", "--set",
                   "s_min=3", "--set", "s_max=2", "--out", str(tmp_path)])
    assert rc == 1
    assert os.listdir(tmp_path) == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")


def test_cli_names_domain_and_io_errors(tmp_path, monkeypatch, capsys):
    def coarse(cfg, out, seed, jobs):
        raise GridTooCoarseError("frequency 1/7 snaps off the grid")

    monkeypatch.setitem(harness._RUNNERS, "weyl", coarse)
    assert cli.main(["weyl", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "domain error: frequency 1/7 snaps off the grid\n"
    rc = cli.main(["variation", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("I/O error:")


def _outputs_at_jobs(argv, tmp_path, monkeypatch):
    """Every --out file of one run at --jobs 1 and at --jobs 2."""
    monkeypatch.delenv("MODVAR_JOBS", raising=False)   # it overrides --jobs
    # jobs 2 passes the jobs cap on a one-CPU host too
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert cli.main(argv + ["--jobs", jobs, "--seed", "5",
                                "--out", str(out)]) == 0
        outs.append({n: (out / n).read_bytes()
                     for n in sorted(os.listdir(out))})
    return outs


@pytest.mark.parametrize("operator", harness.SWEEP_OPERATORS)
def test_threaded_sweep_bytes_do_not_depend_on_jobs(operator, tmp_path,
                                                     monkeypatch):
    argv = ["sweep", "--set", "operator=" + operator, "--set", "s_max=2"]
    outs = _outputs_at_jobs(argv, tmp_path, monkeypatch)
    # the vr-sd run also writes the vr-s table of the arc centres
    names = [operator] + (["vr-s"] if operator == "vr-sd" else [])
    assert sorted(outs[0]) == sorted(
        "sweep_%s.%s" % (n.replace("-", "_"), ext)
        for n in names for ext in ("csv", "json"))
    assert outs[0] == outs[1]


def test_multiplier_bytes_do_not_depend_on_jobs(tmp_path, monkeypatch):
    outs = _outputs_at_jobs(["multiplier", "--set", "s_list=1"], tmp_path,
                            monkeypatch)
    assert sorted(outs[0]) == ["multiplier.json"]
    assert outs[0] == outs[1]
    # the experiment's tol (1e-8) cannot see a slip at the ulp scale; every
    # error reads below 1e-15 here
    errors = json.loads(outs[0]["multiplier.json"])["errors"]
    assert sorted(errors) == ["vr_s", "vr_sd", "vrd"]
    assert all(err <= 1e-14 for err in errors.values())


def test_carleson_bytes_do_not_depend_on_jobs(tmp_path, monkeypatch):
    argv = ["carleson", "--set", "n_cov=10", "--set", "theta_count=8",
            "--set", "sizes=1024,2048"]
    outs = _outputs_at_jobs(argv, tmp_path, monkeypatch)
    assert sorted(outs[0]) == ["carleson.csv", "carleson.json"]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("kind,setting,first_work", [
    ("weyl", "fit_qmax=65", "modvar.arithmetic.weyl_rows"),
    ("weyl", "fit_d=4", "modvar.arithmetic.weyl_rows"),
    ("weyl", "fit_d=2 fit_qmax=201", "modvar.arithmetic.weyl_rows"),
    ("weyl", "fit_qmax=1", "modvar.arithmetic.weyl_rows"),
    ("multiplier", "s_list=1,5", "modvar.harness.stream"),
    ("multiplier", "s_list=0,1", "modvar.harness.stream"),
    ("carleson", "batch=29", "modvar.harness.stream"),
    ("carleson", "theta_count=0", "modvar.harness.stream"),
    ("carleson", "cov_len=7", "modvar.harness.stream"),
    # the r-growth envelope cap r/(r-2) divides by zero at r = 2
    ("carleson", "r_low=2", "modvar.harness.stream"),
    ("carleson", "r_high=2", "modvar.harness.stream"),
    ("sweep", "operator=maximal-arc M=-5", "modvar.harness.SmoothBump"),
    ("sweep", "operator=maximal-arc M=0", "modvar.harness.SmoothBump"),
    ("sweep", "operator=maximal-arc s_min=3 s_max=2",
     "modvar.harness.SmoothBump"),
    # the arc-centre table is written by the vr-sd run
    ("sweep", "operator=vr-s", "modvar.harness.SmoothBump"),
    # the lambda sup's MIN_MODULUS floor, refused before any level build
    ("sweep", "operator=vr-sd M=240",
     "modvar.multipliers.build_arc_multiplier"),
    # the level-1 window radius rho0 must lie in (0, 0.5)
    ("sweep", "operator=vr-sd rho0=0.6", "modvar.harness.SmoothBump"),
    # a subnormal level-1 radius passes (0, 0.5) but leaves chi_a0 = 0
    ("sweep", "operator=vr-sd s_max=1 rho0=1e-310",
     "modvar.harness.SmoothBump"),
    ("bump-check", "samples=0", "modvar.harness.SmoothBump"),
    ("chaining", "max_times=1", "modvar.harness.stream"),
    ("chaining", "max_dim=0", "modvar.harness.stream"),
    ("variation", "max_len=1", "modvar.harness.stream"),
    ("variation", "jump_len=3", "modvar.harness.stream"),
    ("variation", "n_oracle=-1", "modvar.harness.stream"),
    # the time grid 2^7..2^16 would be unsorted and the run would fail
    ("converge", "n_top=10", "modvar.harness.SmoothBump"),
    # every variation exponent must exceed 1
    ("carleson", "r=1", "modvar.harness.stream"),
    ("sweep", "operator=vr-sd r=1", "modvar.harness.SmoothBump"),
    ("multiplier", "r=0.5", "modvar.harness.SmoothBump"),
    ("variation", "r_list=2.5,1", "modvar.harness.stream"),
    # every theta of the carleson grid must be a frequency of each length
    ("carleson", "sizes=1024,4096,16384,1000", "modvar.harness.SmoothBump"),
    ("carleson", "grid_len=60", "modvar.harness.SmoothBump"),
    # a length below 64 has one truncation, so every variation is 0
    ("carleson", "sizes=32", "modvar.harness.stream"),
    ("carleson", "grid_len=32", "modvar.harness.stream"),
    # a scale list is strictly increasing and starts at the kernel floor
    ("multiplier", "J_list=5,3", "modvar.harness.SmoothBump"),
    ("multiplier", "J_list=1", "modvar.harness.SmoothBump"),
    ("sweep", "operator=vr-sd J_list=5,3", "modvar.harness.SmoothBump"),
    ("sweep", "operator=vr-sd J_list=1", "modvar.harness.SmoothBump"),
    # a variation across one scale is identically 0
    ("multiplier", "J_list=9", "modvar.harness.SmoothBump"),
    ("sweep", "operator=vr-sd J_list=9", "modvar.harness.SmoothBump"),
    # every arc frequency B/Q must snap to the M-grid within its window
    ("sweep", "operator=vr-sd rho0=0.01", "modvar.harness.SmoothBump"),
    ("sweep", "operator=maximal-arc M=4001", "modvar.harness.SmoothBump"),
    # each seqspace interval seq_base*2^s must reach its level's floor
    ("sweep", "operator=seqspace seq_base=10", "modvar.harness.SmoothBump"),
    ("sweep", "operator=seqspace seq_base=0", "modvar.harness.SmoothBump"),
])
def test_config_ranges_refused_before_any_work(kind, setting, first_work,
                                               tmp_path, monkeypatch, capsys):
    def work(*args, **kwargs):
        raise AssertionError("work ran before the range check")

    monkeypatch.setattr(first_work, work)
    argv = [kind, "--out", str(tmp_path)]
    for item in setting.split():
        argv += ["--set", item]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    # the refusal names the key of the last setting
    assert setting.split()[-1].split("=")[0] in err


def test_theta_sup_variation_runs_in_a_fixed_working_set():
    # the anchored (K - 1, L) transforms are built beforehand; one call
    # then holds the signal's transform, one (K, L) spectrum whose rows 1..
    # are inverted in place and the DP's column blocks, not a rolled copy
    # of the stack per theta
    L = 16384
    what = harness.theta_symbols(SmoothBump(0.25), L)
    K = len(harness._truncation_list(L))
    assert what.shape == (K - 1, L)
    rng = np.random.default_rng(5)
    f = rng.normal(size=L) + 1j * rng.normal(size=L)
    tracemalloc.start()
    try:
        harness.theta_sup_variation(f, what, 8, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * K * L * 16


def test_variation_operators_pass_vr_batch_every_row(monkeypatch):
    # the stacks are anchored, but carleson's theta sup and the vr-sd apply
    # still hand variation.vr_batch the full n-row matrix, the zero row
    # included, so a count of DP cells taken from its argument sees all of
    # their work
    shapes = []
    vr_batch = variation.vr_batch

    def recorded(values, r):
        shapes.append(np.shape(values))
        return vr_batch(values, r)

    monkeypatch.setattr(variation, "vr_batch", recorded)
    L, theta_count = 256, 8
    f = np.random.default_rng(5).normal(size=L) + 0j
    harness.theta_sup_variation(f, harness.theta_symbols(SmoothBump(0.25), L),
                                theta_count, 3.0)
    K = len(harness._truncation_list(L))
    assert K > 1 and shapes == [(K, L)] * theta_count
    shapes.clear()
    cfg = parse_config("", kind="sweep",
                       overrides={"operator": "vr-sd", "s_max": "1"})
    harness.sweep_norm_ratio(cfg, 5, 1)
    n_stacks = len(multipliers.lambda_grid_for(1, 2))
    assert shapes == ([(len(cfg.get("J_list")), cfg.get("M"))]
                      * n_stacks * cfg.get("batch"))


_TOLERANCE = ("a tolerance: 0 asks for exactness, and a negative one just "
              "fails its own check (exit 2)")
_SLACK = ("a slack factor of a checked ratio: a value <= 0 just fails that "
          "check (exit 2)")
# the keys with no bound in SCHEMAS, each with the reason it has none
_UNBOUNDED = {
    ("weyl", "min_exponent"): "a floor on the fitted exponent: any real is "
                              "a claim the fit can be checked against",
    ("variation", "oracle_tol"): _TOLERANCE,
    ("chaining", "telescope_tol"): _TOLERANCE,
    ("converge", "osc_tol"): _TOLERANCE,
    ("converge", "top_tol"): _TOLERANCE,
    ("converge", "res_pad"): _TOLERANCE,
    ("converge", "y0"): "a point of the circle R/Z: every real is one",
    ("carleson", "cov_tol"): _TOLERANCE,
    ("carleson", "grid_exact_tol"): _TOLERANCE,
    ("carleson", "size_slack"): _SLACK,
    ("carleson", "envelope_slack"): _SLACK,
    ("multiplier", "tol"): _TOLERANCE,
    ("sweep", "operator"): "_check_cross refuses a name outside "
                           "SWEEP_OPERATORS",
    ("sweep", "s_min"): "_check_cross: 1 <= s_min <= s_max <= S_CAP",
    ("sweep", "s_max"): "_check_cross: 1 <= s_min <= s_max <= S_CAP",
    ("sweep", "rho0"): "_check_cross: its range depends on the operator "
                       "and the level range",
    ("sweep", "seq_base"): "_check_cross: seq_base*2^s reaches the "
                           "level-s interval floor at every level",
}


def _just_outside(parser, default, lo, hi):
    """One raw value per bound of a key, each just outside that bound; a
    list gets its default entries plus one bad entry."""
    exact = parser in (harness._parse_int, harness._parse_ints)
    bad = []
    if lo is not None:
        bad.append(lo - 1 if exact else lo)
    if hi is not None:
        bad.append(hi + 1 if exact else math.nextafter(hi, math.inf))
    if isinstance(default, tuple):
        return [", ".join(map(repr, default + (v,))) for v in bad]
    return [repr(v) for v in bad]


def test_every_bounded_key_refused_before_any_work(tmp_path, monkeypatch,
                                                   capsys):
    def runner(cfg, out, seed, jobs):
        raise AssertionError("a runner was called")

    for kind in harness._RUNNERS:
        monkeypatch.setitem(harness._RUNNERS, kind, runner)
    unbounded = set()
    for kind, schema in SCHEMAS.items():
        base = [kind, "--out", str(tmp_path / "out")]
        if kind == "sweep":
            base += ["--set", "operator=vr-sd"]
        for key, (parser, default, lo, hi) in schema.items():
            if lo is None and hi is None:
                unbounded.add((kind, key))
            for val in _just_outside(parser, default, lo, hi):
                assert cli.main(base + ["--set", "%s=%s" % (key, val)]) == 1
                err = capsys.readouterr().err
                assert err.count("\n") == 1, (kind, key, val)
                assert re.match(r"config error: need [^,]*\b%s\b" % key, err)
    assert unbounded == set(_UNBOUNDED)
    assert not (tmp_path / "out").exists()
    # integer bounds are inclusive, and so is a float's upper bound
    cfg = parse_config("kind = converge\neps0 = 0.5\nn_top = 65537\n")
    assert (cfg.get("eps0"), cfg.get("n_top")) == (0.5, 65537)


_KEYS = sorted({key for schema in SCHEMAS.values() for key in schema}
               | {"kind"})
_VALUE = st.one_of(
    st.text(),
    st.sampled_from(sorted(SCHEMAS)),
    st.integers().map(str),
    st.floats().map(repr),
    st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=4).map(
        lambda xs: ", ".join(map(str, xs))),
)
_LINE = st.one_of(
    st.text(),
    st.tuples(st.sampled_from(_KEYS), _VALUE).map(
        lambda kv: "%s = %s" % kv),
)


@settings(max_examples=300)
@given(lines=st.lists(_LINE, max_size=8),
       overrides=st.dictionaries(st.one_of(st.sampled_from(_KEYS),
                                           st.text()),
                                 _VALUE, max_size=4),
       kind=st.one_of(st.none(), st.sampled_from(sorted(SCHEMAS)),
                      st.text()))
def test_parse_config_raises_only_config_error(lines, overrides, kind):
    try:
        cfg = parse_config("\n".join(lines), kind=kind, overrides=overrides)
    except ConfigError:
        return
    assert cfg.kind in SCHEMAS
    assert set(cfg.params) == set(SCHEMAS[cfg.kind])


_SCIPY_FREE_RUN = """
import sys
from modvar import cli
for argv in (["bump-check"],
             ["carleson", "--set", "n_cov=10", "--set", "theta_count=8",
              "--set", "sizes=1024,2048"]):
    assert cli.main(argv + ["--out", sys.argv[1]]) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_runs_without_importing_scipy(tmp_path):
    # a fresh interpreter: the test process itself may have loaded scipy
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env.pop("MODVAR_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUN,
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert sorted(os.listdir(tmp_path)) == [
        "bump_check.json", "bump_profile.csv", "carleson.csv",
        "carleson.json"]
