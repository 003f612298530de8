"""Config parsing, exit codes, and reproducibility of the experiment runner."""

import ast
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

from modvar import arithmetic, cli, harness, multipliers, systems, variation
from modvar.bumpkit import SmoothBump, scaled_weight
from modvar.harness import SCHEMAS, ConfigError, default_config, parse_config
from modvar.util import DomainError, GridTooCoarseError

import oracles


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


# the verdict thresholds are fixed at their checks, so a config that names
# one is refused as an unknown key, from a file and from --set alike
@pytest.mark.parametrize("kind,key", [
    ("weyl", "min_exponent"), ("weyl", "envelope_slack"),
    ("variation", "oracle_tol"), ("chaining", "telescope_tol"),
    ("converge", "osc_tol"), ("converge", "top_tol"), ("converge", "res_pad"),
    ("carleson", "cov_tol"), ("carleson", "grid_exact_tol"),
    ("carleson", "size_slack"), ("carleson", "envelope_slack"),
    ("multiplier", "tol"),
])
def test_threshold_keys_refused(kind, key, tmp_path, capsys):
    with pytest.raises(ConfigError, match="unknown key %r" % key):
        parse_config("%s = 1\n" % key, kind=kind)
    out = tmp_path / "out"
    assert cli.main([kind, "--set", "%s=1" % key, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert not out.exists()


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
# its usage text and exit 2 (which means a checked property failed); so is
# a seed outside 0..2^64-1, the one unsigned 64-bit word of a stream key
@pytest.mark.parametrize("argv,cause", [
    (["weyl", "--jobs", "abc"], "--jobs"),
    (["weyl", "--seed", "abc"], "--seed"),
    ([], "KIND"),
    (["weyl", "--bogus"], "--bogus"),
    (["no-such-kind"], "no-such-kind"),
    (["variation", "--seed", "-1"], "seed must lie in 0..2^64-1"),
    (["variation", "--seed", "18446744073709551616"],
     "seed must lie in 0..2^64-1"),
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


# every kind at a small config: the exact files it writes to --out, and
# the stem of its summary, the first payload, whose ok the status line reads
_SMALL_RUNS = [
    (["bump-check", "kmax=2", "samples=64"], "bump_check",
     ["bump_check.json", "bump_profile.csv"]),
    (["weyl", "gauss_qmax=9", "bound_qmax=10", "fit_d=2", "fit_qmax=30"],
     "weyl", ["weyl.json", "weyl_decay.csv"]),
    (["variation", "n_oracle=20", "max_len=6", "n_jump=20", "jump_len=8"],
     "variation", ["variation.json"]),
    (["chaining", "n_inst=8", "max_times=6"], "chaining", ["chaining.json"]),
    (["converge", "n_top=65537"], "converge",
     ["converge.json", "converge_scan.csv"]),
    (["carleson", "n_cov=5", "theta_count=8", "sizes=1024"], "carleson",
     ["carleson.csv", "carleson.json"]),
    (["multiplier", "s_list=1", "n_draw=1"], "multiplier",
     ["multiplier.json"]),
    (["sweep", "operator=maximal-arc", "s_max=1"], "sweep_maximal_arc",
     ["sweep_maximal_arc.csv", "sweep_maximal_arc.json"]),
    (["sweep", "operator=seqspace", "s_max=1"], "sweep_seqspace",
     ["sweep_seqspace.csv", "sweep_seqspace.json"]),
    # the vr-sd run writes the vr-s table too, and no sweep.json
    (["sweep", "operator=vr-sd", "s_max=1"], "sweep_vr_sd",
     ["sweep_vr_s.csv", "sweep_vr_s.json", "sweep_vr_sd.csv",
      "sweep_vr_sd.json"]),
]


@pytest.mark.parametrize("run, summary, names", _SMALL_RUNS,
                         ids=[" ".join(r[0][:2]) for r in _SMALL_RUNS])
def test_each_kind_writes_exactly_its_files(run, summary, names, tmp_path,
                                            capsys):
    argv = [run[0], "--seed", "3", "--out", str(tmp_path)]
    for item in run[1:]:
        argv += ["--set", item]
    rc = cli.main(argv)
    assert rc in (0, 2)
    assert sorted(os.listdir(tmp_path)) == names
    payload = json.loads((tmp_path / (summary + ".json")).read_text())
    kind, verdict, flat = capsys.readouterr().out.splitlines()[-1].split(
        " ", 2)
    assert (kind, verdict) == ("[%s]" % run[0], "ok" if rc == 0 else "FAIL")
    assert payload["ok"] is (rc == 0)
    assert json.loads(flat) == {k: v for k, v in payload.items()
                                if not isinstance(v, dict)}


# the bytes that the one-cover-per-call chaining code and the per-(P, N)
# scan weights of commit 6da8ceb wrote, each run with its floor: the lowest
# of numpy's x86-64 dispatch levels X86_V2 < X86_V3 < X86_V4 at which its
# files keep these bytes.  The chaining pins hold down to X86_V2: the
# cover's gaps take correctly rounded steps only, and the seed-20260819
# digest is what the earlier norm-based gaps wrote at X86_V2.  numpy
# contracts complex products and complex abs with FMA from X86_V3 up, so
# the converge pins (orbit averages), the maximal-arc sweep pins (the bytes
# of the dense (arcs, M) symbols of commit 3a2ba9e: spectrum products and
# the abs of its inverse transforms) and the multiplier pins (the bytes of
# the union-mask arc stacks and two apply loops of commit 864c0fc) move at
# X86_V2, where converge.json hashes to 4b6dd4ec..., sweep_maximal_arc.csv
# to 2290e404... and multiplier.json to e07b9b0e... (seed 2026) and
# 28b12434... (seed 20260819).  The bump-check, weyl and seqspace sweep pins
# are the bytes of commit a2d2e1b.  bump_check.json, bump_profile.csv and
# weyl.json hold down to X86_V2; weyl_decay.csv and the default seqspace
# sweep (s_max 4) move at X86_V2, where weyl_decay.csv hashes to
# 9a02bab4..., sweep_seqspace.csv to 9cb61666... and sweep_seqspace.json to
# 0b54640e...
_PINNED_RUNS = [
    (["chaining", "--set", "n_inst=300", "--seed", "2026"],
     {"chaining.json": "ecb4847e7a11b4854bb0d42aa676e4cc"
                       "8b3496d013daa49aeef2d1bc8284b5a7"}, "X86_V2"),
    (["chaining", "--set", "n_inst=300", "--seed", "20260819"],
     {"chaining.json": "deb4c0930a7f164ab0590de449bbad25"
                       "7fbed6b1eb29c87c2ed2a1c8521f05c4"}, "X86_V2"),
    (["converge", "--seed", "20260819"],
     {"converge.json": "e2ba966dd37b7144c6fd94dbfddd6d83"
                       "bdc36f3f93fa769847ecdd82117297da",
      "converge_scan.csv": "5680519bcaf36c4b2f116043b46a8175"
                           "49e268f0d365db981032cfb1ebe068a0"}, "X86_V3"),
    (["sweep", "--set", "operator=maximal-arc", "--seed", "2026"],
     {"sweep_maximal_arc.csv": "4fc080444de2eee949904ed91c423"
                               "0f73914381f57d558c865d50671ccce93e0",
      "sweep_maximal_arc.json": "cc2b9dab71e3f736da088e255a7af2c3"
                                "cfc191f1edcb8acc2cd7de695239b819"},
     "X86_V3"),
    (["multiplier", "--seed", "2026"],
     {"multiplier.json": "efa1f90ce64fdecc98ac5eae7febc68d"
                         "a7f4af6256d8d66622319a29c3cefe84"}, "X86_V3"),
    (["multiplier", "--seed", "20260819"],
     {"multiplier.json": "6b07451b0b4e1faa42f6c9856c11bad3"
                         "362db6665320cfcc6690b6f160877487"}, "X86_V3"),
    (["bump-check", "--seed", "2026"],
     {"bump_check.json": "eae021f4ab465df86877b01dcbb14f50"
                         "bf896780725581aee7d10c2841a0222d",
      "bump_profile.csv": "91bf95f45cd828a349f7a54abfb59f85"
                          "3c7dd73dd51133ce19e061e7b94e974c"}, "X86_V2"),
    (["weyl", "--seed", "2026"],
     {"weyl.json": "45a5af3c4251538b037e3bae688f48d2"
                   "d64abe57c149a39d20db36a8c5222b92",
      "weyl_decay.csv": "4bec60f54f69bef9af4016801bbc4e50"
                        "f746d402fe418cfe884eb19e0b0b5035"}, "X86_V3"),
    (["sweep", "--set", "operator=seqspace", "--seed", "2026"],
     {"sweep_seqspace.csv": "1c6cea0cd4c4d80fec82a511299fa6c5"
                            "25a0df5a34c8b9f157149a3ea36ae5e6",
      "sweep_seqspace.json": "5471e68a0a6744dc67b6e1201d278839"
                             "cee67c3d6fc44335928ae33cf422a129"}, "X86_V3"),
    # the bytes that the one-sequence-per-call code of commit 0269fae
    # wrote, with numpy's AVX-512 pow and with its dispatch off (libm pow)
    # alike, and down to X86_V2 dispatch
    (["variation", "--set", "n_oracle=50", "--set", "n_jump=500",
      "--seed", "5"],
     {"variation.json": "2b03c9be42ec8d9e46335c791f69b909"
                        "38638c96772c17b13e62d0fc8292cbc5"}, "X86_V2"),
]


def _dispatch_level():
    """The highest x86-64 level that numpy dispatches to in this process."""
    from numpy._core._multiarray_umath import __cpu_features__ as features
    return next((lv for lv in ("X86_V4", "X86_V3", "X86_V2")
                 if features.get(lv)), "none of X86_V2..X86_V4")


# ids by index alone: a run's floor is not part of its name
@pytest.mark.parametrize("argv, digests, floor", _PINNED_RUNS,
                         ids=["argv%d-digests%d" % (k, k)
                              for k in range(len(_PINNED_RUNS))])
def test_chaining_and_converge_bytes_pinned(tmp_path, argv, digests, floor):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    for name, want in digests.items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == want, (
            "%s moved: its pin holds from numpy dispatch level %s up, and "
            "numpy dispatches at %s here" % (name, floor, _dispatch_level()))


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


def test_non_integer_jobs_refusal_names_its_source(tmp_path, monkeypatch):
    # the CLI's --jobs is type=int; harness.run takes any value
    cfg = parse_config("kind = chaining\nn_inst = 2\n")
    monkeypatch.delenv("MODVAR_JOBS", raising=False)
    with pytest.raises(ConfigError, match=r"^jobs: expected an integer, "
                                          r"got 'x'$"):
        harness.run(cfg, out_dir=str(tmp_path), jobs="x")
    monkeypatch.setenv("MODVAR_JOBS", "y")
    with pytest.raises(ConfigError, match=r"^MODVAR_JOBS: expected an "
                                          r"integer, got 'y'$"):
        harness.run(cfg, out_dir=str(tmp_path), jobs="x")


@pytest.mark.parametrize("kind,key,value", [
    ("converge", "y0", "0.3"), ("carleson", "cov_len", "48"),
    ("carleson", "grid_len", "64"), ("chaining", "max_dim", "16"),
    ("sweep", "s_min", "1"), ("sweep", "rho0", "0.125"),
    ("sweep", "seq_base", "64")])
def test_keys_made_constants_are_unknown(kind, key, value, tmp_path,
                                         capsys):
    # each is set at its constant's value, and still refused
    argv = [kind, "--set", "%s=%s" % (key, value), "--out", str(tmp_path)]
    if kind == "sweep":
        argv += ["--set", "operator=vr-sd"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        "config error: unknown key %r for experiment %r\n" % (key, kind))
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["converge", "--set", "eps0=nan"],
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

    def runner(cfg, seed, jobs):
        ran.append(jobs)
        return {"carleson.json": {"ok": True}}

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


def test_summary_line_prints_json_booleans(tmp_path, capsys, monkeypatch):
    # a wrong oracle fails the oracle check, so ok prints as false
    monkeypatch.setattr(variation, "vr_brute",
                        lambda seqs, r: [v + 1.0 for v in
                                         variation.vr_exact(seqs, r)])
    rc = cli.main(["variation", "--set", "n_oracle=5", "--set", "n_jump=5",
                   "--out", str(tmp_path)])
    assert rc == 2
    line = capsys.readouterr().out.strip().splitlines()[-1]
    flat = json.loads(line.split(" ", 2)[2])
    assert flat["ok"] is (rc == 0)


@pytest.mark.parametrize("operator", harness.SWEEP_OPERATORS)
def test_sweep_level_range_checked_before_any_draw(operator, monkeypatch,
                                                   tmp_path):
    def draw(*args, **kwargs):
        raise AssertionError("a draw ran before the level check")

    monkeypatch.setattr(harness, "_gauss", draw)
    for s_max in (0, multipliers.S_CAP + 1):
        with pytest.raises(ConfigError, match="1 <= s_max <= %d"
                                              % multipliers.S_CAP):
            cfg = parse_config("kind = sweep\noperator = %s\ns_max = %d\n"
                               % (operator, s_max))
            harness.run(cfg, out_dir=str(tmp_path))


@pytest.mark.parametrize("operator", harness.SWEEP_OPERATORS)
def test_sweep_builds_symbols_once_per_level(operator, monkeypatch,
                                             tmp_path):
    # no symbol depends on the draw, so the Weyl rows behind the symbols
    # are computed per level: their count must not grow with the batch
    calls = []
    weyl_row = arithmetic.weyl_row

    def counted(Q, A):
        calls.append((Q, A))
        return weyl_row(Q, A)

    monkeypatch.setattr(arithmetic, "weyl_row", counted)
    # the lambda sup keeps the MIN_MODULUS floor, and seqspace reads no M
    M = {"vr-sd": "M = %d\n" % multipliers.MIN_MODULUS,
         "maximal-arc": "M = 240\n"}.get(operator, "")
    counts = []
    for batch in (30, 60):
        calls.clear()
        cfg = parse_config("kind = sweep\noperator = %s\ns_max = 2\n"
                           "batch = %d\n%s" % (operator, batch, M))
        harness.run(cfg, out_dir=str(tmp_path), seed=1)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_cli_names_domain_and_io_errors(tmp_path, monkeypatch, capsys):
    def coarse(cfg, seed, jobs):
        raise GridTooCoarseError("frequency 1/7 snaps off the grid")

    monkeypatch.setitem(harness._RUNNERS, "weyl", coarse)
    assert cli.main(["weyl", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "domain error: frequency 1/7 snaps off the grid\n"
    rc = cli.main(["variation", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("I/O error:")


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 8.00 GiB", "Unable to allocate 8.00 GiB"),
    ("", "out of memory")])
def test_cli_names_memory_errors(message, line, tmp_path, monkeypatch,
                                 capsys):
    def greedy(cfg, seed, jobs):
        raise MemoryError(message)

    monkeypatch.setitem(harness._RUNNERS, "weyl", greedy)
    assert cli.main(["weyl", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "resource error: %s\n" % line


def test_failed_run_leaves_no_result_files(tmp_path, monkeypatch, capsys):
    # the first scan succeeds and the second raises: no table of the first
    # reaches --out
    scans, ww_scan = [], systems.ww_scan

    def once(*args, **kwargs):
        if scans:
            raise DomainError("no second scan")
        scans.append(1)
        return ww_scan(*args, **kwargs)

    monkeypatch.setattr(systems, "ww_scan", once)
    assert cli.main(["converge", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "domain error: no second scan\n"
    assert scans == [1] and os.listdir(tmp_path) == []


def test_unplaceable_result_file_leaves_no_file_of_the_run(tmp_path,
                                                           capsys):
    # the vr-s table cannot replace a directory: the vr-sd tables placed
    # before it are taken back, an earlier run's table among them gets its
    # bytes back, and no staged file is left
    out = tmp_path / "out"
    (out / "sweep_vr_s.json").mkdir(parents=True)
    (out / "sweep_vr_sd.csv").write_bytes(b"earlier run\n")
    assert cli.main(["sweep", "--set", "operator=vr-sd", "--set", "s_max=1",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("I/O error:")
    assert sorted(os.listdir(out)) == ["sweep_vr_s.json", "sweep_vr_sd.csv"]
    assert (out / "sweep_vr_sd.csv").read_bytes() == b"earlier run\n"
    assert os.listdir(out / "sweep_vr_s.json") == []


def test_failed_write_keeps_the_earlier_run_files(tmp_path, monkeypatch,
                                                  capsys):
    # the second write fails: the first file of the run is not placed, and
    # the earlier run's files keep their bytes
    def runner(cfg, seed, jobs):
        return {"weyl.json": {"ok": True},
                "weyl_decay.csv": (("Q",), [(1,)])}

    def full(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setitem(harness._RUNNERS, "weyl", runner)
    monkeypatch.setattr(harness, "write_csv", full)
    earlier = {"weyl.json": b"earlier run\n", "other.txt": b"kept\n"}
    for name, data in earlier.items():
        (tmp_path / name).write_bytes(data)
    assert cli.main(["weyl", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("I/O error:")
    assert {n: (tmp_path / n).read_bytes()
            for n in os.listdir(tmp_path)} == earlier


def _calls_by_function(tree):
    """(enclosing function name or None, dotted callee name) per call."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call):
            parts, f = [], node.func
            while isinstance(f, ast.Attribute):
                parts.append(f.attr)
                f = f.value
            if isinstance(f, ast.Name):
                found.append((fn, ".".join([f.id] + parts[::-1])))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return found


def test_run_is_the_one_writer_of_result_files():
    package = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                           "modvar")
    writers = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read())
            writers += [(name, fn, callee)
                        for fn, callee in _calls_by_function(tree)
                        if callee.split(".")[-1] == "write_csv"
                        or callee == "json.dump"]
    assert sorted(writers) == [("harness.py", "run", "json.dump"),
                               ("harness.py", "run", "write_csv")]


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
    # the r-growth envelope cap r/(r-2) divides by zero at r = 2
    ("carleson", "r_low=2", "modvar.harness.stream"),
    ("carleson", "r_high=2", "modvar.harness.stream"),
    ("sweep", "operator=maximal-arc M=-5", "modvar.harness.SmoothBump"),
    ("sweep", "operator=maximal-arc M=0", "modvar.harness.SmoothBump"),
    # the arc-centre table is written by the vr-sd run
    ("sweep", "operator=vr-s", "modvar.harness.SmoothBump"),
    # the lambda sup's MIN_MODULUS floor, refused before any level build
    ("sweep", "operator=vr-sd M=240",
     "modvar.multipliers.build_arc_multiplier"),
    ("bump-check", "samples=0", "modvar.harness.SmoothBump"),
    ("chaining", "max_times=1", "modvar.harness.stream"),
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
    # every r-th power underflows, and size_stability would divide by zero
    ("carleson", "r=1e308", "modvar.harness.stream"),
    # every theta of the carleson grid must be a frequency of each length
    ("carleson", "sizes=1024,4096,16384,1000", "modvar.harness.SmoothBump"),
    # a length below 64 has one truncation, so every variation is 0
    ("carleson", "sizes=32", "modvar.harness.stream"),
    # a scale list is strictly increasing and starts at the kernel floor
    ("multiplier", "J_list=5,3", "modvar.harness.SmoothBump"),
    ("multiplier", "J_list=1", "modvar.harness.SmoothBump"),
    ("sweep", "operator=vr-sd J_list=5,3", "modvar.harness.SmoothBump"),
    ("sweep", "operator=vr-sd J_list=1", "modvar.harness.SmoothBump"),
    # a variation across one scale is identically 0
    ("multiplier", "J_list=9", "modvar.harness.SmoothBump"),
    ("sweep", "operator=vr-sd J_list=9", "modvar.harness.SmoothBump"),
    # every arc frequency B/Q must snap to the M-grid within its window
    ("sweep", "operator=maximal-arc M=4001", "modvar.harness.SmoothBump"),
    # a sweep key the chosen operator does not read is refused when set,
    # even at its default value
    *[("sweep", "operator=%s %s" % (op, setting),
       "modvar.harness.SmoothBump")
      for op in ("maximal-arc", "seqspace")
      for setting in ("r=3", "J_list=2,3,5", "lam=1.5", "eps0=0.25")],
    ("sweep", "operator=maximal-arc s_max=1 J_list=9 r=50",
     "modvar.harness.SmoothBump"),
    ("sweep", "operator=seqspace M=6720", "modvar.harness.SmoothBump"),
    # a key that left the schema for a constant is an unknown key
    ("carleson", "cov_len=7", "modvar.harness.stream"),
    ("carleson", "grid_len=60", "modvar.harness.SmoothBump"),
    ("carleson", "grid_len=32", "modvar.harness.stream"),
    ("chaining", "max_dim=0", "modvar.harness.stream"),
    ("sweep", "operator=vr-sd rho0=0.6", "modvar.harness.SmoothBump"),
    ("sweep", "operator=vr-sd s_max=1 rho0=1e-310",
     "modvar.harness.SmoothBump"),
    ("sweep", "operator=vr-sd rho0=0.01", "modvar.harness.SmoothBump"),
    *[("sweep", "operator=%s rho0=0.125" % op, "modvar.harness.SmoothBump")
      for op in ("maximal-arc", "seqspace")],
    ("sweep", "operator=seqspace seq_base=10", "modvar.harness.SmoothBump"),
    ("sweep", "operator=seqspace seq_base=0", "modvar.harness.SmoothBump"),
    ("sweep", "operator=vr-sd seq_base=64", "modvar.harness.SmoothBump"),
    # the multiplier's dense oracle enumerates chains across at most
    # variation.MAX_BRUTE_LENGTH scales
    ("multiplier", "J_list=" + ",".join(map(str, range(
        harness._J_FLOOR, harness._J_FLOOR + variation.MAX_BRUTE_LENGTH + 1))),
     "modvar.harness.SmoothBump"),
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


def test_theta_sup_variation_refuses_an_empty_theta_grid():
    # theta_count 0 once raised ZeroDivisionError from L % 0
    what = harness.theta_symbols(SmoothBump(0.25), 64)
    for count in (0, -4):
        with pytest.raises(DomainError, match="must be positive"):
            harness.theta_sup_variation(np.ones(64, dtype=complex), what,
                                        count, 3.0)


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


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_theta_sup_variation_matches_direct_sums(data):
    # carleson's theta sup against direct sums over n, the exhaustive
    # r-variation per x and the max over theta; the lacunary truncations
    # 8, 16, ... up to L/4 are listed here, not taken from the harness
    L = data.draw(st.sampled_from((64, 128, 256)))
    theta_count = data.draw(st.sampled_from(
        [t for t in (1, 2, 4, 8, 16) if L % t == 0]))
    r = data.draw(st.floats(1.0, 8.0, exclude_min=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    f = rng.normal(size=L) + 1j * rng.normal(size=L)
    bump = SmoothBump(0.25)
    weights = [scaled_weight(bump, M) for M in (8, 16, 32, 64) if M <= L // 4]
    what = harness.theta_symbols(bump, L)
    want = oracles.theta_sup_variation_sums(f, weights, theta_count, r)
    got = harness.theta_sup_variation(f, what, theta_count, r)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    # the grid j/theta_count is closed under theta -> -theta, so the sup
    # cannot see the sign of theta; theta = 1/theta_count alone can
    if theta_count > 2:
        one = multipliers.vr_sup(
            [multipliers.ShiftedStack(what, L // theta_count)], f, r)
        want = oracles.theta_sup_variation_sums(f, weights, theta_count, r,
                                                js=[1])
        np.testing.assert_allclose(one, want, rtol=1e-12, atol=0)


def test_variation_operators_pass_vr_batch_every_row(monkeypatch, tmp_path):
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
    harness.run(cfg, out_dir=str(tmp_path), seed=5)
    n_stacks = len(multipliers.lambda_grid_for(1, 2))
    assert shapes == ([(len(cfg.get("J_list")), cfg.get("M"))]
                      * n_stacks * cfg.get("batch"))


# the keys with no bound in SCHEMAS, each with the reason it has none
_UNBOUNDED = {
    ("sweep", "operator"): "_check_cross refuses a name outside "
                           "SWEEP_OPERATORS",
}


def _just_outside(parser, default, lo, hi):
    """One raw value per bound of a key, each just outside that bound; a
    list gets its default entries plus one bad entry."""
    exact = parser is harness._parse_int
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
    def runner(cfg, seed, jobs):
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


def _child_env(**extra):
    """The environment of a fresh interpreter that imports this modvar."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, **extra)
    env.pop("MODVAR_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_cli_runs_without_importing_scipy(tmp_path):
    # a fresh interpreter: the test process itself may have loaded scipy
    done = subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUN,
                           str(tmp_path)], env=_child_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert sorted(os.listdir(tmp_path)) == [
        "bump_check.json", "bump_profile.csv", "carleson.csv",
        "carleson.json"]


_DISPATCH_RUN = r"""
import hashlib, json, os, sys
import numpy as np
from modvar import cli
from modvar.variation import _gaps
out, runs = sys.argv[1], json.loads(sys.argv[2])
rng = np.random.default_rng(11)
gaps = hashlib.sha256()
for dim in (1, 3):
    vals = rng.normal(size=(300, dim)) + 1j * rng.normal(size=(300, dim))
    vals[:30] *= 1e-155     # tiny gaps: squares in the subnormal range
    gaps.update(_gaps(vals).tobytes())
files = []
for k, argv in enumerate(runs):
    d = os.path.join(out, str(k))
    assert cli.main(argv + ["--out", d]) == 0, argv
    files.append({n: hashlib.sha256(open(os.path.join(d, n), "rb").read())
                  .hexdigest() for n in sorted(os.listdir(d))})
print(json.dumps({"gaps": gaps.hexdigest(), "files": files}))
"""

# numpy's SIMD dispatch levels, lowered only in the children, each with the
# pin floors its child checks; on a host without AVX-512 numpy warns that
# it cannot disable what it lacks, and runs at the level the host has
_DISPATCH_LEVELS = {
    "native": (None, ("X86_V2",)),
    "AVX-512 off": ("X86_V4 AVX512_ICL AVX512_SPR", ("X86_V2", "X86_V3")),
    "X86_V2": ("X86_V3 X86_V4 AVX512_ICL AVX512_SPR", ("X86_V2",)),
}


def test_gaps_and_pins_hold_at_every_dispatch_level(tmp_path):
    # the gap kernel takes correctly rounded steps only, so its bytes and
    # the pins of floor X86_V2 (the variation pin among them) do not depend
    # on the dispatch; with AVX-512 off numpy dispatches at X86_V3, where
    # the pins of that floor hold too (natively
    # test_chaining_and_converge_bytes_pinned checks them all)
    gaps = {}
    for level, (disabled, floors) in _DISPATCH_LEVELS.items():
        pinned = [run[:2] for run in _PINNED_RUNS if run[2] in floors]
        env = _child_env()
        env.pop("NPY_ENABLE_CPU_FEATURES", None)
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        done = subprocess.run(
            [sys.executable, "-c", _DISPATCH_RUN, str(tmp_path / level),
             json.dumps([argv for argv, _ in pinned])],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        got = json.loads(done.stdout.splitlines()[-1])
        gaps[level] = got["gaps"]
        for (argv, digests), files in zip(pinned, got["files"]):
            for name, want in digests.items():
                assert files[name] == want, (level, argv, name)
    assert len(set(gaps.values())) == 1, gaps


def test_carleson_bytes_do_not_depend_on_blas_threads(tmp_path):
    # np.linalg.norm of a 1-d array longer than 10,000 entries runs BLAS
    # dot, which splits its sum across the BLAS threads; the ratios of a
    # 10,240-point size are taken with signalkit.l2, so one BLAS thread and
    # two give the same bytes
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        done = subprocess.run(
            [sys.executable, "-m", "modvar.cli", "carleson", "--set",
             "sizes=10240", "--set", "theta_count=2", "--set", "n_cov=1",
             "--seed", "5", "--out", str(out)],
            env=_child_env(OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outs.append({n: (out / n).read_bytes()
                     for n in sorted(os.listdir(out))})
    assert sorted(outs[0]) == ["carleson.csv", "carleson.json"]
    assert outs[0] == outs[1]
