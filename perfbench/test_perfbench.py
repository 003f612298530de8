"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run reduced configs, except for converge, which has none.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins the BLAS thread count before numpy loads)

sys.path.insert(0, str(run.SRC))

import tracer  # noqa: E402
import modvar  # noqa: E402
from modvar import cli  # noqa: E402

EXPERIMENTS = {e.name: e for w in run.WORKLOADS.values() for e in w}
CARLESON = EXPERIMENTS["carleson"]
VARIATION_DP = [EXPERIMENTS["variation"], EXPERIMENTS["chaining"]]
PER_LAYER = [m["name"] for m in json.loads(
    (run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    if not m["name"].startswith("trace.")]


def traced_pass(experiments, workdir, seed):
    bench = run.Bench(cli, workdir, seed)
    with tracer.Tracer() as tr:
        for e in experiments:       # reduced configs where there are any
            bench.run_pass([e], reduced=e.reduced is not None)
        result = tr.drain()
    assert bench.failed == 0
    return result


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_work_counters_repeat_exactly(workload, tmp_path):
    experiments = run.WORKLOADS[workload]
    first = traced_pass(experiments, tmp_path / "a", seed=5)
    second = traced_pass(experiments, tmp_path / "b", seed=5)
    assert tracer.work_counts(first)["calls"]
    assert tracer.work_counts(first) == tracer.work_counts(second)


def test_counters_come_from_arguments(tmp_path):
    p = traced_pass([EXPERIMENTS["converge"]], tmp_path, seed=5)
    m = tracer.layer_metrics(p, PER_LAYER)
    names = [p.names[i] for i in p.nid]
    # converge scans 50 phases over n_top + 1 = 100001 points, plus the
    # orbit averages of the rotation and skew scenarios
    assert m["polykit.phase_range.points"] >= 50 * 100001
    assert m["polykit.phase_range.calls"] == names.count(
        "polykit.phase_range")
    assert m["systems.orbit_array.points"] > 0


def test_carleson_jobs_do_not_change_bytes(tmp_path):
    digests = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        argv = (["carleson", "--jobs", jobs, "--seed", "11", "--out",
                 str(out)] + list(CARLESON.reduced))
        assert cli.main(argv) == 0
        digests.append(run.tree_digest(out))
    assert digests[0] == digests[1]


def test_pool_tasks_nest_under_the_submitting_span(tmp_path):
    p = traced_pass([CARLESON], tmp_path, seed=11)
    names = [p.names[i] for i in p.nid]
    by_id = dict(zip(p.sid.tolist(), names))
    tasks = [i for i, n in enumerate(names) if n == tracer.POOL_TASK]
    assert tasks
    assert {by_id[int(p.parent[i])] for i in tasks} == {"harness.run"}
    task_ids = {int(p.sid[i]) for i in tasks}
    in_tasks = [n for n, parent in zip(names, p.parent.tolist())
                if parent in task_ids]
    assert {"harness.theta_sup_variation", "util.stream"} <= set(in_tasks)
    m = tracer.layer_metrics(p, PER_LAYER)
    assert 0.0 < m["harness.pool.busy_frac"] <= 1.0
    assert m["harness.pool.wait_s"] > 0.0


def test_self_times_partition_a_serial_pass(tmp_path):
    p = traced_pass(VARIATION_DP, tmp_path, seed=5)
    selfs = p.self_times()
    top = p.parent == 0
    assert selfs.min() >= 0.0
    assert selfs.sum() == pytest.approx((p.t1 - p.t0)[top].sum(), rel=1e-9)


def test_uninstall_restores_every_binding():
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name.startswith("modvar")}
    call = modvar.bumpkit.ChiCutoff.__call__
    with tracer.Tracer():
        assert modvar.util.e is not before["modvar.util"]["e"]
        assert modvar.bumpkit.torus_dist is not before[
            "modvar.bumpkit"]["torus_dist"]
    for name, saved in before.items():
        assert dict(vars(sys.modules[name])) == saved
    assert modvar.bumpkit.ChiCutoff.__call__ is call


def test_gate_counts_a_failed_check(tmp_path):
    # fit_qmax=12 is too short for the weyl decay fit, which exits 2
    weyl = run.Experiment("weyl", ("weyl",),
                          ("--set", "gauss_qmax=9", "--set", "bound_qmax=10",
                           "--set", "fit_qmax=12"))
    bench = run.Bench(cli, tmp_path, seed=1)
    bench.run_pass([weyl], reduced=True)
    assert (bench.attempted, bench.failed) == (1, 1)


def test_unknown_per_layer_metric_is_refused(tmp_path):
    p = traced_pass(VARIATION_DP, tmp_path, seed=5)
    for name in ("variation.vr_exactt.self_s", "variation.vr_exact.points"):
        with pytest.raises(KeyError):
            tracer.layer_metrics(p, [name])


def test_failed_oks_finds_nested_false():
    summary = {"ok": True, "fit": {"ok": False}, "rows": [{"ok": 1}]}
    assert run.failed_oks(summary) == ["/fit/ok", "/rows[0]/ok"]


def test_summarize_reports_a_percentile_with_ten_above():
    s = run.summarize(range(1, 21))
    assert (s["median"], s["n"], s["p50"]) == (10.5, 20, 10)
    assert set(run.summarize(range(10))) == {"median", "n"}


def test_reference_speed_scales_by_the_calibration_around_a_run():
    ref = run.CAL_REF_S
    assert run.at_reference_speed(2.0, ref, ref) == 2.0
    # a machine at half speed: calibrate() took twice as long
    assert run.at_reference_speed(4.0, 1.5 * ref, 2.5 * ref) == 2.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "time-side",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
