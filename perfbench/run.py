"""modvar benchmark: experiment workloads driven through ``modvar.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload is a closed loop: one process
runs its experiments one after another, each at the config ``WORKLOADS``
gives it and with ``--seed N``, and starts the next pass only after the
previous one ended.

A run first measures ``setup_s`` in fresh interpreters, then warms up on
reduced configs (each run twice, so repeats are checked byte for byte at
every seed), then makes timed passes for about ``--seconds`` seconds.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json:
``pass_best_s`` sums each experiment's fastest run, because on a shared
virtual machine slow spells last from seconds to minutes and move a median.
With ``--trace 1`` it makes untraced passes for half the time and traced
passes for the rest, and reports the per-layer metrics.

Every experiment run is checked: exit code 0, every ``ok`` in its JSON
summaries true, and ``--out`` bytes equal to those of every earlier repeat
in the run.  Human-readable report lines come first; the last line of
standard output is one JSON object.  The exit code is 1 when any run
failed and 2 when the run could not start.
"""

import os

# one BLAS thread per process: carleson already runs two pool threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MODVAR_JOBS", None)    # it would override each run's --jobs

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
# Reference speed: the speed at which calibrate() takes CAL_REF_S seconds,
# about its median on the hardware named in README.md.  pass_ref_s is
# reported at reference speed: each timed run is scaled by CAL_REF_S over
# the mean of the calibrate() times just before and after it, which cancels
# most of the host's slow spells (see README.md).
CAL_REF_S = 0.25

# fresh interpreter: import the CLI, build its parser, parse a default config
SETUP_CODE = """\
import contextlib, io
from modvar import cli, harness
try:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["--help"])
except SystemExit:
    pass
harness.default_config("converge")
"""


class Experiment(NamedTuple):
    name: str
    argv: tuple             # the timed run: kind, flags, config overrides
    reduced: tuple = None   # warm-up overrides; None: no cheaper config


# Timed runs use the default config, except that variation, chaining and
# carleson run a fraction of their default instances or theta grid (2-3 s
# rather than 6-10 s): each is timed several times in a run, and the
# calibrate() calls around a run see the host's speed during most of it.
WORKLOADS = {
    # converge's time grid is fixed at 2^7..2^16, so no config makes it
    # cheaper; its repeats are checked across this workload's passes
    "time-side": (
        Experiment("converge", ("converge",)),
        Experiment("carleson",
                   ("carleson", "--jobs", "2", "--set", "theta_count=8"),
                   ("--set", "n_cov=10", "--set", "sizes=1024")),
        Experiment("variation",
                   ("variation", "--set", "n_oracle=300",
                    "--set", "n_jump=3000"),
                   ("--set", "n_oracle=20", "--set", "n_jump=200")),
        Experiment("chaining", ("chaining", "--set", "n_inst=300"),
                   ("--set", "n_inst=20")),
    ),
    "frequency-side": (
        Experiment("sweep-maximal-arc",
                   ("sweep", "--set", "operator=maximal-arc"),
                   ("--set", "s_max=1")),
        Experiment("sweep-vr-sd", ("sweep", "--set", "operator=vr-sd"),
                   ("--set", "s_max=1")),
        Experiment("weyl", ("weyl",),
                   ("--set", "gauss_qmax=9", "--set", "bound_qmax=10",
                    "--set", "fit_qmax=24")),
    ),
}


def jobs_of(exp):
    argv = list(exp.argv)
    return int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1


def summarize(values):
    """Median, sample count and the highest percentile with >= 10 above."""
    vals = sorted(values)
    out = {"median": statistics.median(vals), "n": len(vals)}
    if len(vals) >= 11:
        k = len(vals) - 11
        out["p%d" % (100 * (k + 1) // len(vals))] = vals[k]
    return out


def tree_digest(path):
    """SHA-256 over the relative paths and bytes of every file under path."""
    h = hashlib.sha256()
    for f in sorted(p for p in Path(path).rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def failed_oks(node, where=""):
    """Paths of every "ok" key in a JSON value that is not true."""
    bad = []
    if isinstance(node, dict):
        for key, val in node.items():
            if key == "ok" and val is not True:
                bad.append(where + "/ok")
            bad.extend(failed_oks(val, where + "/" + key))
    elif isinstance(node, list):
        for i, val in enumerate(node):
            bad.extend(failed_oks(val, "%s[%d]" % (where, i)))
    return bad


def read_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    """One benchmark run: executes and checks experiment runs."""

    def __init__(self, cli, workdir, seed):
        self.cli = cli
        self.workdir = workdir
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.digests = {}          # (experiment, config) -> first digest
        self.run_s = {}            # experiment -> timed-run seconds
        self.ref_s = {}            # the same at reference speed
        self.cal_s = []            # calibrate() times between timed runs
        self._count = 0

    def run_pass(self, experiments, reduced=False):
        """Run each experiment once; returns the pass wall time in seconds.

        Outputs are checked after the pass, so checking is not timed.
        """
        done = []
        start = time.perf_counter()
        for exp in experiments:
            self._count += 1
            out = self.workdir / ("%s-%d" % (exp.name, self._count))
            argv = (list(exp.argv) + list(exp.reduced if reduced else ())
                    + ["--seed", str(self.seed), "--out", str(out)])
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = self.cli.main(argv)
            except SystemExit as ex:       # argparse rejected the argv
                rc = ex.code
            except Exception:
                traceback.print_exc()
                rc = None
            done.append((exp, rc, time.perf_counter() - t0, out))
        wall = time.perf_counter() - start
        for exp, rc, seconds, out in done:
            self.attempted += 1
            if not reduced:
                self.run_s.setdefault(exp.name, []).append(seconds)
            problem = self._check(exp, rc, out, reduced)
            if problem:
                self.failed += 1
                print("# FAILED %s: %s" % (exp.name, problem), flush=True)
            shutil.rmtree(out, ignore_errors=True)
        return wall

    def _check(self, exp, rc, out, reduced):
        if rc != 0:
            return "exit code %r" % (rc,)
        for f in sorted(Path(out).rglob("*.json")):
            bad = failed_oks(json.loads(f.read_text()))
            if bad:
                return "%s: not ok at %s" % (f.name, ", ".join(bad))
        digest = tree_digest(out)
        key = (exp.name, "reduced" if reduced else "timed")
        first = self.digests.setdefault(key, digest)
        if digest != first:
            return "--out bytes differ from an earlier repeat"
        return None

    def runs(self, experiments, seconds, start):
        """Closed loop of timed runs, in pass order, for `seconds`.

        A run starts only while the slowest earlier run of its experiment
        still fits before the deadline, so the loop ends within `seconds`
        once one whole pass is done.  Returns the complete passes' wall
        times.
        """
        walls = []
        self.cal_s.append(calibrate())
        while True:
            wall = 0.0
            for exp in experiments:
                left = seconds - (time.perf_counter() - start)
                if walls and max(self.run_s[exp.name]) > left:
                    return walls
                wall += self.run_pass([exp])
                self.cal_s.append(calibrate())
                self.ref_s.setdefault(exp.name, []).append(at_reference_speed(
                    self.run_s[exp.name][-1], *self.cal_s[-2:]))
            walls.append(wall)

    def passes(self, experiments, seconds, start):
        """Closed loop of timed passes until `seconds` have passed.

        Whole passes only: the last one may end after the deadline.
        """
        walls = []
        while not walls or time.perf_counter() - start < seconds:
            walls.append(self.run_pass(experiments))
        return walls


def calibrate():
    """Seconds taken by a fixed piece of work that does not use modvar.

    Big-integer, float, list and dict steps in a Python loop, with small
    numpy calls and a 4096-point FFT among them: the kinds of work modvar
    does, in a mix that stays the same when modvar changes.
    """
    import numpy as np
    mask = (1 << 120) - 1
    regs = [0x123456789ABCDEF0123456789ABCDEF, 0xFEDCBA9876543210FEDCBA98765,
            0x5555555555555555555]
    acc, table, xs = 0.0, {}, [0.0] * 64
    a = np.linspace(0.0, 1.0, 256)
    z = np.exp(2j * np.pi * np.arange(4096) / 4096.0)
    t0 = time.perf_counter()
    for i in range(120000):
        regs[0] = (regs[0] + regs[1]) & mask
        regs[1] = (regs[1] + regs[2]) & mask
        acc += xs[i & 63] * 0.5 + i
        xs[i & 63] = acc * 1e-9
        table[i & 1023] = acc
        if i % 64 == 0:
            a = np.abs(np.sin(a + 0.1))
            z = np.fft.fft(z) / 64.0
    return time.perf_counter() - t0


def at_reference_speed(seconds, cal_before, cal_after):
    return seconds * 2.0 * CAL_REF_S / (cal_before + cal_after)


def measure_setup(repeats):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                       cwd=ROOT, check=True, timeout=170,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def provenance(workload, seed):
    import modvar
    import numpy
    import scipy
    return {
        "workload": workload, "seed": seed,
        "jobs": {e.name: jobs_of(e) for e in WORKLOADS[workload]},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "processor": platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "modvar": modvar.__version__, "commit": read_commit(),
    }


def report(name, value, unit, detail=""):
    print("# metric %-40s %14.6g %-6s %s" % (name, value, unit, detail),
          flush=True)


def report_timing(name, samples):
    """Report a timing's median, sample count and percentile; return median."""
    s = summarize(samples)
    detail = ["%s=%.6g" % kv for kv in s.items() if kv[0] != "median"]
    report(name, s["median"], "s", " ".join(
        detail + ["samples=" + ",".join("%.4g" % v for v in samples)]))
    return s["median"]


def run_untraced(bench, experiments, seconds, start):
    report_timing("pass_s", bench.runs(experiments, seconds, start))
    best = sum(min(bench.run_s[e.name]) for e in experiments)
    values = {"pass_ref_s": sum(min(bench.ref_s[e.name])
                                for e in experiments)}
    for e in experiments:
        report_timing("run_s." + e.name, bench.run_s[e.name])
        report_timing("run_ref_s." + e.name, bench.ref_s[e.name])
    report_timing("calibrate_s", bench.cal_s)
    report("pass_best_s", best, "s", "fastest runs, measured seconds")
    report("pass_ref_s", values["pass_ref_s"], "s",
           "fastest runs, reference-speed seconds")
    values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    report("peak_rss_mb", values["peak_rss_mb"], "MB")
    return values


def run_traced(bench, experiments, seconds, start, trace_path, meta, wanted):
    import tracer
    untraced = bench.passes(experiments, seconds / 2.0, start)
    passes, bounds, walls = [], [], []
    with tracer.Tracer() as tr:
        while True:
            t0 = time.perf_counter()
            walls.append(bench.run_pass(experiments))
            bounds.append((t0, t0 + walls[-1]))
            passes.append(tr.drain())
            if time.perf_counter() - start >= seconds:
                break
    tracer.save(trace_path, passes, bounds, json.dumps(meta))
    first = tracer.work_counts(passes[0])
    for p in passes[1:]:
        if tracer.work_counts(p) != first:
            bench.failed += len(experiments)
            print("# FAILED work counters differ between traced repeats",
                  flush=True)
    layer = [n for n in wanted if not n.startswith("trace.")]
    per_pass = [tracer.layer_metrics(p, layer) for p in passes]
    values = {k: statistics.median(m[k] for m in per_pass) for k in layer}
    values["trace.coverage"] = min(p.coverage(a, b)
                                   for p, (a, b) in zip(passes, bounds))
    values["trace.overhead_frac"] = (statistics.median(walls)
                                     / statistics.median(untraced) - 1.0)
    report_timing("pass_s.untraced", untraced)
    report_timing("pass_s.traced", walls)
    print("# spans written to %s" % trace_path.relative_to(ROOT), flush=True)
    return values


def run_all(args):
    """Run every workload in its own process; nonzero if any failed."""
    worst = 0
    for name in WORKLOADS:
        rc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT).returncode
        worst = max(worst, rc)
    return worst


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "modvar" / "__init__.py").is_file():
        print("perfbench: no modvar sources at %s; run from a checkout of "
              "the repository" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    from modvar import cli

    experiments = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = provenance(args.workload, args.seed)
    print("# perfbench workload=%s seed=%d seconds=%d trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# provenance " + json.dumps(meta, sort_keys=True), flush=True)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK))
    bench = Bench(cli, workdir, args.seed)
    try:
        values = {}
        if not args.trace:
            values["setup_s"] = report_timing(
                "setup_s", measure_setup(SETUP_REPEATS))
        for _ in range(2):
            bench.run_pass([e for e in experiments if e.reduced],
                           reduced=True)
        start = time.perf_counter()
        if args.trace:
            trace_path = WORK / ("trace-%s.npz" % args.workload)
            wanted = spec["per_layer"]
            values.update(run_traced(bench, experiments, args.seconds,
                                     start, trace_path, meta,
                                     [m["name"] for m in wanted]))
        else:
            values.update(run_untraced(bench, experiments, args.seconds,
                                       start))
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for (name, config), digest in sorted(bench.digests.items()):
        if config == "timed":
            print("# sha256 %s seed=%d %s" % (name, args.seed, digest))
    report("failed_frac", bench.failed / bench.attempted, "ratio",
           "failed=%d attempted=%d" % (bench.failed, bench.attempted))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    if args.trace:
        for name, m in metrics.items():
            report(name, m["value"], m["unit"])
    correct = bench.failed == 0
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
