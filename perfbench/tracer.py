"""Outside-in tracer for the traced benchmark run.

The tracer changes no file of the package.  It rebinds every public
function and public method of the modvar layers to a wrapper that records a
span (name, span id, parent span id, start, end) and, for a few calls, work
counters taken only from the call's arguments and return value.  A function
is rebound in every ``modvar.*`` namespace that holds it, because modules
import each other's names with ``from ... import``.  The thread pool class
that the harness uses is rebound too, so pool tasks become spans whose
parent is the span that submitted them.

Span stacks, span buffers and counters are thread-local, so nothing is
shared between threads while a pass runs.  ``drain`` collects them between
passes, when no traced call is running.
"""

import functools
import inspect
import itertools
import sys
import threading
import time
import zlib
from array import array
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYERS = ("util", "bumpkit", "polykit", "signalkit", "arithmetic",
          "variation", "averaging", "systems", "multipliers", "harness",
          "cli")

POOL_TASK = "harness.pool_task"

# span-name groups reported under one metric name
ALIASES = {
    "bumpkit.chi": ("bumpkit.ChiCutoff.__call__",),
    "systems.orbit_array": ("systems.ZShift.orbit_array",
                            "systems.CircleRotation.orbit_array",
                            "systems.SkewProduct.orbit_array"),
    "variation.cover": ("variation.build_chaining_cover",
                        "variation.verify_cover",
                        "variation.chaining_telescope_check"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _window_key(chi, beta):
    arr = np.ascontiguousarray(beta)
    return (chi.s, chi.a0, arr.shape, arr.dtype.str, zlib.crc32(arr))


# span name -> counter(counts, distinct, args, kwargs, result); every count
# is a function of the call's arguments and return value only
def _count_phase(counts, distinct, args, kwargs, result):
    counts["polykit.phase_range.points"] += int(_arg(args, kwargs, 2, "N"))


def _count_orbit(counts, distinct, args, kwargs, result):
    counts["systems.orbit_array.points"] += int(_arg(args, kwargs, 3, "N"))


def _count_weyl(counts, distinct, args, kwargs, result):
    Q = int(_arg(args, kwargs, 0, "Q"))
    A = tuple(int(a) for a in _arg(args, kwargs, 1, "A"))
    counts["arithmetic.weyl_row.points"] += Q
    distinct["arithmetic.weyl_row"].add((Q, A))


def _count_chi(counts, distinct, args, kwargs, result):
    distinct["bumpkit.chi"].add(_window_key(args[0],
                                            _arg(args, kwargs, 1, "beta")))


def _count_gate(counts, distinct, args, kwargs, result):
    counts["multipliers.kernel_gate.passed"] += 1 if result else 0


def _count_vr_batch(counts, distinct, args, kwargs, result):
    shape = np.shape(_arg(args, kwargs, 0, "values"))
    n, cols = shape[0], shape[1]
    counts["variation.vr_batch.cells"] += n * (n - 1) // 2 * cols


def _count_vr_exact(counts, distinct, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "seq"))
    counts["variation.vr_exact.cells"] += n * (n - 1) // 2


def _count_cover(counts, distinct, args, kwargs, result):
    counts["variation.cover.levels"] += len(result.levels)


COUNTERS = {
    "polykit.phase_range": _count_phase,
    "systems.ZShift.orbit_array": _count_orbit,
    "systems.CircleRotation.orbit_array": _count_orbit,
    "systems.SkewProduct.orbit_array": _count_orbit,
    "arithmetic.weyl_row": _count_weyl,
    "bumpkit.ChiCutoff.__call__": _count_chi,
    "multipliers.kernel_gate": _count_gate,
    "variation.vr_batch": _count_vr_batch,
    "variation.vr_exact": _count_vr_exact,
    "variation.build_chaining_cover": _count_cover,
}


# counter names the functions above add to
COUNTED = ("polykit.phase_range.points", "systems.orbit_array.points",
           "arithmetic.weyl_row.points", "variation.vr_batch.cells",
           "variation.vr_exact.cells", "variation.cover.levels")


class _Buffer:
    """One thread's open-span stack, finished spans and counters."""

    def __init__(self):
        self.stack = []
        self.nid = array("i")
        self.sid = array("q")
        self.parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts = Counter()
        self.distinct = {"arithmetic.weyl_row": set(), "bumpkit.chi": set()}
        self.times = Counter()

    def record(self, nid, sid, parent, t0, t1):
        self.nid.append(nid)
        self.sid.append(sid)
        self.parent.append(parent)
        self.t0.append(t0)
        self.t1.append(t1)


class Pass:
    """The spans and counters of one drained pass."""

    def __init__(self, names, nid, sid, parent, t0, t1, counts, distinct,
                 times, pools):
        self.names = names
        self.nid, self.sid, self.parent = nid, sid, parent
        self.t0, self.t1 = t0, t1
        self.counts = counts          # exact work counts, by name
        self.distinct = distinct      # name -> number of distinct keys
        self.times = times            # pool timings in seconds
        self.pools = pools            # (max_workers, lifetime_s) per pool

    def self_times(self):
        """Per-span duration minus the part of it that its children cover.

        Children in the span's own thread run one after another, so their
        durations add up.  Pool tasks run in other threads and overlap, so a
        parent with pool-task children gets the union of its children's
        intervals instead.
        """
        dur = self.t1 - self.t0
        order = np.argsort(self.sid)
        pos = np.minimum(np.searchsorted(self.sid[order], self.parent),
                         len(order) - 1)
        prow = np.where(self.sid[order][pos] == self.parent, order[pos], -1)
        cover = np.zeros(len(dur))
        has_parent = prow >= 0
        np.add.at(cover, prow[has_parent], dur[has_parent])
        task = self.names.index(POOL_TASK) if POOL_TASK in self.names else -1
        for p in set(prow[(self.nid == task) & has_parent].tolist()):
            kids = np.flatnonzero(prow == p)
            cover[p] = _union_length(self.t0[kids], self.t1[kids])
        return np.maximum(dur - cover, 0.0)

    def coverage(self, start, end):
        """Share of [start, end] that top-level spans cover."""
        top = self.parent == 0
        lo = np.clip(self.t0[top], start, end)
        hi = np.clip(self.t1[top], start, end)
        return _union_length(lo, hi) / (end - start)


def _union_length(lo, hi):
    total, reach = 0.0, -np.inf
    for a, b in sorted(zip(lo.tolist(), hi.tolist())):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


class Tracer:
    """Wraps the public calls of the modvar layers; a context manager."""

    def __init__(self):
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)     # 0 means "no parent"
        self._names = []
        self._patches = []
        self._pools = []

    # -- recording ---------------------------------------------------------

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name):
        self._names.append(name)
        return len(self._names) - 1

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        counter = COUNTERS.get(name)
        ids = self._ids
        buffer = self._buffer
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = buffer()
            stack = buf.stack
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.record(nid, sid, parent, t0, t1)
            if counter is not None:
                counter(buf.counts, buf.distinct, args, kwargs, result)
            return result

        return traced

    def _run_task(self, nid, fn, args, kwargs, parent, queued):
        buf = self._buffer()
        sid = next(self._ids)
        buf.stack.append(sid)
        t0 = time.perf_counter()
        c0 = time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            c1 = time.thread_time()
            t1 = time.perf_counter()
            buf.stack.pop()
            buf.record(nid, sid, parent, t0, t1)
            buf.times["pool.busy_cpu_s"] += c1 - c0
            buf.times["pool.wait_s"] += t0 - queued

    def _pool_class(self):
        tracer = self
        nid = self._name_id(POOL_TASK)

        class TracedPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._opened = time.perf_counter()
                self._closed = False

            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._buffer().stack
                parent = stack[-1] if stack else 0
                return super().submit(tracer._run_task, nid, fn, args,
                                      kwargs, parent, time.perf_counter())

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                if not self._closed:
                    self._closed = True
                    with tracer._lock:
                        tracer._pools.append(
                            (self._max_workers,
                             time.perf_counter() - self._opened))

        return TracedPool

    # -- installing --------------------------------------------------------

    def _rebind(self, original, replacement):
        for mod in _modvar_modules():
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, replacement)

    def install(self):
        """Wrap every public function and method of the layers."""
        for layer in LAYERS:
            mod = sys.modules["modvar." + layer]
            for key, obj in list(vars(mod).items()):
                if key.startswith("_") or getattr(
                        obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._rebind(obj, self._wrap(obj, layer + "." + key))
                elif inspect.isclass(obj) and not issubclass(
                        obj, BaseException):
                    self._wrap_class(obj, layer + "." + key)
        self._rebind(ThreadPoolExecutor, self._pool_class())
        return self

    def _wrap_class(self, cls, prefix):
        for key, attr in list(vars(cls).items()):
            if key.startswith("_") and key != "__call__":
                continue
            name = prefix + "." + key
            if inspect.isfunction(attr):
                new = self._wrap(attr, name)
            elif isinstance(attr, (staticmethod, classmethod)):
                new = type(attr)(self._wrap(attr.__func__, name))
            else:
                continue
            self._patches.append((cls, key, attr))
            setattr(cls, key, new)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- collecting --------------------------------------------------------

    def drain(self):
        """Collect and clear every thread's spans and counters as a Pass.

        Call only between passes, when no traced call is running.
        """
        with self._lock:
            buffers = list(self._buffers)
            pools, self._pools = self._pools, []
        counts, times = Counter(), Counter()
        distinct = {}
        for buf in buffers:
            counts.update(buf.counts)
            times.update(buf.times)
            for key, keys in buf.distinct.items():
                distinct.setdefault(key, set()).update(keys)
        result = Pass(
            list(self._names),
            np.concatenate([np.frombuffer(b.nid, dtype=np.int32)
                            for b in buffers]).astype(np.int64),
            np.concatenate([np.frombuffer(b.sid, dtype=np.int64)
                            for b in buffers]),
            np.concatenate([np.frombuffer(b.parent, dtype=np.int64)
                            for b in buffers]),
            np.concatenate([np.frombuffer(b.t0) for b in buffers]),
            np.concatenate([np.frombuffer(b.t1) for b in buffers]),
            dict(counts), {k: len(v) for k, v in distinct.items()},
            dict(times), pools)
        for buf in buffers:
            buf.__init__()
        return result


def _modvar_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "modvar"
                                  or name.startswith("modvar."))]


def layer_metrics(p, wanted):
    """The per-layer metrics named in `wanted`, for one Pass.

    ``X.self_s`` is the self time of layer X, of function X or of an ALIASES
    group; ``X.calls`` its span count; ``X.distinct_ratio`` distinct keys
    per call; other names are argument counters or the special metrics
    below.  An unknown name raises KeyError.
    """
    self_by_name = np.bincount(p.nid, weights=p.self_times(),
                               minlength=len(p.names))
    calls_by_name = np.bincount(p.nid, minlength=len(p.names))

    def spans(prefix):
        group = ALIASES.get(prefix, (prefix,))
        found = [i for i, n in enumerate(p.names)
                 if n in group or n.split(".", 1)[0] == prefix]
        if not found:
            raise KeyError("no traced function for %r" % prefix)
        return found

    def calls(prefix):
        return int(sum(calls_by_name[i] for i in spans(prefix)))

    def ratio(num, den):
        return num / den if den else 0.0

    capacity = sum(w * life for w, life in p.pools)
    special = {
        "multipliers.snap_points": lambda: calls("multipliers.snap_to_grid"),
        "multipliers.kernel_gate.pass_ratio": lambda: ratio(
            p.counts.get("multipliers.kernel_gate.passed", 0),
            calls("multipliers.kernel_gate")),
        "harness.pool.busy_frac": lambda: ratio(
            p.times.get("pool.busy_cpu_s", 0.0), capacity),
        "harness.pool.wait_s": lambda: p.times.get("pool.wait_s", 0.0),
    }
    out = {}
    for name in wanted:
        prefix, _, kind = name.rpartition(".")
        if name in special:
            out[name] = special[name]()
        elif kind == "self_s":
            out[name] = float(sum(self_by_name[i] for i in spans(prefix)))
        elif kind == "calls":
            out[name] = calls(prefix)
        elif kind == "distinct_ratio":
            out[name] = ratio(p.distinct.get(prefix, 0), calls(prefix))
        elif name in COUNTED:
            out[name] = p.counts.get(name, 0)
        else:
            raise KeyError("unknown per-layer metric %r" % name)
    return out


def work_counts(p):
    """The exact work counts of a Pass: call counts and argument counters."""
    calls = Counter(p.names[i] for i in p.nid.tolist())
    return {"calls": dict(calls), "counts": dict(p.counts),
            "distinct": dict(p.distinct)}


def save(path, passes, bounds, meta):
    """Write every span of every traced pass, with pass bounds, to .npz."""
    np.savez(path,
             names=np.array(passes[0].names),
             pass_index=np.concatenate([np.full(len(p.sid), i)
                                        for i, p in enumerate(passes)]),
             name_id=np.concatenate([p.nid for p in passes]),
             span_id=np.concatenate([p.sid for p in passes]),
             parent_id=np.concatenate([p.parent for p in passes]),
             start=np.concatenate([p.t0 for p in passes]),
             end=np.concatenate([p.t1 for p in passes]),
             pass_bounds=np.asarray(bounds, dtype=float),
             meta=np.array(meta))
