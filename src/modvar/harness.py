"""Experiment harness: strict flat configs, named experiments, CSV/JSON output.

Config files are section-free ``key = value`` lines ('#' starts a comment).
Unknown keys are errors, as are missing required keys, so a config fully
pins an experiment.  All randomness flows through counter-based per-draw
streams keyed (seed, draw index); reductions run in fixed index order, so a
thread pool over draws cannot change any reported number.

Exit-code convention (mirrored by the CLI): 0 clean, 1 configuration error,
2 at least one checked property failed.
"""

import contextlib
import json
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import arithmetic, averaging, polykit, systems, variation
from . import multipliers
from .bumpkit import SmoothBump, scaled_weight, make_psi_kernel, make_Psi
from .bumpkit import ChiCutoff, psi_floor_index
from .signalkit import Signal, l2, modulate, modulate_cyclic
from .util import DomainError, GridTooCoarseError, e, stream, write_csv

# chi_s width constant for the decay probes: the default window at s <= 4 is
# nearly the whole circle (radius ~ 0.49), which cannot separate levels at
# desk scale.  Shrinking only the window (never the kernel floor) puts the
# radius near 2^(-0.8 s) where the level structure is visible.
PROBE_CHI_A0 = 0.125
VR_SD_RADIUS = 0.125    # the vr-sd sweep's level-1 window radius
GRID_LEN = 64           # the length of carleson's grid-invariance signal


def _chi_a0_for_radius(radius, s):
    """The chi_a0 of the level-s window of this radius, 0 < radius < 0.5."""
    return s / (10.0 * math.log2(math.log2(1.0 / radius)))


def _level_chi_a0(operator, s):
    """The chi_a0 of a sweep's level-s window: PROBE_CHI_A0, or for vr-sd
    the one of radius VR_SD_RADIUS*4^(1-s), as level-s arcs lie >= Q^-2 ~
    4^-s apart: their windows stay disjoint, and the sup probes each arc."""
    if operator != "vr-sd":
        return PROBE_CHI_A0
    return _chi_a0_for_radius(VR_SD_RADIUS * 0.25 ** (s - 1), s)


class ConfigError(Exception):
    """Invalid experiment configuration; the message names the field."""


_REQUIRED = object()


def _parse_int(text):
    try:
        return int(str(text).strip())
    except ValueError:
        raise ConfigError("expected an integer, got %r" % (text,))


def _parse_float(text):
    try:
        val = float(str(text).strip())
    except ValueError:
        raise ConfigError("expected a number, got %r" % (text,))
    if not math.isfinite(val):
        raise ConfigError("expected a finite number, got %r" % (text,))
    return val


def _parse_list(text, parse):
    parts = [p for p in str(text).replace(",", " ").split() if p]
    if not parts:
        raise ConfigError("expected a comma-separated number list")
    return tuple(parse(p) for p in parts)


# the lowest kernel scale j0 of the top level bounds J_list at every level
_J_FLOOR = psi_floor_index(multipliers.S_CAP)

# schema: kind -> {key: (parser, default or _REQUIRED, low, high)}.  A tuple
# default makes a list key, each entry parsed by parser.  low and high bound
# the value and every list entry, None for no bound: an integer lies in
# low..high, a float exceeds low and does not exceed high.
SCHEMAS = {
    "bump-check": {
        "eps0_list": (_parse_float, (0.1, 0.25), 0, 0.5),
        "lam_list": (_parse_float, (1.5, 2.0), 1, 2),
        "kmax": (_parse_int, 20, 1, None),
        "samples": (_parse_int, 2048, 1, None),
    },
    "weyl": {
        "gauss_qmax": (_parse_int, 99, 1, None),
        "bound_qmax": (_parse_int, 100, 1, None),
        "fit_d": (_parse_int, 3, min(arithmetic.DECAY_QMAX),
                  max(arithmetic.DECAY_QMAX)),
        "fit_qmax": (_parse_int, 64, 2, max(arithmetic.DECAY_QMAX.values())),
    },
    "variation": {
        "n_oracle": (_parse_int, 1000, 1, None),
        "max_len": (_parse_int, 12, 2, variation.MAX_BRUTE_LENGTH),
        "r_list": (_parse_float, (2.2, 2.5, 3.0, 4.0, 8.0), 1,
                   variation.MAX_R),
        "n_jump": (_parse_int, 10000, 1, None),
        "jump_len": (_parse_int, 24, 4, variation.MAX_DP_LENGTH),
    },
    "chaining": {
        "n_inst": (_parse_int, 1000, 1, None),
        "max_times": (_parse_int, 16, 2, variation.MAX_DP_LENGTH),
    },
    "converge": {
        "eps0": (_parse_float, 0.1, 0, 0.5),
        # the scan's time grid 2^7..2^16 must lie below n_top
        "n_top": (_parse_int, 100000, 2 ** 16 + 1, None),
    },
    "carleson": {
        "eps0": (_parse_float, 0.25, 0, 0.5),
        "n_cov": (_parse_int, 100, 1, None),
        "theta_count": (_parse_int, 32, 2, None),
        "r": (_parse_float, 3.0, 1, variation.MAX_R),
        # the r-growth envelope r/(r-2) needs r > 2
        "r_low": (_parse_float, 2.2, 2, variation.MAX_R),
        "r_high": (_parse_float, 4.0, 2, variation.MAX_R),
        # a variation needs two truncations 8..L/4 of each length L
        "sizes": (_parse_int, (1024, 4096, 16384), 64, None),
        "batch": (_parse_int, 30, 30, None),
    },
    "multiplier": {
        "M": (_parse_int, 240, 1, None),
        "s_list": (_parse_int, (1, 2), 1, multipliers.S_CAP),
        "J_list": (_parse_int, (2, 3, 5), _J_FLOOR, None),
        "r": (_parse_float, 3.0, 1, variation.MAX_R),
        "n_draw": (_parse_int, 2, 1, None),
        "lam": (_parse_float, 1.5, 1, 2),
    },
    "sweep": {
        "operator": (str.strip, _REQUIRED, None, None),
        "batch": (_parse_int, 30, 30, None),
        "r": (_parse_float, 3.0, 1, variation.MAX_R),
        "M": (_parse_int, multipliers.SUGGESTED_MODULUS, 1, None),
        "s_max": (_parse_int, 4, 1, multipliers.S_CAP),
        "J_list": (_parse_int, (2, 3, 5), _J_FLOOR, None),
        "lam": (_parse_float, 1.5, 1, 2),
        "eps0": (_parse_float, 0.25, 0, 0.5),
    },
}

SWEEP_OPERATORS = ("maximal-arc", "seqspace", "vr-sd")
# the sweep keys each operator ignores, refused when set explicitly
_VR_SD_ONLY = {"r", "J_list", "lam", "eps0"}
_SWEEP_UNREAD = {"maximal-arc": _VR_SD_ONLY,
                "seqspace": _VR_SD_ONLY | {"M"},
                "vr-sd": set()}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: kind plus its fully-resolved parameter map."""

    kind: str
    params: dict = field(default_factory=dict)

    def get(self, key):
        return self.params[key]


def parse_config(text, kind=None, overrides=None):
    """Strict key = value parser; every key must belong to the kind's schema.

    The kind comes either from a ``kind = ...`` line or the argument (the CLI
    subcommand); both given and differing is an error.  ``overrides`` maps
    keys to raw value strings applied on top of the file entries.
    """
    entries = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value, got %r"
                              % (ln, raw.strip()))
        key, val = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("line %d: empty key" % ln)
        if key in entries:
            raise ConfigError("line %d: duplicate key %r" % (ln, key))
        entries[key] = val
    if overrides:
        entries.update(overrides)
    file_kind = entries.pop("kind", None)
    if file_kind is not None and kind is not None and file_kind != kind:
        raise ConfigError("config kind %r contradicts requested %r"
                          % (file_kind, kind))
    kind = file_kind if file_kind is not None else kind
    if kind is None:
        raise ConfigError("missing field: kind")
    if kind not in SCHEMAS:
        raise ConfigError("unknown experiment kind %r (known: %s)"
                          % (kind, ", ".join(sorted(SCHEMAS))))
    schema = SCHEMAS[kind]
    params = {}
    for key, val in entries.items():
        if key not in schema:
            raise ConfigError("unknown key %r for experiment %r" % (key, kind))
        parse, default = schema[key][:2]
        try:
            params[key] = (_parse_list(val, parse)
                           if isinstance(default, tuple) else parse(val))
        except ConfigError as ex:
            raise ConfigError("key %r: %s" % (key, ex))
    for key, (_parser, default, lo, hi) in schema.items():
        if key not in params and default is _REQUIRED:
            raise ConfigError("missing required key %r for experiment %r"
                              % (key, kind))
        vals = params.setdefault(key, default)
        for v in vals if isinstance(vals, tuple) else (vals,):
            exact = isinstance(v, int)
            if (lo is not None and (v < lo if exact else v <= lo)
                    or hi is not None and v > hi):
                raise ConfigError("need %s%s%s, got %r" % (
                    "" if lo is None else
                    "%s %s " % (lo, "<=" if exact else "<"),
                    key, "" if hi is None else " <= %s" % hi, v))
    _check_cross(kind, params, set(entries))
    return ExperimentConfig(kind=kind, params=params)


def _check_cross(kind, p, given):
    """The refusals that tie keys of one kind together, and those the
    schema bounds cannot state; given holds the keys set explicitly."""
    if "J_list" in p and list(p["J_list"]) != sorted(set(p["J_list"])):
        raise ConfigError("J_list must be strictly increasing, got %s"
                          % ",".join(map(str, p["J_list"])))
    # a variation across one scale is identically 0
    one_scale = "J_list" in p and len(p["J_list"]) < 2
    if one_scale and (kind == "multiplier" or p.get("operator") == "vr-sd"):
        raise ConfigError("J_list needs at least two scales, got %s"
                          % ",".join(map(str, p["J_list"])))
    # the dense oracle takes the variation across the scales by brute force
    if kind == "multiplier" and len(p["J_list"]) > variation.MAX_BRUTE_LENGTH:
        raise ConfigError("J_list holds at most %d scales, got %d"
                          % (variation.MAX_BRUTE_LENGTH, len(p["J_list"])))
    caps = arithmetic.DECAY_QMAX
    if kind == "weyl" and p["fit_qmax"] > caps[p["fit_d"]]:
        raise ConfigError("need fit_qmax <= %d for fit_d = %d, got %d"
                          % (caps[p["fit_d"]], p["fit_d"], p["fit_qmax"]))
    # every theta of the carleson grid must be a frequency of each length
    if kind == "carleson" and any(L % p["theta_count"] for L in
                                  (GRID_LEN,) + p["sizes"]):
        raise ConfigError("theta_count %d must divide %d and every entry of "
                          "sizes" % (p["theta_count"], GRID_LEN))
    if kind != "sweep":
        return
    if p["operator"] not in SWEEP_OPERATORS:
        raise ConfigError("unknown operator %r (known: %s)"
                          % (p["operator"], ", ".join(SWEEP_OPERATORS)))
    unread = sorted(given & _SWEEP_UNREAD[p["operator"]])
    if unread:
        raise ConfigError("operator %s does not read %s"
                          % (p["operator"], ", ".join(unread)))
    # MIN_MODULUS guards the lambda sup, and above it every vr-sd B/Q snaps
    if p["operator"] == "vr-sd" and p["M"] < multipliers.MIN_MODULUS:
        raise ConfigError("M must be at least %d for operator vr-sd, got %d"
                          % (multipliers.MIN_MODULUS, p["M"]))
    if p["operator"] != "maximal-arc":
        return
    # every B/Q of a level's arcs must snap to the M-grid within its window
    try:
        for s in range(1, p["s_max"] + 1):
            radius = ChiCutoff(s, a0=PROBE_CHI_A0).radius
            for Q in range(2 ** (s - 1), 2 ** s):
                for B in range(1, Q + 1):
                    multipliers.snap_to_grid(p["M"], B, Q, radius)
    except GridTooCoarseError as ex:
        raise ConfigError("M = %d is too coarse: %s" % (p["M"], ex))


def default_config(kind):
    """The all-defaults config for a kind (errors if any key is required)."""
    return parse_config("", kind=kind)


# ---------------------------------------------------------------------------
# shared helpers

# the columns of the carleson and sweep norm-ratio tables
RATIO_HEADER = ("s", "r", "M", "batch_size", "mean_ratio", "max_ratio",
                "std_err")


def _map_jobs(fn, items, jobs):
    items = list(items)
    if jobs and jobs > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=int(jobs)) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _gauss(g, shape):
    """Complex normals of this shape from g, the real parts drawn first."""
    return g.standard_normal(shape) + 1j * g.standard_normal(shape)


def _stats(vals):
    a = np.asarray(vals, dtype=float)
    se = float(np.std(a, ddof=1) / math.sqrt(len(a))) if len(a) > 1 else 0.0
    return float(np.mean(a)), float(np.max(a)), se


def theta_symbols(bump, L):
    """The anchored transforms on Z/L of the truncated weights phi_M at
    the truncations _truncation_list(L): a read-only (K - 1, L) array,
    built once and shared by every theta_sup_variation call on a length."""
    return multipliers.kernel_transforms(
        [scaled_weight(bump, M) for M in _truncation_list(L)], L,
        anchored=True)


def theta_sup_variation(values, what, theta_count, r):
    """Pointwise sup over the theta grid of the r-variation in the truncation.

    A_M^theta f(x) = sum_n phi_M(n) e(-n theta) f(x - n) on Z/L, theta on the
    grid j/theta_count (which must divide L so every theta is a grid
    frequency), and what = theta_symbols(bump, L).  The modulation by
    e(-n theta) shifts the transforms by j L / theta_count columns, read in
    place as a multipliers.ShiftedStack.  Returns the array
    sup_theta V^r_M(A f).
    """
    L = len(values)
    theta_count = int(theta_count)
    if theta_count < 1 or L % theta_count:
        raise DomainError("theta grid %d must be positive and divide the "
                          "length %d" % (theta_count, L))
    step = L // theta_count
    return multipliers.vr_sup((multipliers.ShiftedStack(what, j * step)
                               for j in range(theta_count)), values, r)


def _truncation_list(L):
    # lacunary truncations 8, 16, ... up to L/4: 8 * 2^k <= L // 4 for
    # 2^k <= L // 32
    return [8 << k for k in range((L // 32).bit_length())]


# ---------------------------------------------------------------------------
# experiments


def _run_bump_check(cfg, seed, jobs):
    summary = {"eps0": {}, "kernels": {}}
    ok = True
    samples = cfg.get("samples")
    for eps0 in cfg.get("eps0_list"):
        bump = SmoothBump(eps0)
        est, rich = bump.l1_distance_to_indicator()
        l1_ok = bump.l1_defect <= eps0 and est <= eps0 + 1e-9
        T = bump.transition
        ts = np.concatenate([
            np.linspace(0.0, T, samples), np.linspace(1.0 - T, 1.0, samples),
        ])
        deriv = {}
        for a in range(1, 5):
            sup = float(np.max(np.abs(bump.deriv(ts, order=a))))
            bound = bump.deriv_constants[a] * eps0 ** (-a)
            deriv[str(a)] = {"sup": sup, "bound": bound}
        deriv_ok = all(d["sup"] <= d["bound"] for d in deriv.values())
        ok = ok and l1_ok and deriv_ok
        summary["eps0"][str(eps0)] = {
            "l1_defect": bump.l1_defect, "l1_quadrature": est,
            "richardson": rich, "l1_ok": l1_ok,
            "deriv": deriv,
            "deriv_ok": deriv_ok,
        }
    bump = SmoothBump(cfg.get("eps0_list")[0])
    for lam in cfg.get("lam_list"):
        worst_tel, worst_mean = 0.0, 0.0
        for k in range(1, cfg.get("kmax") + 1):
            Psi = make_Psi(bump, lam, k)
            lo, hi = Psi.support
            ts = np.linspace(lo, hi, samples)
            acc = np.zeros_like(ts)
            for j in range(1, k + 1):
                acc = acc + make_psi_kernel(bump, lam, j)(ts)
            worst_tel = max(worst_tel, float(np.max(np.abs(acc - Psi(ts)))))
            worst_mean = max(worst_mean,
                             make_psi_kernel(bump, lam, k).mean_defect())
        lam_ok = worst_tel <= 1e-12 and worst_mean <= 1e-9
        ok = ok and lam_ok
        summary["kernels"]["lam=%s" % lam] = {
            "max_telescope": worst_tel, "max_mean_defect": worst_mean,
            "ok": lam_ok,
        }
    summary["ok"] = ok
    lo, hi = bump.support
    t = np.arange(lo, hi + 0.5 * bump.h, bump.h)
    profile = [(float(ti), vi) for ti, vi in zip(t, np.asarray(bump(t)))]
    return {"bump_check.json": summary,
            "bump_profile.csv": (("t", "value"), profile)}


def _run_weyl(cfg, seed, jobs):
    gauss_qmax, bound_qmax = cfg.get("gauss_qmax"), cfg.get("bound_qmax")
    gauss_worst = bound_worst = 0.0
    for Q in range(1, max(gauss_qmax, bound_qmax) + 1):
        As = arithmetic._all_vectors(Q, 1)
        rows = np.abs(arithmetic.weyl_rows(Q, As))
        if Q % 2 and Q <= gauss_qmax:
            gauss = rows[np.gcd(As[:, 0], Q) == 1]
            gauss_worst = max(gauss_worst,
                              float(np.max(np.abs(gauss - Q ** -0.5))))
        if Q <= bound_qmax:
            mask = np.gcd(As, np.gcd(np.arange(1, Q + 1), Q)) == 1
            bound_worst = max(bound_worst, float(np.max(rows[mask]))
                              - math.sqrt(2.0) * Q ** -0.5)
    gauss_ok = gauss_worst <= 1e-10
    bound_ok = bound_worst <= 1e-12

    fit = arithmetic.weyl_decay_fit(cfg.get("fit_d"), cfg.get("fit_qmax"))
    resid_above = float(np.max(np.asarray(fit.residuals)))
    fit_ok = fit.exponent >= 0.2 and resid_above <= math.log(4.0)
    decay = [(q, m, "A=%s;B=%d" % (":".join(map(str, am[:-1])), am[-1]))
             for q, m, am in zip(fit.Q, fit.max_abs, fit.argmax)]
    return {"weyl.json": {
        "gauss": {"worst_abs_error": gauss_worst, "ok": gauss_ok},
        "bound": {"worst_excess": bound_worst, "ok": bound_ok},
        "fit": {"d": fit.d, "exponent": fit.exponent,
                "constant": fit.constant, "max_residual_above": resid_above,
                "ok": fit_ok},
        "ok": gauss_ok and bound_ok and fit_ok,
    }, "weyl_decay.csv": (("Q", "max_abs_S", "argmax"), decay)}


def _run_variation(cfg, seed, jobs):
    tol = 1e-9
    seqs = []
    for i in range(cfg.get("n_oracle")):
        g = stream(seed, i)
        n = int(g.integers(2, cfg.get("max_len") + 1))
        seqs.append(_gauss(g, n))
    worst = max(abs(dp - brute) for r in cfg.get("r_list")
                for dp, brute in zip(variation.vr_exact(seqs, r),
                                     variation.vr_brute(seqs, r)))
    oracle_ok = worst <= tol

    seqs, taus, rs = [], [], []
    for i in range(cfg.get("n_jump")):
        g = stream(seed, 10 ** 6 + i)
        n = int(g.integers(4, cfg.get("jump_len") + 1))
        seqs.append(_gauss(g, n))
        taus.append(float(g.uniform(0.05, 2.0)))
        rs.append(float(g.uniform(2.1, 8.0)))
    checks = variation.jump_variation_check(seqs, taus, rs)
    min_slack = min(slack for _held, slack in checks)
    violations = sum(not held for held, _slack in checks)
    jump_ok = violations == 0
    return {"variation.json": {
        "oracle": {"n": cfg.get("n_oracle"), "worst_error": worst,
                   "tol": tol, "ok": oracle_ok},
        "jump": {"n": cfg.get("n_jump"), "min_slack": min_slack,
                 "violations": violations, "ok": jump_ok},
        "ok": oracle_ok and jump_ok,
    }}


def _run_chaining(cfg, seed, jobs):
    seqs = []
    for i in range(cfg.get("n_inst")):
        g = stream(seed, i)
        n = int(g.integers(2, cfg.get("max_times") + 1))
        dim = int(g.integers(1, 17))         # dims 1..16
        # the cover reads values only; this draw of the sample times stays
        # so that every instance keeps its seeded values and chaining.json
        # its bytes
        g.uniform(0.0, 10.0, n)
        seqs.append(_gauss(g, (n, dim)))
    worst_ratio = worst_tel = 0.0
    try:
        cover = variation.build_chaining_cover(seqs)
        worst_ratio = variation.verify_cover(cover, seqs)
        worst_tel = variation.chaining_telescope_check(cover, seqs)
        failures = 0
    except AssertionError:
        # one batch: a broken invariant leaves no instance verified
        failures = len(seqs)
    ok = failures == 0 and worst_ratio <= 3.0 + 1e-9 and worst_tel <= 1e-12
    return {"chaining.json": {
        "n": cfg.get("n_inst"), "failures": failures,
        "worst_increment_ratio": worst_ratio,
        "worst_telescope": worst_tel, "ok": ok,
    }}


def _converge_poly_grid():
    # 25 linear + 25 higher-class phases (alternating pure-quadratic and
    # quadratic-plus-cubic), all coefficients spread over (0, 1)
    leads = [(2 * i + 1) / 50.0 for i in range(25)]
    return ([polykit.Poly.linear(a) for a in leads]
            + [polykit.Poly.vanish2((a,) if i % 2 == 0
                                    else (a, (i + 1) / 64.0))
               for i, a in enumerate(leads)])


def _run_converge(cfg, seed, jobs):
    """Smoothed and rough (plain) averages along three systems at n_top.

    The smoothed averages converge to bump.mass times the limit of the
    rough ones, so they get the tolerance eps0 + 0.01, and the rough
    averages 0.01 alone.
    """
    eps0 = cfg.get("eps0")
    bump = SmoothBump(eps0)
    n_top = cfg.get("n_top")
    pad = 0.01

    # scenario a: integer shift, window observable, polynomial grid
    times = [2 ** k for k in range(7, 17)] + [n_top]
    polys = _converge_poly_grid()
    table = systems.ww_scan(systems.ZShift(), systems.obs_indicator(0, 100),
                            0, polys, times, bump)
    scan = []
    for i, p in enumerate(polys):
        ptxt = ":".join("%r" % c for c in p.coeffs)
        for N in times:
            v = table.values[(i, N)]
            scan.append((ptxt, N, v.real, v.imag, abs(v)))
    osc_max = max(table.oscillation.values())
    top_max = max(abs(table.values[(i, n_top)]) for i in range(len(polys)))
    rough_max = max(abs(v) for v in table.rough.values())
    a_ok = osc_max <= 0.02 and all(m <= 0.02 for m in (top_max, rough_max))

    # scenario b: rotation, character observable, resonant vs generic phase
    rot = systems.CircleRotation()
    res_tol = eps0 + pad
    rt = systems.ww_scan(rot, systems.obs_char(1), 0.0,
                         [polykit.Poly.linear(1.0 - rot.alpha),
                          polykit.Poly.linear(0.25)], [n_top], bump)
    b_res = abs(rt.values[(0, n_top)] - bump.mass)
    b_rough = abs(rt.rough[0] - 1.0)
    v_gen = rt.values[(1, n_top)]
    g_rough = abs(rt.rough[1])
    b_ok = (b_res <= res_tol and abs(v_gen) <= 0.01 and b_rough <= pad
            and g_rough <= 0.01)

    # scenario c: skew product, quadratic resonance at x = 1/2
    skew = systems.SkewProduct()
    y0 = 0.3
    char = complex(e(y0))
    st = systems.ww_scan(skew, systems.obs_skew_char(1), (0.5, y0),
                         [polykit.Poly.vanish2((-skew.alpha,))], [n_top], bump)
    c_res = abs(st.values[(0, n_top)] - char * bump.mass)
    c_rough = abs(st.rough[0] - char)
    c_ok = c_res <= res_tol and c_rough <= pad

    return {"converge.json": {
        "scan": {"max_oscillation": osc_max, "max_top_abs": top_max,
                 "rough_top_abs": rough_max, "times": times, "ok": a_ok},
        "rotation": {"resonant_error": b_res, "generic_abs": abs(v_gen),
                     "rough_resonant_error": b_rough,
                     "rough_generic_abs": g_rough, "tol": res_tol,
                     "ok": b_ok},
        "skew": {"resonant_error": c_res, "rough_resonant_error": c_rough,
                 "tol": res_tol, "ok": c_ok},
        "ok": a_ok and b_ok and c_ok,
    }, "converge_scan.csv": (("P", "N", "re", "im", "abs"), scan)}


def _run_carleson(cfg, seed, jobs):
    bump = SmoothBump(cfg.get("eps0"))

    # part 1: modulation covariance on finite signals
    worst_cov = 0.0
    M_avg = 32
    for i in range(cfg.get("n_cov")):
        g = stream(seed, i)
        n = int(g.integers(8, 49))          # lengths 8..48
        start = int(g.integers(-20, 21))
        f = Signal(start, _gauss(g, n))
        theta = int(g.integers(0, 256)) / 256.0
        theta2 = int(g.integers(0, 256)) / 256.0
        lhs = averaging.conv_average(modulate(f, theta), bump, M_avg,
                                     polykit.Poly.linear(-theta2))
        rhs = modulate(averaging.conv_average(
            f, bump, M_avg, polykit.Poly.linear(-(theta2 + theta))), theta)
        assert lhs.support_start == rhs.support_start
        worst_cov = max(worst_cov,
                        float(np.max(np.abs(lhs.values - rhs.values))))
    cov_tol = 1e-9
    cov_ok = worst_cov <= cov_tol

    # part 2: grid-aligned modulation leaves the theta-sup variation fixed
    L = GRID_LEN
    r = cfg.get("r")
    g = stream(seed, 7777)
    base = _gauss(g, L)
    shift = int(g.integers(1, cfg.get("theta_count")))
    what = theta_symbols(bump, L)
    a1 = theta_sup_variation(base, what, cfg.get("theta_count"), r)
    modded = modulate_cyclic(base, shift * (L // cfg.get("theta_count")))
    a2 = theta_sup_variation(modded, what, cfg.get("theta_count"), r)
    grid_dev = float(np.max(np.abs(a1 - a2)))
    grid_ok = grid_dev <= 1e-12

    # parts 3-4: l2 ratio ||sup_theta V^r|| / ||f|| across sizes at r, then
    # paired draws at r_low and r_high on the smallest size for the
    # r-growth envelope
    sizes, batch = cfg.get("sizes"), cfg.get("batch")
    lo, hi = cfg.get("r_low"), cfg.get("r_high")

    def stats_at(L, r_val):
        # one set of transforms per size, shared read-only by the draws
        what = theta_symbols(bump, L)

        def one(d):
            f = _gauss(stream(seed, d), L)
            best = theta_sup_variation(f, what, cfg.get("theta_count"), r_val)
            return l2(best) / l2(f)
        return _stats(_map_jobs(one, range(batch), jobs))

    runs = [(L, r) for L in sizes] + [(sizes[0], lo), (sizes[0], hi)]
    stats = [stats_at(L, r_val) for L, r_val in runs]
    per_size, m_lo, m_hi = stats[:-2], stats[-2][0], stats[-1][0]
    cap = 10.0 * (lo / (lo - 2.0)) / (hi / (hi - 2.0))
    slack = 1.5
    size_ok = per_size[-1][0] <= slack * per_size[0][0]
    env_ok = m_lo / m_hi <= cap

    return {"carleson.json": {
        "covariance": {"worst": worst_cov, "tol": cov_tol, "ok": cov_ok},
        "grid_invariance": {"deviation": grid_dev, "ok": grid_ok},
        "sizes": {str(L): {"mean": m, "max": x, "stderr": s}
                  for L, (m, x, s) in zip(sizes, per_size)},
        "size_stability": {"ratio": per_size[-1][0] / per_size[0][0],
                           "slack": slack, "ok": size_ok},
        "r_envelope": {"mean_low": m_lo, "mean_high": m_hi,
                       "growth": m_lo / m_hi, "cap": cap, "ok": env_ok},
        "ok": cov_ok and grid_ok and size_ok and env_ok,
    }, "carleson.csv": (RATIO_HEADER, [
        (0, r_val, L, batch) + st for (L, r_val), st in zip(runs, stats)])}


def _run_multiplier(cfg, seed, jobs):
    from . import dense

    M = cfg.get("M")
    lam = cfg.get("lam")
    r = cfg.get("r")
    tol = 1e-8
    J_list = list(cfg.get("J_list"))
    bump = SmoothBump(0.25)
    errs = {"vr_s": 0.0, "vr_sd": 0.0, "vrd": 0.0}
    for s in cfg.get("s_list"):
        # symbols depend on the level only: build once, apply per draw;
        # vr_s at the arc centres (the points 3k+1 of the canonical grid),
        # vr_sd on the grid's first 3 points
        grid = multipliers.lambda_grid_for(s, 2)
        stacks = multipliers.build_arc_multiplier(s, J_list, grid, M, bump,
                                                  lam=lam)
        built = (stacks[1::3], stacks[:3])
        oracle = [[[dense.arc_multiplier(s, J, lv, bump, lam, M)
                    for J in J_list] for lv in lgrid]
                  for lgrid in (grid[1::3], grid[:3])]

        def draw_errors(draw):
            f = _gauss(stream(seed, 100 * s + draw), M)
            return tuple(
                float(np.max(np.abs(multipliers.vr_sup(picked, f, r)
                                    - dense.variation_sup(want, f, r))))
                for picked, want in zip(built, oracle))

        for err_s, err_sd in _map_jobs(draw_errors, range(cfg.get("n_draw")),
                                       jobs):
            errs["vr_s"] = max(errs["vr_s"], err_s)
            errs["vr_sd"] = max(errs["vr_sd"], err_sd)

    # vrd on a short line signal, nested-loop oracle
    f = Signal(3, _gauss(stream(seed, 9000), 48))
    grid = [polykit.Poly.vanish2((0.3,)), polykit.Poly.linear(0.1)]
    got = multipliers.vrd_operator(f, bump, lam, grid, [1, 2, 3], r)
    want = dense.vrd(f, bump, lam, grid, [1, 2, 3], r,
                     range(got.support_start, got.support_start + len(got)))
    errs["vrd"] = float(np.max(np.abs(got.values - want)))

    return {"multiplier.json": {"errors": errs, "tol": tol, "M": M,
                                "ok": all(v <= tol for v in errs.values())}}


# ---------------------------------------------------------------------------
# sweeps


def _nonincreasing_within_se(points):
    """points: list of (mean, max, se); adjacent means may rise by <= 1 SE."""
    return not any(m1 - m0 > math.hypot(s0, s1)
                   for (m0, _x0, s0), (m1, _x1, s1) in zip(points, points[1:]))


def _run_sweep(cfg, seed, jobs):
    """Batched l2 norm-ratio sweep for one named operator.

    Returns sweep_<table>.json (a payload {operator, points, checks, ok})
    and sweep_<table>.csv (RATIO_HEADER rows) per table, the operator's own
    first.  The vr-sd run also returns the vr-s table: the same operator at
    the arc centres lambda = A/Q alone, its stats reported and nothing
    asserted.  Draws are paired across parameter points (same signals per
    draw index) so the decay comparisons are low-variance.  seed fixes the
    draws and jobs the worker threads; the tables do not depend on jobs.
    """
    kind = cfg.get("operator")
    tables = [kind] + (["vr-s"] if kind == "vr-sd" else [])
    batch = cfg.get("batch")
    r = cfg.get("r")
    M = cfg.get("M")
    bump = SmoothBump(cfg.get("eps0"))
    levels, stats = [], []      # per level: (s, r, size, batch), table stats

    for s in range(1, cfg.get("s_max") + 1):
        # symbols depend on the level only: build once, apply per draw;
        # ratios(v) gives one ratio per table
        size = n = M
        a0 = _level_chi_a0(kind, s)
        if kind == "seqspace":
            size = 64 * 2 ** s          # the interval 0..size-1
            level = multipliers.seqspace_level(s, size, chi_a0=a0)
            n = level[0]

            def ratios(v):
                return (multipliers.seqspace_ratio(level, v),)
        elif kind == "maximal-arc":
            symbols = multipliers.arc_symbols(s, M, chi_a0=a0)

            def ratios(v):
                return (multipliers.maximal_arc_ratio(symbols, v),)
        else:
            stacks = multipliers.build_arc_multiplier(
                s, cfg.get("J_list"), multipliers.lambda_grid_for(s, 2), M,
                bump, lam=cfg.get("lam"), chi_a0=a0)
            # the grid's points 3k+1 are the arc centres: vr-s sups over
            # their stacks, vr-sd over every stack, so the max of the
            # centre sup with the sup over the rest is the vr-sd value
            centres = stacks[1::3]
            rest = [st for i, st in enumerate(stacks) if i % 3 != 1]

            def ratios(v):
                at_centres = multipliers.vr_sup(centres, v, r)
                best = np.maximum(at_centres,
                                  multipliers.vr_sup(rest, v, r))
                return tuple(l2(g) / l2(v) for g in (best, at_centres))
        vals = _map_jobs(lambda d: ratios(_gauss(stream(seed, d), n)),
                         range(batch), jobs)
        levels.append((s, r if kind == "vr-sd" else 0.0, size, batch))
        stats.append([_stats(col) for col in zip(*vals)])

    files = {}
    for name, points in zip(tables, zip(*stats)):
        stem = "sweep_" + name.replace("-", "_")
        # only the operator's own table claims decay in s: the vr-s levels
        # are telescoping pieces with no per-level claim
        checks = ({"nonincreasing_in_s": _nonincreasing_within_se(points)}
                  if name == kind else {})
        files[stem + ".json"] = {"operator": name, "checks": checks,
                                 "ok": all(checks.values()),
                                 "points": [{"mean": m, "max": x, "stderr": se}
                                            for m, x, se in points]}
        files[stem + ".csv"] = (RATIO_HEADER,
                                [lv + p for lv, p in zip(levels, points)])
    return files


_RUNNERS = {
    "bump-check": _run_bump_check,
    "weyl": _run_weyl,
    "variation": _run_variation,
    "chaining": _run_chaining,
    "converge": _run_converge,
    "carleson": _run_carleson,
    "multiplier": _run_multiplier,
    "sweep": _run_sweep,
}


def run(config: ExperimentConfig, out_dir=".", seed=2026, jobs=1) -> int:
    """Execute one experiment; returns the exit code (0 ok, 2 check failed).

    Configuration problems raise ConfigError (the CLI maps them to code 1),
    among them a seed outside 0..2^64-1 and jobs (or MODVAR_JOBS) outside
    1..os.cpu_count().  A runner returns {file name: content}, the summary
    JSON first: a payload dict for a .json file, (header, rows) for a .csv
    file.  This is the one writer of result files, all or none: it writes
    them into a staging directory in out_dir, then moves each into place and
    its earlier file into the stage; a failed write or move puts every
    earlier file back and removes the run's.  The summary's ok is the verdict.
    """
    if config.kind not in _RUNNERS:
        raise ConfigError("unknown experiment kind %r" % (config.kind,))
    if not 0 <= int(seed) < 2 ** 64:
        raise ConfigError("seed must lie in 0..2^64-1, got %d" % int(seed))
    source = "MODVAR_JOBS" if "MODVAR_JOBS" in os.environ else "jobs"
    try:
        jobs = _parse_int(os.environ.get("MODVAR_JOBS", jobs))
    except ConfigError as ex:
        raise ConfigError("%s: %s" % (source, ex))
    if jobs < 1:
        raise ConfigError("jobs must be a positive integer")
    cpus = os.cpu_count() or 1
    if jobs > cpus:
        raise ConfigError("jobs %d exceeds the %d CPUs of this host"
                          % (jobs, cpus))
    os.makedirs(out_dir, exist_ok=True)
    files = _RUNNERS[config.kind](config, int(seed), jobs)
    with tempfile.TemporaryDirectory(dir=out_dir) as stage, \
            contextlib.ExitStack() as undo:
        for name, content in files.items():
            path = os.path.join(stage, "new-" + name)
            if name.endswith(".csv"):
                write_csv(path, *content)
                continue
            with open(path, "w") as fh:
                json.dump(content, fh, indent=2, sort_keys=True)
                fh.write("\n")
        for name in files:
            path, kept = os.path.join(out_dir, name), os.path.join(stage, name)
            if os.path.isfile(path):
                os.replace(path, kept)
                undo.callback(os.replace, kept, path)
            os.replace(os.path.join(stage, "new-" + name), path)
            undo.callback(os.remove, path)
        undo.pop_all()
    summary = next(iter(files.values()))
    ok = summary["ok"]
    flat = {k: v for k, v in summary.items() if not isinstance(v, dict)}
    print("[%s] %s %s" % (config.kind, "ok" if ok else "FAIL",
                          json.dumps(flat, sort_keys=True)))
    return 0 if ok else 2
