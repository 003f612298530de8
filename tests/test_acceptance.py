"""The eleven acceptance checks, one per criterion, timed against budgets.

Each test drives the public surface (operators directly or the experiment
runner), asserts the stated tolerance, and reports one PASS/FAIL line in
the terminal summary via conftest.record_acceptance.
"""

import json
import math
import time

import numpy as np
import pytest

from modvar import arithmetic, harness
from modvar.harness import parse_config

from conftest import record_acceptance

SEED = 20260819


def _run_kind(kind, outdir, overrides=None):
    """Run one experiment kind; returns (exit code, summary dict, seconds)."""
    cfg = parse_config("", kind=kind, overrides=overrides or {})
    t0 = time.perf_counter()
    rc = harness.run(cfg, out_dir=str(outdir), seed=SEED)
    dt = time.perf_counter() - t0
    name = {"sweep": "sweep_%s" % (overrides or {}).get(
        "operator", "").replace("-", "_")}.get(kind, kind.replace("-", "_"))
    summary = json.loads((outdir / (name + ".json")).read_text())
    return rc, summary, dt


@pytest.fixture(scope="module")
def outroot(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def carleson_run(outroot):
    # one run feeds criteria 7 (parts 1-2) and 11 (parts 3-4)
    return _run_kind("carleson", outroot / "carleson")


@pytest.fixture(scope="module")
def variation_run(outroot):
    # one default run feeds criteria 3 (1000 sequences x 5 exponents at
    # n <= 12 against the brute-force oracle) and 4 (10,000 jump checks at
    # n <= 24), on the draws of streams (SEED, i) and (SEED, 10**6 + i)
    return _run_kind("variation", outroot / "variation")


def test_01_gauss_sum_magnitudes():
    t0 = time.perf_counter()
    worst_exact = 0.0
    for Q in range(1, 100, 2):
        target = Q ** -0.5
        for A in arithmetic._coprime_vectors(Q, 1):
            row = np.abs(arithmetic.weyl_row(Q, A))
            worst_exact = max(worst_exact, float(np.max(np.abs(row - target))))
    worst_excess = -math.inf
    for Q in range(1, 101):
        Bs = np.arange(1, Q + 1)
        cap = math.sqrt(2.0) * Q ** -0.5
        for A in arithmetic._all_vectors(Q, 1):
            mask = np.gcd(np.gcd(Bs, math.gcd(A[0], Q)), Q) == 1
            if not np.any(mask):
                continue
            row = np.abs(arithmetic.weyl_row(Q, A))
            worst_excess = max(worst_excess, float(np.max(row[mask])) - cap)
    dt = time.perf_counter() - t0
    ok = worst_exact <= 1e-10 and worst_excess <= 1e-12 and dt < 5.0
    record_acceptance("gauss-sum-magnitudes", ok, dt,
                      "exactness err %.2e, bound excess %.2e"
                      % (worst_exact, worst_excess))
    assert worst_exact <= 1e-10
    assert worst_excess <= 1e-12
    assert dt < 5.0


def test_02_weyl_decay_fit():
    t0 = time.perf_counter()
    fit = arithmetic.weyl_decay_fit(3, 64)
    dt = time.perf_counter() - t0
    resid_above = float(np.max(np.asarray(fit.residuals)))
    ok = fit.exponent >= 0.2 and resid_above <= math.log(4.0) and dt < 60.0
    record_acceptance("weyl-decay-fit", ok, dt,
                      "exponent %.3f, max residual above %.3f"
                      % (fit.exponent, resid_above))
    assert fit.exponent >= 0.2
    # monotone envelope: no sample sits more than the slack above the fit
    assert resid_above <= math.log(4.0)
    assert dt < 60.0


def test_03_variation_oracle_match(variation_run):
    rc, summary, dt = variation_run
    oracle = summary["oracle"]
    ok = oracle["worst_error"] <= 1e-9 and dt < 10.0
    record_acceptance("variation-oracle-match", ok, dt,
                      "worst |exact - brute| %.2e over %d x 5 (shared run)"
                      % (oracle["worst_error"], oracle["n"]))
    assert oracle["n"] == 1000
    assert oracle["worst_error"] <= 1e-9
    assert dt < 10.0


def test_04_jump_variation_inequality(variation_run):
    rc, summary, dt = variation_run
    jump = summary["jump"]
    ok = rc == 0 and jump["violations"] == 0 and dt < 30.0
    record_acceptance("jump-variation-inequality", ok, dt,
                      "%d violations in %d, min slack %.2e (shared run)"
                      % (jump["violations"], jump["n"], jump["min_slack"]))
    assert rc == 0
    assert jump["n"] == 10000
    assert jump["violations"] == 0
    assert dt < 30.0


def test_05_kernel_identities(outroot):
    rc, summary, dt = _run_kind("bump-check", outroot / "bump")
    worst_tel = max(v["max_telescope"] for v in summary["kernels"].values())
    worst_mean = max(v["max_mean_defect"] for v in summary["kernels"].values())
    ok = rc == 0 and dt < 10.0
    record_acceptance("kernel-identities", ok, dt,
                      "telescope %.1e, mean defect %.1e"
                      % (worst_tel, worst_mean))
    assert rc == 0
    assert summary["ok"] is True
    assert dt < 10.0


def test_06_convergence_scans(outroot):
    rc, summary, dt = _run_kind("converge", outroot / "converge")
    ok = rc == 0 and dt < 120.0
    record_acceptance(
        "convergence-scans", ok, dt,
        "osc %.4f, top %.4f, rot %.4f, skew %.4f"
        % (summary["scan"]["max_oscillation"], summary["scan"]["max_top_abs"],
           summary["rotation"]["resonant_error"],
           summary["skew"]["resonant_error"]))
    assert rc == 0
    assert summary["scan"]["ok"] is True
    assert summary["rotation"]["ok"] is True
    assert summary["skew"]["ok"] is True
    assert dt < 120.0


def test_07_modulation_covariance(carleson_run):
    rc, summary, dt = carleson_run
    cov = summary["covariance"]
    grid = summary["grid_invariance"]
    ok = cov["ok"] and grid["ok"] and dt < 30.0
    record_acceptance("modulation-covariance", ok, dt,
                      "worst %.1e (tol %.0e), grid dev %.1e (shared run)"
                      % (cov["worst"], cov["tol"], grid["deviation"]))
    assert cov["ok"] is True
    assert grid["ok"] is True
    assert dt < 30.0


def test_08_multiplier_dense_oracles(outroot):
    rc, summary, dt = _run_kind("multiplier", outroot / "multiplier")
    worst = max(summary["errors"].values())
    ok = rc == 0 and dt < 60.0
    record_acceptance("multiplier-dense-oracles", ok, dt,
                      "worst dense-oracle error %.1e (tol %.0e) at M=%d"
                      % (worst, summary["tol"], summary["M"]))
    assert rc == 0
    assert summary["ok"] is True
    assert dt < 60.0


def test_09_decay_in_s(outroot):
    t0 = time.perf_counter()
    details = []
    all_ok = True
    for op in ("maximal-arc", "seqspace", "vr-sd"):
        rc, summary, _dt = _run_kind("sweep", outroot / ("sweep_" + op),
                                     overrides={"operator": op})
        all_ok = all_ok and rc == 0 and summary["checks"]["nonincreasing_in_s"]
        means = [p["mean"] for p in summary["points"]]
        details.append("%s %s" % (op, "/".join("%.3f" % m for m in means)))
    dt = time.perf_counter() - t0
    ok = all_ok and dt < 600.0
    record_acceptance("decay-in-s", ok, dt, "; ".join(details))
    assert all_ok
    assert dt < 600.0


def test_10_chaining_invariants(outroot):
    rc, summary, dt = _run_kind("chaining", outroot / "chaining")
    ok = rc == 0 and dt < 30.0
    record_acceptance("chaining-invariants", ok, dt,
                      "worst increment ratio %.3f (cap 3), telescope %.1e"
                      % (summary["worst_increment_ratio"],
                         summary["worst_telescope"]))
    assert rc == 0
    assert summary["failures"] == 0
    assert summary["worst_increment_ratio"] <= 3.0 + 1e-9
    assert dt < 30.0


def test_11_linear_variation_stability(carleson_run):
    rc, summary, dt = carleson_run
    size = summary["size_stability"]
    env = summary["r_envelope"]
    ok = size["ok"] and env["ok"] and dt < 600.0
    record_acceptance("linear-variation-stability", ok, dt,
                      "size ratio %.3f (cap %.1f), r growth %.2f (cap %.2f)"
                      % (size["ratio"], size["slack"], env["growth"],
                         env["cap"]))
    assert rc == 0
    assert size["ok"] is True
    assert env["ok"] is True
    assert dt < 600.0
