"""Acceptance battery: thirteen end-to-end criteria, one test and one
printed PASS/FAIL line each.

Every criterion pins its tolerance, sample size, and seed.  Expensive
Monte Carlo runs are shared through module-scoped fixtures; the whole
battery is serial and finishes in a few minutes on one core.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from stable_smallball import (
    AlphaStableParams,
    GridSpec,
    RngStream,
    girsanov,
    identity_shift,
    integral_test,
    power_loglog_scaling,
    processes,
    simulate,
)
from stable_smallball.constants import (
    gaussian_validation_eigenvalue,
    middle_shift_constant,
    smallball_constant_mc,
    smallball_constant_spectral,
)
from stable_smallball.diagnostics import _exponent_by_quadrature, weight_battery
from stable_smallball.girsanov import deterministic_exponent
from stable_smallball.lil import grid_gap_ratios
from stable_smallball.smallball import (
    SmallBallQuery,
    anderson_report,
    empirical_no_big_jump_fraction,
    estimate_crude,
    estimate_is,
    prob_no_big_jumps,
    tail_prob_check,
)

ALPHA = 1.5
PARAMS = AlphaStableParams(ALPHA)
SLOPE_BAND = 0.15 * ALPHA  # fitted exponent must sit within +-0.15 alpha of -alpha


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def mc_fit():
    """Shared 100k-path Monte Carlo fit of the small-ball constant."""
    t0 = time.time()
    fit = smallball_constant_mc(ALPHA, r_list=(0.6, 0.8, 1.0, 1.2),
                                n_paths=100_000, n_steps=2048,
                                rng=RngStream(20260814))
    return fit, time.time() - t0


def test_01_gaussian_eigenvalue_reference():
    t0 = time.time()
    lam = gaussian_validation_eigenvalue(512)
    elapsed = time.time() - t0
    exact = math.pi**2 / 8.0
    rel = abs(lam - exact) / exact
    ok = rel < 1e-8 and elapsed < 60.0
    _verdict(1, ok, f"Gaussian eigenvalue {lam:.10f} vs pi^2/8, "
                    f"rel dev {rel:.2e} (tol 1e-8), {elapsed:.1f}s (limit 60s)")


def test_02_smallball_exponent_slope(mc_fit):
    fit, elapsed = mc_fit
    slope = fit.diagnostics["exponent_slope"]
    ok = abs(slope - (-ALPHA)) <= SLOPE_BAND and elapsed < 600.0
    _verdict(2, ok, f"log(-log p) vs log r slope {slope:.4f} "
                    f"(target -{ALPHA} +- {SLOPE_BAND:.3f}), {elapsed:.0f}s (limit 600s)")


def test_03_mc_constant_matches_spectral(mc_fit):
    fit, _ = mc_fit
    spectral = smallball_constant_spectral(ALPHA, n_grid=1024)
    rel = abs(fit.value - spectral.value) / spectral.value
    ok = rel <= 0.15
    _verdict(3, ok, f"K_mc {fit.value:.4f} vs K_spectral {spectral.value:.4f}, "
                    f"rel gap {rel:.3f} (tol 0.15)")


def test_04_tilted_weights_have_unit_mean():
    gate = 4.0
    worst_label, worst_dev = "", 0.0
    rng = RngStream(41)
    for i, (label, tilt) in enumerate(weight_battery(PARAMS)):
        child = rng.child(i)
        parts = []
        # chunked draws: the small-regime tilts carry thousands of jumps per
        # path at their default resolution, so one 10k batch would not fit
        for j in range(10):
            _, lw = simulate.sample_tilted_batch(tilt, 1000, 256, child.child(j))
            parts.append(np.exp(lw))
        w = np.concatenate(parts)
        se = w.std(ddof=1) / math.sqrt(w.size)
        dev = abs(w.mean() - 1.0) / se if se > 0.0 else 0.0
        if dev >= worst_dev:
            worst_label, worst_dev = label, dev
    ok = worst_dev < gate
    _verdict(4, ok, f"unit-mean weights on 6 tilts x 10k paths, worst "
                    f"{worst_dev:.2f} stderr ({worst_label}; gate {gate})")


def test_05_importance_sampling_agrees_with_crude():
    q = SmallBallQuery.middle(PARAMS, identity_shift(), 0.2, 0.8)
    crude = estimate_crude(q, 10_000, n_steps=2048, rng=RngStream(42))
    imps = estimate_is(q, 10_000, n_steps=2048, rng=RngStream(43))
    ok = crude.overlaps(imps)
    _verdict(5, ok, f"crude {crude.value:.3e}+-{crude.stderr:.1e} vs "
                    f"IS {imps.value:.3e}+-{imps.stderr:.1e}, 95% CIs overlap")


def test_06_truncation_probability():
    est = empirical_no_big_jump_fraction(PARAMS, 1.0, 10_000, rng=RngStream(44))
    ref = prob_no_big_jumps(ALPHA, 1.0)
    dev = abs(est.value - ref) / est.stderr
    ok = dev < 3.0
    _verdict(6, ok, f"no-big-jump fraction {est.value:.4f} vs "
                    f"exp(-(2/alpha) r^-alpha) = {ref:.4f}, {dev:.2f} stderr (gate 3)")


def test_07_anderson_battery_never_flags():
    rep = anderson_report(PARAMS, 1.0, 100_000, rng=RngStream(45), n_steps=2048)
    ok = rep.n_flagged == 0
    _verdict(7, ok, f"shifted ball never beats centered ball on 100k paths: "
                    f"{rep.n_flagged} of {len(rep.rows)} members flagged")


def test_08_time_change_matches_rescaled_mass():
    n, n_steps = 10_000, 2048
    rng = RngStream(46)
    s_eta, s_zeta = np.empty(n), np.empty(n)
    done = 0
    for b, size in simulate.batch_plan(n, n_steps):
        bt = simulate.sample_time_changed_batch(
            PARAMS, lambda t: 1.0 + t, size, n_steps, rng.child(1, b))
        bz = simulate.sample_stable_batch(PARAMS, size, n_steps, rng.child(2, b))
        s_eta[done:done + size] = np.max(np.abs(bt.values), axis=1)
        s_zeta[done:done + size] = 1.5 ** (1.0 / ALPHA) * np.max(np.abs(bz.values), axis=1)
        done += size
    p = stats.ks_2samp(s_eta, s_zeta).pvalue
    ok = p > 0.01
    _verdict(8, ok, f"sup of speed-(1+t) clock vs mass-scaled homogeneous sup, "
                    f"KS p {p:.4f} (gate 0.01), 10k paths each")


def test_09_deterministic_exponent_vs_quadrature():
    gen = np.random.default_rng(np.random.SeedSequence(20260814))
    pool = [AlphaStableParams(a) for a in (1.2, 1.5, 1.8)]
    made, worst = 0, 0.0
    while made < 20:
        params = pool[made % 3]
        f = processes.random_shift(int(gen.integers(2, 9)), gen)
        if gen.random() < 0.5:
            tilt = girsanov.TiltSpec.middle_shift(
                params, f, float(gen.uniform(0.05, 1.5)), float(gen.uniform(0.3, 2.0)))
        else:
            tilt = girsanov.TiltSpec.small_shift(
                params, f, float(gen.uniform(0.05, 0.5)), r=float(gen.uniform(0.3, 1.0)))
        if not tilt.validity_check().passed:
            continue
        made += 1
        series = deterministic_exponent(tilt)
        quad = _exponent_by_quadrature(tilt)
        worst = max(worst, abs(series - quad) / max(abs(quad), 1e-30))
    ok = worst < 1e-6
    _verdict(9, ok, f"series vs quadrature exponent on 20 random valid tilts, "
                    f"worst rel dev {worst:.2e} (tol 1e-6)")


def test_10_grid_gap_ratios_at_large_k():
    r1, r2, r3 = grid_gap_ratios(10**6, 0.5, ALPHA)
    ok = abs(r3 - 1.0) < 1e-3 and r1 < 0.05 and r2 < 0.05
    _verdict(10, ok, f"lower-grid gap ratios at k=1e6: r1 {r1:.2e} (<0.05), "
                     f"r2 {r2:.4f} (<0.05), |r3-1| {abs(r3 - 1.0):.2e} (<1e-3)")


def test_11_integral_test_analytic_cases():
    cases = [
        (power_loglog_scaling(2.0 / ALPHA, 0.0), "converges"),
        (power_loglog_scaling(1.0 / ALPHA, 0.0), "diverges"),
        (power_loglog_scaling(0.0, -1.0 / ALPHA), "diverges"),
        (power_loglog_scaling(1.0 / ALPHA, 2.0 / ALPHA), "converges"),
    ]
    got = [integral_test(h, ALPHA).classification for h, _ in cases]
    want = [w for _, w in cases]
    ok = got == want
    _verdict(11, ok, f"four analytic scaling classifications: got {got}")


def test_12_spectral_constant_below_shift_constant():
    pairs = {}
    ok = True
    for alpha in (1.2, 1.5, 1.8):
        k_hat = smallball_constant_spectral(alpha, n_grid=512).value
        c_bound = middle_shift_constant(alpha)
        pairs[alpha] = (k_hat, c_bound)
        ok = ok and k_hat <= c_bound
    detail = ", ".join(f"alpha {a}: {k:.3f} <= {c:.1f}" for a, (k, c) in pairs.items())
    _verdict(12, ok, f"rate constant below shift constant: {detail}")


def test_13_tail_probability_exponent():
    rep = tail_prob_check(ALPHA, [20.0, 40.0, 80.0, 160.0], 100_000,
                          rng=RngStream(20260814), n_steps=2048)
    ok = abs(rep.slope - (-ALPHA)) <= SLOPE_BAND
    _verdict(13, ok, f"sup-tail log-log slope {rep.slope:.4f} "
                     f"(target -{ALPHA} +- {SLOPE_BAND:.3f}) on x in [20, 160], 100k paths")
