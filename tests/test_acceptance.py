"""Acceptance battery: thirteen end-to-end criteria, one test and one
printed PASS/FAIL line each.

Every criterion pins its tolerance, sample size, and seed.  Criteria 01 and
04-12 call the ``diagnostics`` checks that the selftest runs, with their own
pinned arguments; the others keep their bodies here.  Every criterion reports
through a ``CheckResult``, so each line carries its seconds.  Expensive Monte
Carlo runs are shared through module-scoped fixtures: criteria 02, 03 and 13
count one 100k-path draw.  The whole battery is serial and finishes in about
a minute on one core.
"""

import time
from dataclasses import replace

import pytest

import numpy as np

from stable_smallball import AlphaStableParams, RngStream, diagnostics
from stable_smallball.constants import _distinct_levels, _fit_constant, _stable_sups, \
    smallball_constant_spectral
from stable_smallball.diagnostics import CheckResult, _check
from stable_smallball.smallball import _tail_fit

ALPHA = 1.5
PARAMS = AlphaStableParams(ALPHA)
SLOPE_BAND = 0.15 * ALPHA  # fitted exponent must sit within +-0.15 alpha of -alpha


def _verdict(num: int, result: CheckResult) -> None:
    line = (f"[criterion {num:02d}] {'PASS' if result.passed else 'FAIL'} "
            f"{result.name}: {result.detail} ({result.seconds:.1f}s)")
    print(line)
    assert result.passed, line


@pytest.fixture(scope="module")
def sups():
    """sup |X| of 100k CMS paths of 2048 steps, the draw of
    ``smallball_constant_mc`` and ``tail_prob_check`` on this stream, and
    the seconds it took."""
    t0 = time.time()
    return _stable_sups(PARAMS, 100_000, 2048, RngStream(20260814), map), time.time() - t0


@pytest.fixture(scope="module")
def mc_fit(sups):
    """Monte Carlo fit of the small-ball constant on the shared draw, and the
    seconds of draw and fit."""
    t0 = time.time()
    fit = _fit_constant(ALPHA, _distinct_levels((0.6, 0.8, 1.0, 1.2), "radii"), sups[0], 2048)
    return fit, sups[1] + time.time() - t0


def test_01_gaussian_eigenvalue_reference():
    res = _check("gaussian_eigenvalue", diagnostics.check_gaussian_eigenvalue)
    _verdict(1, replace(res, passed=res.passed and res.seconds < 60.0,
                        detail=f"{res.detail}, limit 60s"))


def _exponent_slope(fit, elapsed):
    slope = fit.diagnostics["exponent_slope"]
    ok = abs(slope - (-ALPHA)) <= SLOPE_BAND and elapsed < 600.0
    return ok, (f"log(-log p) vs log r slope {slope:.4f} "
                f"(target -{ALPHA} +- {SLOPE_BAND:.3f}), {elapsed:.0f}s (limit 600s)")


def test_02_smallball_exponent_slope(mc_fit):
    _verdict(2, _check("exponent_slope", _exponent_slope, *mc_fit))


def _mc_constant(fit):
    spectral = smallball_constant_spectral(ALPHA, n_grid=1024)
    rel = abs(fit.value - spectral.value) / spectral.value
    return rel <= 0.15, (f"K_mc {fit.value:.4f} vs K_spectral {spectral.value:.4f}, "
                         f"rel gap {rel:.3f} (tol 0.15)")


def test_03_mc_constant_matches_spectral(mc_fit):
    _verdict(3, _check("mc_constant", _mc_constant, mc_fit[0]))


def test_04_tilted_weights_have_unit_mean():
    _verdict(4, _check("tilted_unit_mean", diagnostics.check_weight_unit_mean,
                       10_000, RngStream(41), 4.0, None))


def test_05_importance_sampling_agrees_with_crude():
    _verdict(5, _check("crude_vs_is", diagnostics.check_crude_vs_is,
                       10_000, 0.8, 2048, RngStream(42), RngStream(43)))


def test_06_truncation_probability():
    _verdict(6, _check("truncation_probability", diagnostics.check_truncation_probability,
                       10_000, RngStream(44), 3.0))


def test_07_anderson_battery_never_flags():
    _verdict(7, _check("anderson_battery", diagnostics.check_anderson,
                       100_000, RngStream(45), 2048))


def test_08_time_change_matches_rescaled_mass():
    _verdict(8, _check("time_change", diagnostics.check_time_change,
                       10_000, 0.01, RngStream(46)))


def test_09_deterministic_exponent_vs_quadrature():
    _verdict(9, _check("deterministic_exponent", diagnostics.check_deterministic_exponent,
                       20, 20260814))


def test_10_grid_gap_ratios_at_large_k():
    _verdict(10, _check("lemma_ratios", diagnostics.check_lemma_ratios))


def test_11_integral_test_analytic_cases():
    _verdict(11, _check("integral_test", diagnostics.check_integral_test))


def test_12_spectral_constant_below_shift_constant():
    _verdict(12, _check("smallball_ordering", diagnostics.check_smallball_ordering))


def _tail_exponent(sups):
    x = np.array([20.0, 40.0, 80.0, 160.0])
    rep = _tail_fit(x, x**ALPHA, sups)
    return abs(rep.slope - (-ALPHA)) <= SLOPE_BAND, (
        f"sup-tail log-log slope {rep.slope:.4f} "
        f"(target -{ALPHA} +- {SLOPE_BAND:.3f}) on x in [20, 160], 100k paths")


def test_13_tail_probability_exponent(sups):
    _verdict(13, _check("tail_exponent", _tail_exponent, sups[0]))
