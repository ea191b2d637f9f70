"""Parameter types, shift functions, scaling functions, estimates."""

import json
import math

import numpy as np
import pytest

from stable_smallball import (
    AlphaStableParams,
    Estimate,
    ScalingFunction,
    ShiftFunction,
    identity_shift,
    make_shift,
    power_loglog_scaling,
    random_shift,
    tent_shift,
    zero_shift,
)


class TestAlphaStableParams:
    def test_alpha_range_enforced(self):
        for bad in (0.5, 1.0, 2.0, 2.5):
            with pytest.raises(ValueError):
                AlphaStableParams(bad)

    def test_c_alpha_cached_value(self):
        params = AlphaStableParams(1.5)
        assert params.c_alpha == pytest.approx(3.3421710328413340032, rel=1e-12)

    def test_immutable(self):
        params = AlphaStableParams(1.5)
        with pytest.raises(Exception):
            params.alpha = 1.7


class TestShiftFunction:
    def test_zero_and_identity(self):
        assert zero_shift()(0.7) == 0.0
        assert identity_shift()(0.7) == pytest.approx(0.7)
        assert identity_shift().sup_deriv == 1.0

    def test_tent_peak_and_derivative(self):
        tent = tent_shift()
        assert tent(0.5) == 1.0
        assert tent.sup_deriv == 2.0
        assert tent.derivative(0.25) == 2.0
        assert tent.derivative(0.75) == -2.0
        # right-continuity at the knot
        assert tent.derivative(0.5) == -2.0

    def test_l2_deriv_tent(self):
        assert tent_shift().l2_deriv == pytest.approx(2.0)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            identity_shift()(1.2)
        with pytest.raises(ValueError):
            identity_shift().derivative(-0.1)

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            make_shift([(0.0, 0.3), (1.0, 1.0)])

    def test_knot_times_must_increase(self):
        with pytest.raises(ValueError):
            make_shift([(0.0, 0.0), (0.6, 1.0), (0.4, 0.5), (1.0, 0.0)])

    def test_json_round_trip(self):
        f = make_shift([(0.0, 0.0), (0.3, -0.4), (1.0, 2.0)])
        g = ShiftFunction.from_json(f.to_json())
        assert np.array_equal(f.knot_times, g.knot_times)
        assert np.array_equal(f.knot_values, g.knot_values)
        assert json.loads(f.to_json()) == [[0.0, 0.0], [0.3, -0.4], [1.0, 2.0]]

    def test_eval_shift_vectorized(self):
        f = identity_shift()
        t = np.array([0.0, 0.25, 1.0])
        assert np.allclose(f(t), t)

    def test_random_shift_slope_cap(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = random_shift(8, rng, max_abs_slope=0.7)
            assert f.sup_deriv <= 0.7 + 1e-12
            assert f(0.0) == 0.0

    def test_schwarz_bound_on_time_contraction(self):
        # |f(s) - f(as)| <= l2_deriv (1-a)^(1/2) for a in [0,1], s in [0,1]
        rng = np.random.default_rng(2)
        s = np.linspace(0.0, 1.0, 101)
        for _ in range(10):
            f = random_shift(6, rng)
            for a in (0.0, 0.3, 0.8, 0.97, 1.0):
                gap = np.max(np.abs(f(s) - f(a * s)))
                assert gap <= f.l2_deriv * math.sqrt(1.0 - a) + 1e-12


class TestScalingFunction:
    def test_power_loglog_values(self):
        h = power_loglog_scaling(2.0, 1.0)
        t = math.exp(math.exp(1.3))
        assert h(t) == pytest.approx(math.exp(1.3) ** 2 * 1.3, rel=1e-12)

    def test_custom_callable(self):
        h = ScalingFunction(kind="custom", func=lambda t: np.log(t))
        assert h(math.exp(5.0)) == pytest.approx(5.0)

    def test_domain_guard(self):
        h = power_loglog_scaling(1.0)
        with pytest.raises(ValueError):
            h(1.5)

    def test_positivity_guard(self):
        h = ScalingFunction(kind="custom", func=lambda t: np.log(t) - 100.0)
        with pytest.raises(ValueError):
            h(math.exp(3.0))


class TestEstimate:
    def test_from_bernoulli_normal_regime(self):
        est = Estimate.from_bernoulli(500, 10_000)
        assert est.value == pytest.approx(0.05)
        assert est.stderr == pytest.approx(math.sqrt(0.05 * 0.95 / 10_000), rel=1e-9)
        assert est.flags == ()

    def test_from_bernoulli_rare_uses_exact_interval(self):
        est = Estimate.from_bernoulli(2, 10_000)
        assert "exact_interval" in est.flags
        lo, hi = est.ci95
        assert 0.0 <= lo < est.value < hi

    def test_zero_successes_flagged_unresolved(self):
        est = Estimate.from_bernoulli(0, 1000)
        assert est.value == 0.0
        assert "unresolved_at_this_n" in est.flags

    def test_overlaps(self):
        def mk(v):
            return Estimate(value=v, stderr=0.01, n=100,
                            ci95=(v - 0.0196, v + 0.0196))
        a, b, c = mk(0.5), mk(0.52), mk(0.9)
        assert a.overlaps(b) and not a.overlaps(c)

    def test_ci_clipped_to_unit_interval_for_probabilities(self):
        est = Estimate.from_bernoulli(9999, 10_000)
        assert est.ci95[1] <= 1.0
