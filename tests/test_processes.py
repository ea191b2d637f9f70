"""Parameter types, shift functions, estimates."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stable_smallball import (
    AlphaStableParams,
    Estimate,
    ShiftFunction,
    identity_shift,
    make_shift,
    random_shift,
    tent_shift,
    zero_shift,
)
from stable_smallball.processes import _clopper_pearson


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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                              st.floats(-1e6, 1e6)), max_size=8),
           st.floats(-1e6, 1e6))
    def test_json_round_trip_and_segment_slopes(self, interior, end_value):
        knots = [(0.0, 0.0), *sorted(interior), (1.0, end_value)]
        times = np.array([t for t, _ in knots])
        assume(np.all(np.diff(times) > 1e-9))
        f = make_shift(knots)
        g = ShiftFunction.from_json(f.to_json())
        assert np.array_equal(f.knot_times, g.knot_times)
        assert np.array_equal(f.knot_values, g.knot_values)
        for (t0, v0), (t1, v1) in zip(knots[:-1], knots[1:]):
            inner = t0 + (t1 - t0) * np.array([0.25, 0.5, 0.75])
            assert np.all(f.derivative(inner) == (v1 - v0) / (t1 - t0))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=8),
           st.lists(st.floats(0.0, 1.0), max_size=16), st.integers(0, 2**32 - 1))
    def test_derivative_equals_clipped_search(self, interior, extra_t, seed):
        # the slope index, the count of interior knots <= t, equals the
        # clipped index of a search over all knots, at 0, every knot and 1
        times = np.unique([0.0, *interior, 1.0])
        assume(np.all(np.diff(times) > 1e-9))
        values = np.concatenate(([0.0], np.random.default_rng(seed).normal(size=times.size - 1)))
        f = ShiftFunction(times, values)
        t = np.concatenate((times, extra_t))
        old = f.slopes[np.clip(np.searchsorted(times, t, side="right") - 1, 0, f.slopes.size - 1)]
        assert f.derivative(t).tobytes() == old.tobytes()
        assert [f.derivative(float(s)) for s in t] == list(old)

    def test_eval_shift_vectorized(self):
        f = identity_shift()
        t = np.array([0.0, 0.25, 1.0])
        assert np.allclose(f(t), t)

    def test_random_shift_slope_cap(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = random_shift(8, rng)
            assert f.sup_deriv <= 1.0
            assert f(0.0) == 0.0


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

    @pytest.mark.parametrize("n", [1, 2, 7, 29, 30, 100, 12_345, 10**6])
    def test_exact_interval_equals_beta_quantiles(self, n):
        # the quantiles ``scipy.stats.beta.ppf`` gives, bit for bit, for every
        # count within 40 of either end
        from scipy import stats
        tail = (1.0 - 0.95) / 2.0
        for k in sorted({*range(min(n, 40) + 1), *range(max(0, n - 40), n + 1)}):
            lo = 0.0 if k == 0 else float(stats.beta.ppf(tail, k, n - k + 1))
            hi = 1.0 if k == n else float(stats.beta.ppf(1.0 - tail, k + 1, n - k))
            assert _clopper_pearson(k, n) == (lo, hi)

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
