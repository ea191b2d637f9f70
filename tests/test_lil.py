"""Horizon grids, gap ratios, integral test, scaled distances, path splits."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stable_smallball import (
    AlphaStableParams,
    BatchPaths,
    DIAGNOSTIC_NOTE,
    GridSpec,
    RngStream,
    grid_gap_ratios,
    integral_test,
    running_min_trace,
    sample_jump_batch,
    sample_scaled_distances,
    sample_stable_batch,
    scaled_distance,
    split_at,
    sup_distance_batch,
    tent_shift,
)

PARAMS = AlphaStableParams(1.5)


def _flat_path(values):
    times = np.linspace(0.0, 1.0, values.size)
    return BatchPaths(times=times, values=values[None, :])


class TestGridSpec:
    def test_lower_grid_monotone(self):
        spec = GridSpec(kind="lower", k_min=21, k_max=500)
        logs = spec.log_times()
        assert np.all(np.diff(logs) > 0.0)
        assert logs[0] == pytest.approx(21.0 / math.log(21.0) ** 3)

    def test_lower_grid_domain_guard(self):
        with pytest.raises(ValueError):
            GridSpec(kind="lower", k_min=10, k_max=50)

    def test_upper_grid(self):
        spec = GridSpec(kind="upper", k_min=1, k_max=10, gamma=1.5)
        assert np.all(np.diff(spec.log_times()) > 0.0)
        assert spec.log_time(4) == pytest.approx(8.0)
        with pytest.raises(ValueError):
            GridSpec(kind="upper", k_min=1, k_max=10, gamma=1.0)


class TestGapRatios:
    def test_r3_in_unit_interval_and_r_nonnegative(self):
        for k in (2000, 10**4, 10**5):
            for delta in (0.0, 0.5, 1.0):
                r1, r2, r3 = grid_gap_ratios(k, delta, 1.5)
                assert 0.0 < r3 <= 1.0
                assert r1 >= 0.0 and r2 >= 0.0

    def test_upper_grid_does_not_collapse(self):
        r1, r2, r3 = grid_gap_ratios(50, 0.5, 1.5, kind="upper", gamma=1.2)
        assert r3 < 0.5  # horizons spread out instead of bunching

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            grid_gap_ratios(10**6, 1.5, 1.5)


class TestIntegralTest:
    def test_four_analytic_cases(self):
        alpha = 1.5
        cases = [
            (2.0 / alpha, 0.0, "converges"),
            (1.0 / alpha, 0.0, "diverges"),
            (0.0, -1.0 / alpha, "diverges"),
            (1.0 / alpha, 2.0 / alpha, "converges"),
        ]
        for p, q, want in cases:
            res = integral_test(p, q, alpha)
            assert res.classification == want
            assert res.evidence == {"p_alpha": p * alpha, "q_alpha": q * alpha}

    def test_borderline_loglog_power(self):
        # p alpha == 1: converges iff q alpha > 1
        alpha = 1.5
        assert integral_test(1.0 / alpha, 1.0 / alpha, alpha).classification == "diverges"

    @pytest.mark.parametrize("alpha", [i / 100 for i in range(101, 200)])
    def test_p_equal_one_over_alpha_is_the_borderline(self, alpha):
        # float(1/alpha) * alpha misses 1 by an ulp for some alphas (1.27 among
        # them); the rule must still read p alpha = 1 and decide on q alpha
        assert integral_test(1.0 / alpha, 2.0 / alpha, alpha).classification == "converges"
        assert integral_test(1.0 / alpha, 1.0 / alpha, alpha).classification == "diverges"


class TestScaledDistance:
    def test_zero_path_with_shift(self):
        path = _flat_path(np.zeros(33))
        loglog = 3.0
        rec = scaled_distance(path, math.exp(loglog), 0.5, 1.5, f=tent_shift())
        # the path term vanishes, leaving (log log T)^delta * ||f||
        assert rec.distance == pytest.approx(loglog**0.5 * 1.0, rel=1e-12)

    def test_domain_guard(self):
        path = _flat_path(np.zeros(9))
        with pytest.raises(ValueError):
            scaled_distance(path, math.e, 0.5, 1.5)
        two = sample_stable_batch(PARAMS, 2, 8, RngStream(59))
        with pytest.raises(ValueError):
            scaled_distance(two, math.exp(3.0), 0.5, 1.5)

    def test_median_against_same_sampler(self):
        # (log log T)^(1/alpha) * median ||X|| from the same sampler should
        # bracket the median scaled distance at delta = 0.5 within 20%
        spec = GridSpec(kind="lower", k_min=1500, k_max=1599)
        recs = sample_scaled_distances(spec, 0.5, 1.5, None, n_steps=256,
                                       rng=RngStream(61))
        med = np.median([r.distance for r in recs])
        lt = spec.log_time(1550)
        ll = math.log(lt)
        sups = []
        rng = RngStream(62)
        for i in range(100):
            sups.append(sup_distance_batch(sample_stable_batch(PARAMS, 1, 256, rng.child(i)))[0])
        ref = ll ** (1.0 / 1.5) * np.median(sups)
        assert med == pytest.approx(ref, rel=0.2)

    def test_sweep_requires_stream(self):
        spec = GridSpec(kind="lower", k_min=1500, k_max=1501)
        with pytest.raises(ValueError, match="RngStream"):
            sample_scaled_distances(spec, 0.5, 1.5, None, n_steps=16, rng=None)

    def test_records_carry_diagnostic_note(self):
        path = _flat_path(np.zeros(9))
        rec = scaled_distance(path, math.exp(3.0), 0.5, 1.5)
        assert rec.note == DIAGNOSTIC_NOTE


class TestSplitAt:
    def test_four_step_example(self):
        times = np.linspace(0.0, 1.0, 5)
        values = np.array([0.0, 1.0, -1.0, 2.0, 3.0])
        path = _flat_path(values)
        y, z = split_at(path, 0.5)
        assert np.array_equal(y.values, [[0.0, 1.0, -1.0, -1.0, -1.0]])
        assert np.array_equal(z.values, [[0.0, 0.0, 0.0, 3.0, 4.0]])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_paths=st.integers(1, 4),
           n_steps=st.integers(32, 128), eps=st.floats(0.02, 0.5),
           ratio=st.floats(0.05, 0.95))
    def test_split_properties_on_random_batches(self, seed, n_paths, n_steps, eps, ratio):
        batch = sample_jump_batch(PARAMS, eps, n_paths, n_steps, RngStream(seed))
        y, z = split_at(batch, ratio)
        tol = 8 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(batch.values))))
        assert np.max(np.abs(y.values + z.values - batch.values)) <= tol
        idx = int(np.searchsorted(batch.times, ratio, side="right") - 1)
        keep = batch.jump_times <= batch.times[idx]
        for part, mask in ((y, keep), (z, ~keep)):
            for name in ("jump_path", "jump_times", "jump_sizes"):
                assert np.array_equal(getattr(part, name), getattr(batch, name)[mask])
        assert not np.any(y.small_noise[:, idx:]) and not np.any(z.small_noise[:, :idx])
        assert np.array_equal(y.small_noise + z.small_noise, batch.small_noise)
        sliced = dataclasses.replace(
            batch, times=batch.times[: idx + 1], values=batch.values[:, : idx + 1],
            jump_path=batch.jump_path[keep], jump_times=batch.jump_times[keep],
            jump_sizes=batch.jump_sizes[keep], small_noise=batch.small_noise[:, :idx])
        assert np.array_equal(sup_distance_batch(y), sup_distance_batch(sliced))

    def test_ratio_domain(self):
        path = sample_jump_batch(PARAMS, 0.2, 1, 16, RngStream(67))
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                split_at(path, bad)


class TestRunningMinTrace:
    def _rec(self, log_t, d):
        rec = scaled_distance(_flat_path(np.zeros(9)), log_t, 0.0, 1.5)
        return type(rec)(log_t=rec.log_t, delta=rec.delta, distance=d, k=None)

    def test_single_record(self):
        trace = running_min_trace([self._rec(3.0, 1.7)])
        assert trace[0][1] == 1.7

    def test_monotone_nonincreasing(self):
        recs = [self._rec(3.0 + i, d) for i, d in enumerate([4.0, 2.5, 3.0, 1.0])]
        mins = [m for _, m in running_min_trace(recs)]
        assert mins == [4.0, 2.5, 2.5, 1.0]

    def test_rejects_unordered(self):
        recs = [self._rec(4.0, 1.0), self._rec(3.0, 1.0)]
        with pytest.raises(ValueError):
            running_min_trace(recs)
