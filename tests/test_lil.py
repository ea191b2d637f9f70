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
    ScalingFunction,
    grid_gap_ratios,
    identity_shift,
    integral_test,
    power_loglog_scaling,
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


def _jump_path(eps, n_steps, seed):
    return sample_jump_batch(PARAMS, eps, 1, n_steps, RngStream(seed))


def _flat_path(values):
    times = np.linspace(0.0, 1.0, values.size)
    return BatchPaths(times=times, values=values[None, :])


def _sup(path):
    return sup_distance_batch(path)[0]


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

    def test_times_materialize_when_safe(self):
        spec = GridSpec(kind="lower", k_min=21, k_max=40)
        t = spec.times()
        assert np.allclose(np.log(t), spec.log_times())

    def test_overflow_guard(self):
        spec = GridSpec(kind="upper", k_min=1, k_max=40, gamma=2.0)
        with pytest.raises(OverflowError):
            spec.times()
        # log-space access keeps working far beyond the float horizon
        assert spec.log_times()[-1] == pytest.approx(1600.0)


class TestGapRatios:
    def test_acceptance_point(self):
        r1, r2, r3 = grid_gap_ratios(10**6, 0.5, 1.5)
        assert abs(r3 - 1.0) < 1e-3
        assert 0.0 <= r1 < 0.05
        assert 0.0 <= r2 < 0.05

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
            (power_loglog_scaling(2.0 / alpha, 0.0), "converges"),
            (power_loglog_scaling(1.0 / alpha, 0.0), "diverges"),
            (power_loglog_scaling(0.0, -1.0 / alpha), "diverges"),
            (power_loglog_scaling(1.0 / alpha, 2.0 / alpha), "converges"),
        ]
        for h, want in cases:
            res = integral_test(h, alpha)
            assert res.classification == want
            assert res.method == "analytic"

    def test_borderline_loglog_power(self):
        # p alpha == 1: converges iff q alpha > 1
        alpha = 1.5
        assert integral_test(power_loglog_scaling(1.0 / alpha, 1.0 / alpha),
                             alpha).classification == "diverges"

    def test_numeric_route_matches_analytic(self):
        alpha = 1.5
        for lp, want in ((2.0 / alpha, "converges"), (1.0 / alpha, "diverges")):
            h = ScalingFunction(kind="custom", func=lambda t, lp=lp: np.log(t) ** lp)
            res = integral_test(h, alpha)
            assert res.method == "numeric"
            assert res.classification == want

    def test_numeric_evidence_fields(self):
        h = ScalingFunction(kind="custom", func=lambda t: np.log(t))
        res = integral_test(h, 1.5)
        assert "tail_ratio" in res.evidence


class TestScaledDistance:
    def test_doubling_loglog_at_delta_zero(self):
        path = _jump_path(0.1, 64, 60)
        r1 = scaled_distance(path, math.exp(2.0), 0.0, 1.5)
        r2 = scaled_distance(path, math.exp(4.0), 0.0, 1.5)
        assert r2.distance / r1.distance == pytest.approx(2.0 ** (1.0 / 1.5),
                                                          rel=1e-12)

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
            sups.append(_sup(sample_stable_batch(PARAMS, 1, 256, rng.child(i))))
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
    def test_reconstruction_machine_precision(self):
        path = _jump_path(0.05, 128, 63)
        y, z = split_at(path, 0.4)
        tol = 8 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(path.values))))
        assert np.max(np.abs(y.values + z.values - path.values)) <= tol

    def test_four_step_example(self):
        times = np.linspace(0.0, 1.0, 5)
        values = np.array([0.0, 1.0, -1.0, 2.0, 3.0])
        path = _flat_path(values)
        y, z = split_at(path, 0.5)
        assert np.array_equal(y.values, [[0.0, 1.0, -1.0, -1.0, -1.0]])
        assert np.array_equal(z.values, [[0.0, 0.0, 0.0, 3.0, 4.0]])

    def test_frozen_sup_matches_restricted_sup(self):
        path = _jump_path(0.05, 128, 64)
        y, _ = split_at(path, 0.37)
        idx = int(np.searchsorted(path.times, 0.37, side="right") - 1)
        keep = path.jump_times <= path.times[idx]
        sliced = dataclasses.replace(
            path, times=path.times[: idx + 1], values=path.values[:, : idx + 1],
            jump_path=path.jump_path[keep], jump_times=path.jump_times[keep],
            jump_sizes=path.jump_sizes[keep], small_noise=path.small_noise[:, :idx])
        assert _sup(y) == _sup(sliced)

    def test_jump_records_partitioned(self):
        path = _jump_path(0.05, 128, 65)
        y, z = split_at(path, 0.6)
        t_star = path.times[int(np.searchsorted(path.times, 0.6, side="right") - 1)]
        assert np.all(y.jump_times <= t_star)
        assert np.all(z.jump_times > t_star)
        assert y.jump_times.size + z.jump_times.size == path.jump_times.size

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

    def test_independence_of_parts(self):
        # correlation between ||Z|| and X(ratio) over many paths is within
        # 4 stderr of 0 by independent increments
        n = 4000
        batch = sample_jump_batch(PARAMS, 0.1, n, 64, RngStream(66))
        norms_z, ends_y = np.empty(n), np.empty(n)
        for i in range(n):
            path = batch.extract(i)
            y, z = split_at(path, 0.5)
            norms_z[i] = np.max(np.abs(z.values))
            ends_y[i] = y.values[0, -1]
        corr = np.corrcoef(np.minimum(norms_z, 10.0), np.sign(ends_y))[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(n)

    def test_ratio_domain(self):
        path = _jump_path(0.2, 16, 67)
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
