"""Path samplers, RNG streams, sup-distance evaluation, CSV dumps."""

import dataclasses
import math
import multiprocessing
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from stable_smallball import (
    AlphaStableParams,
    BatchPaths,
    RngStream,
    TiltSpec,
    batch_plan,
    identity_shift,
    map_batches,
    sample_jump_batch,
    sample_stable_batch,
    sample_sups,
    sample_tilted_batch,
    sample_time_changed_batch,
    standard_symmetric_stable,
    sup_distance_batch,
    tent_shift,
    write_path_csv,
    zero_shift,
)
from stable_smallball import diagnostics, simulate, smallball
from stable_smallball.diagnostics import weight_battery
from stable_smallball.simulate import _jump_order, _sup_matrix

PARAMS = AlphaStableParams(1.5)


class TestRngStream:
    def test_same_seed_same_bits(self):
        a = RngStream(7).generator().random(5)
        b = RngStream(7).generator().random(5)
        assert np.array_equal(a, b)

    def test_children_differ_from_parent_and_each_other(self):
        root = RngStream(7)
        seqs = [root.generator().random(4), root.child(0).generator().random(4),
                root.child(1).generator().random(4),
                root.child(0, 1).generator().random(4)]
        for i in range(len(seqs)):
            for j in range(i + 1, len(seqs)):
                assert not np.array_equal(seqs[i], seqs[j])

    def test_child_path_is_stable(self):
        a = RngStream(3).child(2).child(5).generator().random(3)
        b = RngStream(3).child(2, 5).generator().random(3)
        assert np.array_equal(a, b)


class TestStandardVariates:
    def test_characteristic_function(self):
        rng = RngStream(11)
        s = standard_symmetric_stable(1.5, 200_000, rng)
        for u in (0.5, 1.0, 2.0):
            ecf = np.mean(np.cos(u * s))
            se = np.std(np.cos(u * s)) / math.sqrt(s.size)
            assert abs(ecf - math.exp(-u**1.5)) < 5.0 * se

    def test_symmetry(self):
        # independent halves: x vs -x on the same sample is antithetic and
        # breaks the KS independence assumption
        s = standard_symmetric_stable(1.3, 100_000, RngStream(12))
        p = stats.ks_2samp(s[:50_000], -s[50_000:]).pvalue
        assert p > 0.01


class TestIncrementSampler:
    def test_shape_and_origin(self):
        batch = sample_stable_batch(PARAMS, 10, 64, RngStream(1))
        assert batch.values.shape == (10, 65)
        assert np.all(batch.values[:, 0] == 0.0)
        assert batch.times[0] == 0.0 and batch.times[-1] == 1.0

    def test_self_similarity_of_marginals(self):
        # X(T s) / T^(1/alpha) should match X(s) in law at fixed s; the clock
        # of constant speed T runs the path at X(T s)
        n = 10_000
        base = sample_stable_batch(PARAMS, n, 64, RngStream(3))
        for speed, seed in ((2.0, 4), (8.0, 5)):
            other = sample_time_changed_batch(PARAMS, lambda t: np.full_like(t, speed), n, 64,
                                              RngStream(seed))
            for frac in (16, 32, 64):
                a = base.values[:, frac]
                b = other.values[:, frac] / speed ** (1.0 / 1.5)
                assert stats.ks_2samp(a, b).pvalue > 0.01

    def test_marginal_symmetry(self):
        batch = sample_stable_batch(PARAMS, 10_000, 32, RngStream(6))
        x1 = batch.values[:, -1]
        assert stats.ks_2samp(x1[:5000], -x1[5000:]).pvalue > 0.01


class TestJumpSampler:
    def test_jump_counts_poisson(self):
        eps = 0.1
        n = 10_000
        batch = sample_jump_batch(PARAMS, eps, n, 64, RngStream(7))
        counts = np.bincount(batch.jump_path, minlength=n)
        mean = (2.0 / 1.5) * eps**-1.5
        # chi-square goodness of fit against Poisson(mean), tail-merged
        kmax = int(stats.poisson.ppf(0.999, mean))
        obs = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
        probs = stats.poisson.pmf(np.arange(kmax + 1), mean)
        probs[-1] = 1.0 - probs[:-1].sum()
        keep = probs * n >= 5
        chi2 = np.sum((obs[keep] - n * probs[keep]) ** 2 / (n * probs[keep]))
        p = stats.chi2.sf(chi2, keep.sum() - 1)
        assert p > 0.01

    def test_jump_magnitudes_pareto(self):
        batch = sample_jump_batch(PARAMS, 0.2, 4000, 32, RngStream(8))
        mags = np.abs(batch.jump_sizes)
        assert np.all(mags >= 0.2)
        u = (0.2 / mags) ** 1.5  # probability-integral transform
        assert stats.kstest(u, "uniform").pvalue > 0.01

    def test_sign_symmetry(self):
        batch = sample_jump_batch(PARAMS, 0.1, 4000, 32, RngStream(9))
        frac = np.mean(batch.jump_sizes > 0)
        n = batch.jump_sizes.size
        assert abs(frac - 0.5) < 4.0 * math.sqrt(0.25 / n)

    def test_matches_increment_sampler_in_law(self):
        n = 20_000
        a = sample_stable_batch(PARAMS, n, 256, RngStream(10))
        b = sample_jump_batch(PARAMS, 0.02, n, 256, RngStream(11))
        sup_a = np.max(np.abs(a.values), axis=1)
        sup_b = np.max(np.abs(b.values), axis=1)
        assert stats.ks_2samp(sup_a, sup_b).pvalue > 0.01

    def test_cutoff_floor_of_one_batch(self):
        # (2/alpha) eps^-alpha expected records per path: 1.01M at 1.2e-4,
        # 1.07M at 1.16e-4, which is above the 2^20 one batch may hold
        assert sample_jump_batch(PARAMS, 1.2e-4, 1, 2, RngStream(12)).jump_sizes.size > 0
        with pytest.raises(ValueError, match="expected jump records per path exceed"):
            sample_jump_batch(PARAMS, 1.16e-4, 1, 2, RngStream(12))


class TestTruncatedSampler:
    def test_no_jump_reaches_2r(self):
        # zero tilt: the law truncated at the ball's diameter 2r, the jumps
        # in [r, 2r) kept
        tilt = TiltSpec.middle_shift(PARAMS, zero_shift(), 0.0, 0.7)
        batch = sample_tilted_batch(tilt, 200, 64, RngStream(13))[0]
        size = np.abs(batch.jump_sizes)
        assert np.max(size) < 1.4 and np.any(size >= 0.7)


class TestTiltedSampler:
    def test_martingale_mode_centered(self):
        tilt = TiltSpec.middle_shift(PARAMS, identity_shift(), 0.5, 1.0)
        batch, _ = sample_tilted_batch(tilt, 4000, 128, RngStream(17))
        x1 = batch.values[:, -1]
        assert abs(np.mean(x1)) < 4.0 * np.std(x1) / math.sqrt(x1.size)


class TestProxyBridge:
    """The jump samplers' Gaussian proxy: one sum per coarse interval, then
    bridged to every step of it."""

    def test_steps_are_iid_and_sum_to_their_coarse_draws(self):
        # 300 steps are 4 time blocks of 75: each holds 9 coarse intervals of
        # 8 steps and a last one of 3; every call of the bridge is recorded
        n_paths, n_steps, eps = 2000, 300, 0.05
        bridge, calls = simulate._bridge, []

        def recorded(steps, sums, sd, lens):
            bridge(steps, sums, sd, lens)
            calls.append((steps.copy(), sums.copy(), lens))

        with mock.patch.object(simulate, "_bridge", recorded):
            batch = sample_jump_batch(PARAMS, eps, n_paths, n_steps, RngStream(72))
        sd = math.sqrt(simulate.truncated_second_moment(PARAMS.alpha, eps) / n_steps)
        for steps, sums, lens in calls:  # within rounding, each interval sums to its draw
            assert list(lens) == [8] * 9 + [3]
            got = np.add.reduceat(steps, np.r_[0, np.cumsum(lens)[:-1]], axis=1)
            assert np.allclose(got, sums, rtol=0.0, atol=1e-12 * sd)
        drawn = np.concatenate([steps.ravel() for steps, _, _ in calls])
        assert np.array_equal(np.sort(drawn), np.sort(batch.small_noise.ravel()))
        # i.i.d. N(0, sd^2) steps: unit variance of z = proxy / sd, over all
        # steps and over the short intervals' alone, and no lag-1
        # correlation inside an interval, across an interval's end or across
        # a time block's end
        assert simulate._block_edges(n_steps) == [0, 75, 150, 225, 300]
        z = batch.small_noise / sd
        local = np.arange(n_steps) % 75
        for sq in (z * z, z[:, local >= 72] ** 2):
            assert abs(sq.mean() - 1.0) < 4.0 * math.sqrt(2.0 / sq.size)
        interval = np.arange(n_steps) // 75 * 10 + local // 8
        lag = z[:, :-1] * z[:, 1:]
        inside = interval[1:] == interval[:-1]
        block_end = local[1:] == 0
        for pairs in (inside, ~inside & ~block_end, block_end):
            assert abs(lag[:, pairs].mean()) < 4.0 / math.sqrt(lag[:, pairs].size)


class TestTimeChange:
    def test_quadratic_clock(self):
        # speed 2t integrates to t^2; the path at grid time t must be the
        # homogeneous path at clock time t^2, here checked in law at t=1
        n = 10_000
        a = sample_time_changed_batch(PARAMS, lambda t: 2.0 * t, n, 512, RngStream(20))
        b = sample_stable_batch(PARAMS, n, 512, RngStream(21))
        assert stats.ks_2samp(a.values[:, -1], b.values[:, -1]).pvalue > 0.01

    def test_rejects_negative_speed(self):
        with pytest.raises(ValueError):
            sample_time_changed_batch(PARAMS, lambda t: t - 0.5, 5, 32, RngStream(24))


class TestSupDistance:
    def test_zero_shift_is_plain_sup(self):
        batch = sample_stable_batch(PARAMS, 50, 64, RngStream(25))
        got = sup_distance_batch(batch)
        assert np.array_equal(got, np.max(np.abs(batch.values), axis=1))

    def test_constant_path_vs_scaled_identity(self):
        path = sample_stable_batch(PARAMS, 1, 8, RngStream(26))
        flat = dataclasses.replace(path, values=np.zeros_like(path.values))
        assert sup_distance_batch(flat, identity_shift(), shift_scale=2.0)[0] == 2.0

    def test_tent_peak(self):
        path = sample_stable_batch(PARAMS, 1, 8, RngStream(27))
        flat = dataclasses.replace(path, values=np.zeros_like(path.values))
        assert sup_distance_batch(flat, tent_shift(), shift_scale=1.0)[0] == 1.0

    def test_jump_refinement_sees_pre_jump_value(self):
        # one jump of +2 arriving mid-step on an otherwise flat path: the
        # pre-jump value is 0, after it the path sits at 2; with a shift of
        # -1 the refined sup must see |0 - (-1)| = 1 before the jump
        times = np.linspace(0.0, 1.0, 5)
        values = np.array([[0.0, 0.0, 2.0, 2.0, 2.0]])
        path = BatchPaths(times=times, values=values, jump_path=np.array([0]),
                          jump_times=np.array([0.3]), jump_sizes=np.array([2.0]))
        assert sup_distance_batch(path)[0] == 2.0
        got = sup_distance_batch(path, identity_shift(), shift_scale=-1.0)[0]
        assert got >= 2.0 + 0.25  # |2 - (-t)| at t >= 0.25 beats the grid-only 2

    def test_binning_and_limits_share_the_step_rule(self):
        # at 1000 steps, t * 1000 is 117.0 but t / (1/1000) is 116.99...; a
        # jump binned into one step and replayed in the other read 0 -> -10
        # for the path 0 -> 5 -> -5
        n_steps = 1000
        t = np.array([1.0 - 0.883, 0.1175])
        assert t[0] * n_steps == 117.0 and t[0] / (1.0 / n_steps) < 117.0
        planted = (np.zeros(2, dtype=np.int64), t, np.array([5.0, -10.0]), None)
        empty = (np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0), None)

        def counts(self, gen, rows, width):  # block by block: both records in the first
            return np.array([[2 if next(first) else 0]])

        def records(self, cells, lo, hi):
            return planted if lo < t[0] <= hi else empty

        # a proxy variance of 0 draws a zero proxy
        first = iter([True] + [False] * 7)
        with mock.patch.object(simulate._Bands, "counts", counts), \
                mock.patch.object(simulate._Bands, "records", records), \
                mock.patch.object(simulate, "truncated_second_moment", lambda *_: 0.0):
            batch = sample_jump_batch(PARAMS, 1.0, 1, n_steps, RngStream(0))
        assert batch.jump_times.tobytes() == t.tobytes()
        assert sup_distance_batch(batch)[0] == pytest.approx(5.0, rel=0.0, abs=np.spacing(5.0))

    @settings(max_examples=60, deadline=None)
    @given(n_steps=st.integers(2, 5000), pick=st.integers(0, 10**6))
    @example(n_steps=1000, pick=0)
    def test_records_at_a_block_edge_stay_in_their_block(self, n_steps, pick):
        # a cell draws its instants in (lo, hi] of its block: an instant
        # uniform of 0 gives hi itself, one just below 1 the float above lo;
        # each stays in its block's steps, as do instants at, and one ulp
        # either side of, every block edge (step i holds (t_i, t_i+1])
        times = np.linspace(0.0, 1.0, n_steps + 1)
        edges = simulate._block_edges(n_steps)
        k = pick % (len(edges) - 1)
        lo, hi = times[edges[k]], times[edges[k + 1]]
        u = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
        cell = (_Planted(np.concatenate([u, np.full(u.size, 0.25)])), np.array([[u.size]]))
        _, t, _, _ = simulate._Bands(1.5, [(1.0, 1.0, np.inf)]).records([cell], lo, hi)
        assert t[0] == hi and np.all((lo < t) & (t <= hi))
        step = simulate._record_steps(t, times)[0]
        assert np.all((edges[k] <= step) & (step < edges[k + 1]))
        edge = times[np.array(edges[1:])]
        t = np.concatenate([np.nextafter(edge, 0.0), edge, np.nextafter(edge[:-1], 2.0)])
        step, frac = simulate._record_steps(t, times)
        assert np.all(times[step] < t) and np.all(t <= times[step + 1])
        assert np.all(np.abs(frac - 0.5) <= 0.5 + 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_paths=st.integers(1, 6),
           n_steps=st.integers(2, 48), eps=st.floats(0.05, 2.0),
           shift=st.sampled_from([None, identity_shift(), tent_shift()]),
           shift_scale=st.floats(-2.0, 2.0), path_scale=st.floats(0.25, 2.0))
    def test_refined_sup_property(self, seed, n_paths, n_steps, eps, shift, shift_scale,
                                  path_scale):
        batch = sample_jump_batch(PARAMS, eps, n_paths, n_steps, RngStream(seed))
        refined = sup_distance_batch(batch, shift, shift_scale, path_scale)
        target = 0.0 if shift is None else shift_scale * shift(batch.times)
        grid = np.max(np.abs(path_scale * batch.values - target), axis=1)
        assert np.all(refined >= grid)
        expected = _replayed_sup(batch, shift, shift_scale, path_scale)
        assert np.allclose(refined, expected, rtol=1e-12, atol=1e-9)

    def test_targets_share_one_geometry_in_any_order(self):
        tilt = TiltSpec.middle_shift(PARAMS, identity_shift(), c=0.2, r=0.8)
        for batch in (sample_jump_batch(PARAMS, 0.1, 30, 64, RngStream(31)),
                      sample_tilted_batch(tilt, 30, 64, RngStream(32))[0]):
            targets = [(None, 0.0, 1.0), (identity_shift(), 0.5, 1.0),
                       (tent_shift(), -1.0, 1.0), (identity_shift(), 2.0, 0.7)]
            fresh = [sup_distance_batch(dataclasses.replace(batch), *args) for args in targets]
            for order in ([0, 1, 2, 3], [3, 1, 0, 2], [2, 2, 0, 3, 1, 0]):
                for i in order:
                    assert np.array_equal(sup_distance_batch(batch, *targets[i]), fresh[i])

    def test_path_without_jumps_keeps_grid_sup(self):
        batch = sample_jump_batch(PARAMS, 2.0, 40, 64, RngStream(33))
        bare = np.setdiff1d(np.arange(batch.n_paths), batch.jump_path)
        assert 0 < bare.size < batch.n_paths
        for f, lam in ((None, 0.0), (identity_shift(), 1.5), (tent_shift(), -0.5)):
            target = 0.0 if f is None else lam * f(batch.times)
            grid = np.max(np.abs(batch.values - target), axis=1)
            refined = sup_distance_batch(batch, f, lam)
            assert np.array_equal(refined[bare], grid[bare])
            assert np.all(refined >= grid)


# targets of the kernel property: a list may repeat one f object, and the
# last entry is a second identity object that a shared f cache must keep apart
SHIFTS = [None, identity_shift(), tent_shift(), identity_shift()]
TILTS = [TiltSpec.middle_shift(PARAMS, identity_shift(), c=0.2, r=0.8),
         TiltSpec.small_shift(PARAMS, tent_shift(), lam=0.2, r=0.6)]


def _tilted_paths(tilt, n_paths, n_steps, rng, eps_cutoff=None):
    """The paths of ``sample_tilted_batch``, without their log-weights."""
    return sample_tilted_batch(tilt, n_paths, n_steps, rng, eps_cutoff)[0]


@st.composite
def _kernel_batches(draw):
    """Jump and tilted (with drift) batches, each with the Gaussian proxy,
    stable batches (no proxy, no records) and record-free jump batches,
    1-9 paths."""
    kind = draw(st.sampled_from(["jump", "tilted", "stable", "bare"]))
    n_paths, n_steps = draw(st.integers(1, 9)), draw(st.integers(2, 40))
    rng = RngStream(draw(st.integers(0, 2**32 - 1)))
    if kind == "stable":
        return sample_stable_batch(PARAMS, n_paths, n_steps, rng)
    if kind == "tilted":
        return _tilted_paths(draw(st.sampled_from(TILTS)), n_paths, n_steps, rng)
    if kind == "bare":  # at this cutoff, empty record arrays
        return sample_jump_batch(PARAMS, 1e3, n_paths, n_steps, rng)
    return sample_jump_batch(PARAMS, draw(st.floats(0.05, 1.0)), n_paths, n_steps, rng)


def _one_target_sup(batch, f, shift_scale, path_scale):
    """One target's refined sup: the grid max, then the pre/post candidates
    of every jump record over the whole batch at once, with the prefix of
    earlier jumps in the same step summed one record at a time."""
    times, values = batch.times, batch.values
    target = np.zeros_like(times) if f is None else shift_scale * np.asarray(f(times), dtype=float)
    out = np.max(np.abs(path_scale * values - target), axis=1)
    if batch.jump_times is None or batch.jump_times.size == 0:
        return out
    p, t, x = batch.jump_path, batch.jump_times, batch.jump_sizes
    step = np.clip(np.searchsorted(times, t) - 1, 0, batch.n_steps - 1)  # t in (t_i, t_i+1]
    frac = t / batch.dt - step
    smooth = np.zeros(t.size)
    if batch.drift_steps is not None:
        smooth += batch.drift_steps[step]
    if batch.small_noise is not None:
        smooth += batch.small_noise[p, step]
    key = p * batch.n_steps + step
    excl = np.zeros(t.size)
    for i in range(1, t.size):
        if key[i] == key[i - 1]:
            excl[i] = excl[i - 1] + x[i - 1]
    pre = values[p, step] + smooth * frac + excl
    t_target = np.zeros_like(t) if f is None else shift_scale * np.asarray(f(t), dtype=float)
    cand = np.maximum(np.abs(path_scale * pre - t_target),
                      np.abs(path_scale * (pre + x) - t_target))
    starts = np.flatnonzero(np.r_[True, p[1:] != p[:-1]])
    out[p[starts]] = np.maximum(out[p[starts]], np.maximum.reduceat(cand, starts))
    return out


class TestSupMatrix:
    @settings(max_examples=150, deadline=None)
    @given(batch=_kernel_batches(),
           targets=st.lists(st.tuples(st.sampled_from(SHIFTS), st.floats(-2.0, 2.0)),
                            min_size=1, max_size=6),
           path_scale=st.sampled_from([1.0, 0.5, 1.7]),
           block=st.sampled_from([1, 16, 100, simulate._PIECE_ELEMS]),
           cap=st.sampled_from(["inf", "below", "above", "equal", "grid"]),
           pick=st.integers(0, 10**6))
    def test_rows_equal_one_target_sups(self, batch, targets, path_scale, block, cap, pick):
        # small blocks put several blocks in one batch, leave a short last
        # block, or make one grid row longer than a block
        with mock.patch.object(simulate, "_PIECE_ELEMS", block):
            got = _sup_matrix(batch, targets, path_scale)
            assert got.shape == (len(targets), batch.n_paths)
            for row, (f, lam) in zip(got, targets):
                assert np.array_equal(row, _one_target_sup(batch, f, lam, path_scale))
            grid = _sup_matrix(dataclasses.replace(batch, jump_times=None), targets, path_scale)
            # "equal" is one refined sup; "grid" the least grid sup of one path,
            # which leaves that path decided, on the boundary of the test
            cap = {"inf": np.inf, "below": np.nextafter(got.min(), -np.inf),
                   "above": np.nextafter(got.max(), np.inf), "equal": got.flat[pick % got.size],
                   "grid": grid.min(axis=0)[pick % batch.n_paths]}[cap]
            recorded = {id(f): _Recorded(f) for f, _ in targets if f is not None}
            watched = [(None if f is None else recorded[id(f)], lam) for f, lam in targets]
            capped = _sup_matrix(batch, watched, path_scale, cap)
        assert np.array_equal(capped, np.minimum(got, cap))
        # only undecided paths, grid sup below cap for some target, are refined:
        # each f sees the grid, then exactly those paths' jump instants
        if batch.jump_times is not None:
            undecided = np.flatnonzero((grid < cap).any(axis=0))
            want = np.sort(batch.jump_times[np.isin(batch.jump_path, undecided)])
            for f in recorded.values():
                assert np.array_equal(np.sort(np.concatenate([want[:0], *f.calls[1:]])), want)


def _replayed_sup(batch, f, shift_scale, path_scale):
    """Refined sup of a ``sample_jump_batch`` (Gaussian proxy, no drift),
    replaying each path's jumps one step at a time."""
    def dist(s, x):
        target = 0.0 if f is None else shift_scale * float(f(s))
        return abs(path_scale * x - target)

    dt, n_steps = batch.dt, batch.n_steps
    out = []
    for i in range(batch.n_paths):
        best = max(dist(s, x) for s, x in zip(batch.times, batch.values[i]))
        sel = batch.jump_path == i
        for k in range(n_steps):
            smooth = batch.small_noise[i, k]
            x = batch.values[i, k]
            t0 = k * dt
            for s, jump in zip(batch.jump_times[sel], batch.jump_sizes[sel]):
                if min(int(s / dt), n_steps - 1) != k:
                    continue
                left = x + smooth * (s - t0) / dt
                best = max(best, dist(s, left), dist(s, left + jump))
                x += jump
        out.append(best)
    return np.array(out)


def _records(draw, paths):
    """(path, time) records: times on the 2^-53 lattice of ``1 - random()``,
    clustered round a few centres so keys tie or nearly tie after rounding."""
    centres = draw(st.lists(st.integers(1, 2**53), min_size=1, max_size=4))
    offsets = st.integers(-(2**22), 2**22)
    ticks = [min(max(draw(st.sampled_from(centres)) + draw(offsets), 1), 2**53)
             for _ in paths]
    return np.asarray(paths, dtype=np.int64), np.asarray(ticks, dtype=float) * 2.0**-53


@st.composite
def clustered_records(draw):
    pool = draw(st.lists(st.integers(0, 2**20), min_size=1, max_size=4))
    paths = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=80))
    return _records(draw, paths)


@st.composite
def interior_plus_exterior(draw):
    """Grouped interior records followed by grouped exterior ones, as the
    small-regime tilted sampler concatenates them before sorting."""
    n_paths = draw(st.integers(1, 6))
    first = draw(st.integers(0, 2**20 - n_paths))
    counts = [draw(st.lists(st.integers(0, 8), min_size=n_paths, max_size=n_paths))
              for _ in range(2)]
    paths = np.concatenate([np.repeat(np.arange(first, first + n_paths), c) for c in counts])
    return _records(draw, paths.tolist())


class TestJumpOrder:
    """The binning sort must equal ``np.lexsort((t, path))`` element for element."""

    @settings(max_examples=300, deadline=None)
    @given(clustered_records())
    @example((np.array([1, 0]), np.array([2.0**-53, 1.0])))  # keys 1.0 == 1.0
    @example((np.array([2**20] * 3), np.array([0.5 + 2.0**-40, 0.5, 0.5 + 2.0**-40])))
    @example((np.array([3, 3, 3]), np.array([1.0, 1.0, 1.0])))
    def test_equals_lexsort(self, records):
        p, t = records
        assert np.array_equal(_jump_order(p, t), np.lexsort((t, p)))

    @settings(max_examples=150, deadline=None)
    @given(interior_plus_exterior())
    def test_equals_lexsort_on_concatenated_records(self, records):
        p, t = records
        assert np.array_equal(_jump_order(p, t), np.lexsort((t, p)))

    @pytest.mark.parametrize("owners", [(0, 3), (simulate._PIECE_ELEMS // 2 - 4,
                                                 simulate._PIECE_ELEMS // 2)],
                             ids=["low_owners", "largest_owners"])
    def test_more_than_two_to_the_sixteen_records(self, owners):
        # 70000 records need 17 index bits; the largest local owner of a piece
        # is _PIECE_ELEMS // 2 - 1 (two steps a path), where the truncated keys
        # are coarsest; planted exact ties and instants of 1.0 ride along
        rng = np.random.default_rng(71)
        n = 70_000
        p = rng.integers(*owners, n)
        t = 1.0 - rng.random(n)
        t[rng.integers(0, n, 500)] = 1.0
        dup = rng.integers(0, n, (2, 500))
        p[dup[0]], t[dup[0]] = p[dup[1]], t[dup[1]]
        assert np.array_equal(_jump_order(p, t), np.lexsort((t, p)))

    def test_one_record(self):
        assert np.array_equal(_jump_order(np.array([5]), np.array([1.0])), [0])
        assert _jump_order(np.array([], dtype=np.int64), np.array([])).size == 0

    def test_keys_that_tie_only_once_truncated(self):
        # 0.5 and the next float after it differ in the last bit of the key,
        # which a sort of 4 records clears: the later instant comes first
        p = np.array([0, 0, 3, 0])
        t = np.array([np.nextafter(0.5, 1.0), 0.5, 1.0, np.nextafter(0.5, 1.0)])
        assert len(set((p + t).tolist())) == 3
        assert np.array_equal(_jump_order(p, t), [1, 0, 3, 2])


class TestBatchPlan:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**6), st.integers(2, 8192),
           st.one_of(st.just(0.0), st.floats(1e-3, 1e7)))
    @example(100_000, 2048, 0.0)
    @example(10_000, 256, 6683.1)  # criterion 04's small-regime tilt: 65 batches
    @example(1000, 2048, 471404.0)  # crude at r = 0.01: 2 paths per batch, not 64
    def test_covers_total_deterministically(self, n_total, n_steps, records):
        plan = batch_plan(n_total, n_steps, records)
        sizes = [size for _, size in plan]
        assert sum(sizes) == n_total and min(sizes) > 0
        assert [b for b, _ in plan] == list(range(len(plan)))
        assert len(set(sizes[:-1])) <= 1 and sizes[-1] <= sizes[0]
        assert plan == batch_plan(n_total, n_steps, records)
        if records == 0.0:
            assert plan == batch_plan(n_total, n_steps)
            assert sizes[0] == min(n_total, max(64, simulate._BATCH_ELEMS // (n_steps + 1)))
        else:  # the 64-path floor of the grid bound never lifts a batch above the records bound
            assert sizes[0] <= max(1, simulate._BATCH_RECORDS // records)

    def test_small_total_single_batch(self):
        assert batch_plan(50, 64) == [(0, 50)]


def _echo(stream, size):
    return stream, size


# samplers that stream the Gaussian proxy or the stable transform's exponentials
# on the helper thread; every one is a module-level partial, so a process pool takes it
HELPER_SAMPLERS = {
    "jump": partial(sample_jump_batch, PARAMS, 0.1),
    "stable": partial(sample_stable_batch, PARAMS),
    "tilted": partial(_tilted_paths, TILTS[0], eps_cutoff=0.1),
}
HELPER_TARGETS = [(None, 0.0), (identity_shift(), 0.5), (tent_shift(), -1.0)]


def _first_path(stream, size):
    return sample_jump_batch(PARAMS, 0.1, size, 256, stream).extract(0)


def _capped_jump(n_paths, n_steps, stream):
    """The survivors of a jump batch drawn with its sups capped at 1.5."""
    with simulate._streamed_sups(HELPER_TARGETS, 1.5):
        return HELPER_SAMPLERS["jump"](n_paths, n_steps, stream)


def _owners(sample, refs, stream, size):
    """Draw a batch and append a weak reference to the array that owns the
    memory of each of its arrays; return how many paths it holds."""
    result = sample(size, 256, stream)
    batch, lw = result if isinstance(result, tuple) else (result, None)
    arrays = [getattr(batch, field.name) for field in dataclasses.fields(batch)] + [lw]
    for a in arrays:
        if a is None:
            continue
        while isinstance(a.base, np.ndarray):
            a = a.base
        refs.append(weakref.ref(a))
    return batch.n_paths


# kernels of every estimator route that maps jump-resolved or stable draws, each
# (kernel, records per path); each pickles, so a process pool takes it
_IS_EPS, *_IS_RATES = simulate.tilted_jump_rates(TILTS[0], 0.1)
_ORACLE_RATE = simulate._jump_rate(PARAMS.alpha, 0.2)
MAPPED_KERNELS = {
    **{name: (partial(simulate._sups_kernel, sample, tuple(HELPER_TARGETS), 256, np.inf), 0.0)
       for name, sample in HELPER_SAMPLERS.items()},
    "capped": (partial(simulate._sups_kernel, HELPER_SAMPLERS["jump"], tuple(HELPER_TARGETS),
                       256, 1.5), 0.0),
    "is": (partial(smallball._is_kernel, TILTS[0], 0.8, 256, _IS_EPS), sum(_IS_RATES)),
    "no_big_jump": (partial(smallball._no_big_jump_kernel, PARAMS, 0.8, 0.2), _ORACLE_RATE),
}


class TestMapBatches:
    def test_one_child_stream_per_batch_in_plan_order(self):
        stream = RngStream(31)
        got = map_batches(_echo, 5000, 2048, stream)
        assert len(got) == 3
        assert got == [(stream.child(b), size) for b, size in batch_plan(5000, 2048)]

    def test_sample_sups_rows_follow_the_plan(self):
        stream = RngStream(33)
        sample = partial(sample_stable_batch, PARAMS)
        targets = [(None, 0.0), (identity_shift(), 0.5), (tent_shift(), 1.5)]
        plan = batch_plan(2100, 2048)
        assert len(plan) >= 2
        batches = [sample(size, 2048, stream.child(b)) for b, size in plan]
        want = np.stack([np.concatenate([sup_distance_batch(batch, f, lam) for batch in batches])
                         for f, lam in targets])
        got = sample_sups(sample, targets, 2100, 2048, stream)
        assert got.shape == (3, 2100) and np.array_equal(got, want)
        with ThreadPoolExecutor(max_workers=2) as ex:
            pooled = sample_sups(sample, targets, 2100, 2048, stream, pmap=ex.map)
        assert pooled.tobytes() == got.tobytes()

    def test_end_values_outlive_their_batch(self):
        # the kernel draws with no target, so its pieces sum their rows in
        # buffers of their own and write X(1) into an array that owns its
        # memory: a view of a piece's buffer would keep it alive with the result
        tilt = weight_battery(PARAMS)[0][1]
        eps, rate_int, rate_ext = simulate.tilted_jump_rates(tilt, None)
        plan = batch_plan(2000, 256, rate_int + rate_ext)
        assert len(plan) >= 2
        stream = RngStream(62)
        want = np.concatenate([
            sample_tilted_batch(tilt, size, 256, stream.child(b), eps_cutoff=eps)[0].values[:, -1]
            for b, size in plan])
        parts = map_batches(partial(diagnostics._end_value_kernel, tilt, 256, eps), 2000, 256,
                            stream, records=rate_int + rate_ext)
        assert all(part.base is None for part in parts)
        got = diagnostics._map_tilted(diagnostics._end_value_kernel, tilt, 2000, 256, stream)
        assert got.tobytes() == np.concatenate(parts).tobytes() == want.tobytes()

    def test_extracted_paths_outlive_their_batch(self):
        with mock.patch.object(simulate, "_BATCH_ELEMS", 1 << 14):  # 64-path batches
            plan = batch_plan(300, 256)
            got = map_batches(_first_path, 300, 256, RngStream(64))
        want = [_first_path(RngStream(64).child(b), size) for b, size in plan]
        assert [_sample_bytes(path) for path in got] == [_sample_bytes(path) for path in want]
        # each copied array owns its memory, so no path keeps its batch alive
        assert all(a.base is None for path in got for a in (
            path.values, path.small_noise, path.jump_path, path.jump_times, path.jump_sizes))

    @pytest.mark.parametrize("pmap", ["serial", "threads"])
    @pytest.mark.parametrize("name", sorted([*HELPER_SAMPLERS, "capped"]))
    def test_every_batch_array_is_freed_when_its_kernel_returns(self, name, pmap):
        # 300 paths in 64-path batches: no batch's memory outlives its kernel,
        # so a call holds at most one batch per thread, however many it runs
        refs = []
        kernel = partial(_owners, {**HELPER_SAMPLERS, "capped": _capped_jump}[name], refs)
        with mock.patch.object(simulate, "_BATCH_ELEMS", 1 << 14), \
                ThreadPoolExecutor(max_workers=2) as ex:
            sizes = map_batches(kernel, 300, 256, RngStream(65),
                                map if pmap == "serial" else ex.map)
        assert len(sizes) == 5 and len(refs) >= 5 * 2
        assert (sum(sizes) < 300) == (name == "capped")
        assert all(ref() is None for ref in refs)

    @pytest.mark.parametrize("name, n_paths, n_steps", [
        *((name, 300, 256) for name in sorted(MAPPED_KERNELS)),
        *((name, 2100, 2048) for name in sorted(HELPER_SAMPLERS))])
    def test_same_bytes_as_fresh_arrays_under_threads_and_processes(self, name, n_paths, n_steps):
        # every mapped kernel on 300 paths of 256 steps in 64-path batches;
        # the uncapped sups kernels on 2100 paths of 2048 steps in the plan's
        # own batches of 2047 and 53 paths, so both split into many pieces.
        # Each runs serially, over 2 threads and over 2 worker processes
        # (forked, or from a fork server), against the kernel run outside
        # map_batches; the helpers of a serial run have been joined before
        # any fork
        small = n_steps == 256
        kernel, records = MAPPED_KERNELS[name] if small else (
            partial(simulate._sups_kernel, HELPER_SAMPLERS[name], tuple(HELPER_TARGETS), n_steps,
                    np.inf), 0.0)
        stream = RngStream(63 if small else 51)
        with mock.patch.object(simulate, "_BATCH_ELEMS", 1 << 14 if small else simulate._BATCH_ELEMS):
            plan = batch_plan(n_paths, n_steps, records)
            assert [size for _, size in plan] == ([64, 64, 64, 64, 44] if small else [2047, 53])
            want = [np.asarray(kernel(stream.child(b), size)).tobytes() for b, size in plan]
            got = {"serial": map_batches(kernel, n_paths, n_steps, stream, records=records)}
            with ThreadPoolExecutor(max_workers=2) as ex:
                got["threads"] = map_batches(kernel, n_paths, n_steps, stream, ex.map, records)
            for method in ("fork", "forkserver"):
                with ProcessPoolExecutor(max_workers=2,
                                         mp_context=multiprocessing.get_context(method)) as pool:
                    got[method] = map_batches(kernel, n_paths, n_steps, stream,
                                              partial(pool.map, timeout=120), records)
        for key, parts in got.items():
            assert [np.asarray(part).tobytes() for part in parts] == want, key


class _Recorded:
    """A shift that records every time array it is evaluated at."""

    def __init__(self, f):
        self.f, self.calls = f, []

    def __call__(self, t):
        self.calls.append(np.array(t, copy=True))
        return self.f(t)


# every sampler, with both tilt regimes; each finishes its draws in pieces
SCHEDULE_SAMPLERS = {
    "jump": partial(sample_jump_batch, PARAMS, 0.1),
    "tilted_middle": partial(sample_tilted_batch, TILTS[0], eps_cutoff=0.05),
    "tilted_small": partial(sample_tilted_batch, TILTS[1], eps_cutoff=0.1),
    "stable": partial(sample_stable_batch, PARAMS),
    "time_changed": partial(sample_time_changed_batch, PARAMS, lambda t: 1.0 + t),
}


@pytest.mark.parametrize("draw", [
    partial(standard_symmetric_stable, 1.5, 8),
    *(partial(s, 4, 8) for s in SCHEDULE_SAMPLERS.values())], ids=lambda d: d.func.__name__)
def test_every_sampler_refuses_a_numpy_generator(draw):
    with pytest.raises(ValueError, match="RngStream is required"):
        draw(np.random.default_rng(0))


def _serial(work, n_pieces):
    """The contract of ``simulate._run_pieces``, on the calling thread alone."""
    for i in range(n_pieces):
        work(i)


class _GatedPool:
    """``ThreadPoolExecutor(1)`` whose thread starts its task once ``gate`` is set."""

    def __init__(self, gate):
        self.gate, self.pool = gate, ThreadPoolExecutor(1)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.pool.shutdown(wait=True)

    def submit(self, fn):
        def gated():
            assert self.gate.wait(30)
            return fn()

        return self.pool.submit(gated)


def _forced(schedule, calls):
    """``simulate._run_pieces`` under a forced schedule.

    "helper_late": the helper starts only once the calling thread has run
    every piece.  "caller_late": the helper starts once the calling thread
    has taken the first piece, and the calling thread ends that piece only
    after the helper has run all the other pieces.  A piece that raises lets
    both threads go on at once, so a failure ends the call.  Each call
    appends ``(n_pieces, [(piece, by_caller), ...])`` to ``calls``.
    """
    run_pieces = simulate._run_pieces

    def run(work, n_pieces):
        caller, log = threading.get_ident(), []
        calls.append((n_pieces, log))
        started, finished = threading.Event(), threading.Event()

        def logged(i):
            by_caller = threading.get_ident() == caller
            if by_caller:
                started.set()
            try:
                work(i)
            except BaseException:
                finished.set()  # the calling thread goes no further, nor will the helper
                raise
            log.append((i, by_caller))
            if len(log) == n_pieces:
                finished.set()
            if schedule == "caller_late" and by_caller:
                assert finished.wait(30)

        gate = finished if schedule == "helper_late" else started
        with mock.patch.object(simulate, "ThreadPoolExecutor", lambda _: _GatedPool(gate)):
            run_pieces(logged, n_pieces)

    return run


class _DrawFailed(Exception):
    pass


class _Planted:
    """A generator whose ``random(out=...)`` hands out the uniforms ``u`` in order."""

    def __init__(self, u):
        self.u = u

    def random(self, out):
        out[...], self.u = self.u[:out.size], self.u[out.size:]


class _FailingDraws:
    """``RngStream.generator``, whose generators raise at call ``fail_at``,
    counted from 0, of the methods ``names``: one count over every generator
    it hands out, on either thread."""

    def __init__(self, names, fail_at):
        self.names, self.left, self.lock = names, fail_at, threading.Lock()
        self.real = RngStream.generator

    def generator(self, stream):
        return _Failing(self, self.real(stream))

    def count(self):
        with self.lock:
            if self.left == 0:
                raise _DrawFailed
            self.left -= 1


class _Failing:
    """A generator whose methods named in ``draws.names`` count towards its failure."""

    def __init__(self, draws, gen):
        self._draws, self._gen = draws, gen

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if name not in self._draws.names:
            return attr

        def counted(*args, **kwargs):
            self._draws.count()
            return attr(*args, **kwargs)

        return counted


def _sample_bytes(result):
    batch, lw = result if isinstance(result, tuple) else (result, None)
    arrays = [getattr(batch, field.name) for field in dataclasses.fields(batch)] + [lw]
    return [None if a is None else np.asarray(a).tobytes() for a in arrays]


def _weighted_hits(sample, targets, r, cap, n_steps, stream, size):
    """Each target's hits sup < r of one batch drawn with sups capped at
    ``cap``, times the paths' importance weights, if the sampler gives any."""
    with simulate._streamed_sups(targets, cap) as sups:
        result = sample(size, n_steps, stream)
    batch, lw = result if isinstance(result, tuple) else (result, np.zeros(size))
    hit = sups.of(batch) < r  # a path that left every ball has a NaN log-weight
    return np.where(hit, np.exp(np.where(hit, lw, 0.0)), 0.0)


class TestHelperThread:
    """The helper thread of the samplers and of the sup kernel changes no bits
    and outlives no call."""

    @pytest.mark.parametrize("schedule", ["helper_late", "caller_late"])
    @pytest.mark.parametrize("name", sorted(SCHEDULE_SAMPLERS))
    def test_forced_schedules_give_the_same_bytes(self, name, schedule):
        # cells of 8 rows, one per piece: 15 pieces in every block of a
        # 120 x 256 batch; the default pieces hold many cells each
        sample = partial(SCHEDULE_SAMPLERS[name], 120, 256, RngStream(57))
        calls = []
        with mock.patch.object(simulate, "_STREAM_ROWS", 8):
            with mock.patch.object(simulate, "_PIECE_ELEMS", 8 * 64):
                with mock.patch.object(simulate, "_run_pieces", _serial):
                    want = _sample_bytes(sample())
                before = threading.active_count()
                with mock.patch.object(simulate, "_run_pieces", _forced(schedule, calls)):
                    got = _sample_bytes(sample())
                assert threading.active_count() == before
            assert got == want
            assert _sample_bytes(sample()) == want  # and so do the default pieces
        assert min(n for n, _ in calls) == 15
        for n_pieces, log in calls:
            assert sorted(i for i, _ in log) == list(range(n_pieces))  # each piece once
            by_caller = [i for i, mine in log if mine]
            assert by_caller == ([0] if schedule == "caller_late" else list(range(n_pieces)))

    @pytest.mark.parametrize("stride", [2, 3, simulate._BLOCK_SCREEN_STRIDE])
    @pytest.mark.parametrize("piece_elems", [8 * 8, 8 * 64, 8 * 192])
    @pytest.mark.parametrize("name", sorted(SCHEDULE_SAMPLERS))
    def test_a_capped_run_gives_the_same_bytes_in_any_pieces(self, name, piece_elems, stride):
        # at cap 1.5 most paths leave every ball, block by block, and the
        # others are packed into fewer cells: cells of 8 rows, one per piece
        # at the smallest size and several at the others, some pieces short,
        # give the bits of the default pieces (a capped batch runs its
        # pieces on the calling thread, so no schedule applies)
        sample = partial(SCHEDULE_SAMPLERS[name], 120, 256, RngStream(61))

        def capped(**patches):
            with mock.patch.multiple(simulate, **patches):
                with simulate._streamed_sups(HELPER_TARGETS, 1.5) as sups:
                    result = sample()
            return result, sups.of(result[0] if isinstance(result, tuple) else result)

        before = threading.active_count()
        with mock.patch.object(simulate, "_STREAM_ROWS", 8), \
                mock.patch.object(simulate, "_BLOCK_SCREEN_STRIDE", stride):
            want, want_sups = capped(_run_pieces=_serial)
            got, got_sups = capped(_PIECE_ELEMS=piece_elems)
        assert threading.active_count() == before
        assert _sample_bytes(got) == _sample_bytes(want)
        assert got_sups.tobytes() == want_sups.tobytes()
        batch = got[0] if isinstance(got, tuple) else got
        inside = (got_sups < 1.5).any(axis=0)
        assert inside.sum() <= batch.n_paths < 60
        pass_sups = np.stack([np.minimum(sup_distance_batch(batch, f, lam), 1.5)
                              for f, lam in HELPER_TARGETS])
        assert np.array_equal(pass_sups[:, (pass_sups < 1.5).any(axis=0)], got_sups[:, inside])

    @pytest.mark.parametrize("name", sorted(SCHEDULE_SAMPLERS))
    def test_a_capped_batch_uses_no_helper(self, name):
        # a capped batch runs its pieces, here many per block, on the
        # calling thread
        with mock.patch.object(simulate, "_PIECE_ELEMS", 8 * 64), \
                mock.patch.object(simulate, "ThreadPoolExecutor",
                                  side_effect=AssertionError("helper started")):
            with simulate._streamed_sups(HELPER_TARGETS, 1.5):
                SCHEDULE_SAMPLERS[name](400, 256, RngStream(61))

    @pytest.mark.parametrize("fail_at", [0, 7])
    @pytest.mark.parametrize("schedule", ["default", "helper_late", "caller_late"])
    @pytest.mark.parametrize("name", ["jump", "tilted_middle", "tilted_small", "stable"])
    def test_a_failed_proxy_draw_raises_its_error(self, name, schedule, fail_at):
        # the draw fail_at of a cell's last variates (the jump samplers'
        # proxy, the stable transform's exponentials) raises: the call ends
        # with the draw's own error, not a hang
        self._fails(name, schedule, ("standard_normal", "standard_exponential"), fail_at)

    @pytest.mark.parametrize("fail_at", [0, 7])
    @pytest.mark.parametrize("schedule", ["default", "helper_late", "caller_late"])
    @pytest.mark.parametrize("name", sorted(SCHEDULE_SAMPLERS))
    def test_a_failed_cell_draw_raises_its_error(self, name, schedule, fail_at):
        # call fail_at of a cell's other draws (its counts, and the uniforms
        # of its records or of the stable transform) raises, and every later
        # one: the call ends with that error
        self._fails(name, schedule, ("poisson", "random"), fail_at)

    def _fails(self, name, schedule, names, fail_at):
        sample = partial(SCHEDULE_SAMPLERS[name], 120, 256, RngStream(58))
        run_pieces = simulate._run_pieces if schedule == "default" else _forced(schedule, [])
        outcome = []

        def call():
            try:
                sample()
            except BaseException as exc:  # noqa: BLE001 - handed to the test thread
                outcome.append(exc)

        before = threading.active_count()
        draws = _FailingDraws(names, fail_at)
        with mock.patch.object(simulate, "_STREAM_ROWS", 8), \
                mock.patch.object(simulate, "_PIECE_ELEMS", 8 * 64), \
                mock.patch.object(simulate, "_run_pieces", run_pieces), \
                mock.patch.object(RngStream, "generator", lambda stream: draws.generator(stream)):
            caller = threading.Thread(target=call, daemon=True)
            caller.start()
            caller.join(60)
        assert not caller.is_alive(), "the sampler hung"
        assert len(outcome) == 1 and type(outcome[0]) is _DrawFailed
        assert threading.active_count() == before

    @pytest.mark.parametrize("name", sorted(HELPER_SAMPLERS))
    def test_no_thread_outlives_a_call(self, name):
        before = threading.active_count()
        batch = HELPER_SAMPLERS[name](300, 256, RngStream(52))
        assert threading.active_count() == before
        _sup_matrix(batch, HELPER_TARGETS)  # 255 + 45 paths: two blocks
        assert threading.active_count() == before

    def test_pieces_cover_every_block_once(self):
        # f is evaluated once on the grid, then once per row block on that
        # block's jump instants: a skipped or repeated block changes the
        # multiset of instants seen, whatever the threads' timing
        batch = HELPER_SAMPLERS["jump"](300, 256, RngStream(54))
        f = _Recorded(identity_shift())
        with mock.patch.object(simulate, "_PIECE_ELEMS", 10 * 257):  # 30 blocks of 10 paths
            got = _sup_matrix(batch, [(f, 0.5), (None, 0.0)])
        assert np.array_equal(f.calls[0], batch.times)
        assert len(f.calls) == 1 + 30
        seen = np.concatenate(f.calls[1:])
        assert np.array_equal(np.sort(seen), np.sort(batch.jump_times))
        assert np.array_equal(got[0], _one_target_sup(batch, identity_shift(), 0.5, 1.0))
        assert np.array_equal(got[1], _one_target_sup(batch, None, 0.0, 1.0))

    def test_one_block_batch_uses_no_helper(self):
        batch = sample_jump_batch(PARAMS, 0.1, 20, 256, RngStream(55))
        with mock.patch.object(simulate, "ThreadPoolExecutor",
                               side_effect=AssertionError("helper started")):
            got = _sup_matrix(batch, HELPER_TARGETS)
        for row, (f, lam) in zip(got, HELPER_TARGETS):
            assert np.array_equal(row, _one_target_sup(batch, f, lam, 1.0))

    def test_many_callers_under_fast_switching(self):
        # more callers than cores, each splitting its pass with a helper and
        # building its own jump limits, on one shared batch
        batch = HELPER_SAMPLERS["tilted"](300, 256, RngStream(56))
        want = np.stack([_one_target_sup(batch, f, lam, 1.0) for f, lam in HELPER_TARGETS])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as ex:
                results = list(ex.map(lambda _: _sup_matrix(batch, HELPER_TARGETS), range(8),
                                      timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert all(r.tobytes() == want.tobytes() for r in results)


class TestStreamedSups:
    """Sups taken inside a sampler's pieces equal a pass over its finished batch."""

    @pytest.mark.parametrize("schedule", ["default", "helper_late", "caller_late"])
    @pytest.mark.parametrize("name", sorted(SCHEDULE_SAMPLERS))
    def test_equal_a_pass_over_the_batch(self, name, schedule):
        # small pieces, so the sampler's pieces cut the batch into other row
        # ranges than the pass's blocks; a draw for uncapped sups keeps no
        # path, so the pass reads a plain draw on the same stream
        run_pieces = simulate._run_pieces if schedule == "default" else _forced(schedule, [])
        sample = partial(SCHEDULE_SAMPLERS[name], 120, 256, RngStream(59))
        with mock.patch.object(simulate, "_PIECE_ELEMS", 1 << 10), \
                mock.patch.object(simulate, "_run_pieces", run_pieces):
            with simulate._streamed_sups(HELPER_TARGETS, np.inf) as sups:
                result = sample()
            plain = sample()
        empty, lw = result if isinstance(result, tuple) else (result, None)
        assert sups.batch is empty  # taken in the pieces, not by a pass of their own
        assert empty.n_paths == 0 and empty.values.shape == (0, 257)
        batch = plain[0] if isinstance(plain, tuple) else plain
        want = np.stack([sup_distance_batch(batch, f, lam) for f, lam in HELPER_TARGETS])
        assert sups.of(empty).tobytes() == want.tobytes()
        if lw is not None:  # every path's log-weight, as the plain draw gives it
            assert lw.tobytes() == plain[1].tobytes()

    @pytest.mark.parametrize("schedule", ["default", "helper_late", "caller_late"])
    @pytest.mark.parametrize("name", sorted(SCHEDULE_SAMPLERS))
    def test_a_cap_above_every_sup_gives_the_uncapped_sups(self, name, schedule):
        # no path leaves every ball, so the capped sampler draws the same
        # cells block by block: the same paths, sups and log-weights as a
        # plain draw on the same stream
        run_pieces = simulate._run_pieces if schedule == "default" else _forced(schedule, [])
        sample = partial(SCHEDULE_SAMPLERS[name], 120, 256, RngStream(59))
        with mock.patch.object(simulate, "_STREAM_ROWS", 32):
            with simulate._streamed_sups(HELPER_TARGETS, np.inf) as sups:
                empty = sample()
            want = sample()
            cap = np.nextafter(sups.out.max(), np.inf)
            with mock.patch.object(simulate, "_run_pieces", run_pieces):
                with simulate._streamed_sups(HELPER_TARGETS, cap) as capped:
                    got = sample()
        assert (empty[0] if isinstance(empty, tuple) else empty).n_paths == 0
        assert capped.of(got[0] if isinstance(got, tuple) else got).tobytes() == \
            np.minimum(sups.out, cap).tobytes()
        assert _sample_bytes(got) == _sample_bytes(want)

    @pytest.mark.parametrize("name", ["jump", "tilted_middle", "stable"])
    def test_a_capped_batch_holds_the_paths_inside_some_ball(self, name):
        # at cap 1.5 most paths leave every ball; the batch keeps the others,
        # whole, and their sups are those of a pass over it
        with simulate._streamed_sups(HELPER_TARGETS, 1.5) as sups:
            result = SCHEDULE_SAMPLERS[name](400, 256, RngStream(60))
        batch, lw = result if isinstance(result, tuple) else (result, None)
        out = sups.of(batch)
        inside = (out < 1.5).any(axis=0)
        assert 0 < inside.sum() < 0.5 * inside.size
        assert batch.n_paths >= inside.sum() and batch.values.shape[1] == 257
        pass_sups = np.stack([np.minimum(sup_distance_batch(batch, f, lam), 1.5)
                              for f, lam in HELPER_TARGETS])
        assert np.array_equal(pass_sups[:, (pass_sups < 1.5).any(axis=0)], out[:, inside])
        if lw is not None:
            assert np.isnan(lw).sum() == lw.size - batch.n_paths

    def test_compaction_is_exact_in_law(self):
        # capped sups of 24k jump-resolved paths, most of which leave both
        # balls early, against uncapped sups on other streams
        sample = partial(sample_jump_batch, PARAMS, 0.05)
        targets = [(None, 0.0), (identity_shift(), 0.5)]
        capped = sample_sups(sample, targets, 24_000, 256, RngStream(70), cap=1.5)
        full = sample_sups(sample, targets, 24_000, 256, RngStream(71))
        for row_c, row_f in zip(capped < 1.5, full < 1.5):
            p_c, p_f = row_c.mean(), row_f.mean()
            se = math.sqrt((p_c * (1 - p_c) + p_f * (1 - p_f)) / row_c.size)
            assert p_c < 0.2 and abs(p_c - p_f) < 4.0 * se, (p_c, p_f, se)

    @pytest.mark.parametrize("name, r", [("jump", 1.5), ("tilted_middle", 0.8)])
    def test_coarse_screen_is_exact_in_law(self, name, r):
        # at 300 steps every time block ends with a short coarse interval,
        # and the tilted paths screen their drift's interval sums too:
        # capped (weighted) hit rates of 24k paths against uncapped rates on
        # another stream
        targets = ((None, 0.0), (identity_shift(), 0.5))
        kernels = [partial(_weighted_hits, SCHEDULE_SAMPLERS[name], targets, r, cap, 300)
                   for cap in (r, np.inf)]
        capped, full = (np.concatenate(map_batches(kernel, 24_000, 300, RngStream(seed)), axis=1)
                        for kernel, seed in zip(kernels, (73, 74)))
        for row_c, row_f in zip(capped, full):
            p_c, p_f = row_c.mean(), row_f.mean()
            se = math.sqrt((row_c.var() + row_f.var()) / row_c.size)
            assert 0.0 < p_f < 0.2 and abs(p_c - p_f) < 4.0 * se, (p_c, p_f, se)

    def test_a_sampler_that_streams_none_gets_a_pass(self):
        # a batch no sampler drew inside the call, e.g. one drawn before it
        batch = sample_jump_batch(PARAMS, 0.1, 50, 256, RngStream(60))
        got = simulate._sups_kernel(lambda *_: batch, tuple(HELPER_TARGETS), 256, np.inf,
                                    RngStream(60), 50)
        assert got.tobytes() == _sup_matrix(batch, HELPER_TARGETS).tobytes()

        # a batch a caller built from the one its sampler returned, say a
        # rescaled one: the sampler kept only the paths inside some ball on
        # its own values, capped, and none uncapped, so no pass can give the sups
        def rescaled(size, n_steps, stream):
            batch = sample_jump_batch(PARAMS, 0.1, size, n_steps, stream)
            return dataclasses.replace(batch, values=0.5 * batch.values)

        for cap in (np.inf, 1.0):
            with pytest.raises(ValueError, match="must be passed as is"):
                simulate._sups_kernel(rescaled, tuple(HELPER_TARGETS), 256, cap, RngStream(60), 50)

    def test_the_is_kernel_counts_the_sups_of_its_batch(self):
        # about one path in 170 is a hit: 1000 paths hold a few
        kernel, _ = MAPPED_KERNELS["is"]
        with simulate._streamed_sups([(None, 0.0)], 0.8) as sups:
            batch, lw = sample_tilted_batch(TILTS[0], 1000, 256, RngStream(65), eps_cutoff=_IS_EPS)
        out = sups.of(batch)[0]
        drawn = ~np.isnan(lw)  # the paths still inside the ball at t = 1
        assert batch.n_paths == drawn.sum() and np.all(out[~drawn] == 0.8)
        assert np.array_equal(np.minimum(sup_distance_batch(batch), 0.8), out[drawn])
        hit = out < 0.8
        w = np.exp(lw[hit])
        assert 0 < hit.sum() < hit.size
        assert kernel(RngStream(65), 1000) == (float(w.sum()), float((w * w).sum()), int(hit.sum()))


def _no_target_ends(sample, n_steps, stream, size):
    """X(1) of every path of a batch drawn with no target: the draw keeps no
    path, and its sups are a matrix of no rows."""
    with simulate._streamed_sups((), np.inf, ends=True) as sups:
        result = sample(size, n_steps, stream)
    batch = result[0] if isinstance(result, tuple) else result
    assert batch.n_paths == 0 and sups.of(batch).shape == (0, size)
    return sups.ends


def _no_target_weights(sample, n_steps, ends, stream, size):
    """The weights of a tilted batch drawn with no target, asked for its end
    values or not: the draw keeps no path, and fills ``_Sups.ends`` only when
    asked."""
    with simulate._streamed_sups((), np.inf, ends=ends) as sups:
        batch, lw = sample(size, n_steps, stream)
    assert batch.n_paths == 0 and (sups.ends is not None) == ends
    return np.exp(lw)


class TestNoTargets:
    """A draw with no target keeps no path, yet gives the plain draw's end
    values and, from the diagnostics kernels, its weights, byte for byte;
    a draw for the weights alone sums no grid and gives the same weights."""

    @pytest.mark.parametrize("piece_elems", [1 << 10, simulate._PIECE_ELEMS])
    @pytest.mark.parametrize("name", sorted(SCHEDULE_SAMPLERS))
    def test_same_bytes_as_a_plain_draw(self, name, piece_elems):
        # 700 paths of 539 steps in batches of 485 and 215 paths, 4 and 2
        # chunks, through 8 time blocks of 67 or 68 steps, each block's last
        # coarse interval short; a piece holds one chunk at the small size
        # and a whole batch at the default, each run serially and on 2 threads
        sample = SCHEDULE_SAMPLERS[name]
        stream = RngStream(66)
        with mock.patch.object(simulate, "_BATCH_ELEMS", 1 << 18):
            plan = batch_plan(700, 539)
            assert [size for _, size in plan] == [485, 215]
            plain = [sample(size, 539, stream.child(b)) for b, size in plan]
            batches = [p[0] if isinstance(p, tuple) else p for p in plain]
            ends = np.concatenate([batch.values[:, -1] for batch in batches])
            kernels = {"ends": (partial(_no_target_ends, sample, 539), ends)}
            if name.startswith("tilted"):
                tilt, eps = sample.args[0], sample.keywords["eps_cutoff"]
                lw = np.concatenate([p[1] for p in plain])
                assert tilt.amplitude_bound > 0.0 and np.ptp(lw) > 0.0  # thinned, weighted
                kernels["weights"] = (partial(diagnostics._weights_kernel, tilt, 539, eps),
                                      np.exp(lw))
                kernels["end_values"] = (partial(diagnostics._end_value_kernel, tilt, 539, eps),
                                         ends)
                for keep_ends in (False, True):
                    kernels[f"weights, ends={keep_ends}"] = (
                        partial(_no_target_weights, sample, 539, keep_ends), np.exp(lw))
            with mock.patch.object(simulate, "_PIECE_ELEMS", piece_elems), \
                    ThreadPoolExecutor(max_workers=2) as ex:
                for key, (kernel, want) in kernels.items():
                    for pmap in (map, ex.map):
                        got = np.concatenate(map_batches(kernel, 700, 539, stream, pmap))
                        assert got.tobytes() == want.tobytes(), key


def _capped_anderson_batch():
    """The anderson workload's batch, drawn for its six targets' sups capped at r = 1."""
    targets = [(None, 0.0)] + [(f, lam) for _, f, lam in smallball.default_battery(PARAMS)]
    with simulate._streamed_sups(targets, 1.0):
        sample_jump_batch(PARAMS, 0.02, 2047, 2048, RngStream(1).child(0, 0))


def _stable_sups_batch():
    """A 2047 x 2048 CMS batch drawn for its centred sups, uncapped, as tier-1's sups fixture
    and the selftest's time-change check draw each of theirs."""
    with simulate._streamed_sups([(None, 0.0)], np.inf):
        sample_stable_batch(PARAMS, 2047, 2048, RngStream(1).child(0, 0))


# (sampler call, tracemalloc ceiling in bytes), each ceiling set a few percent
# above the highest peak of 15 calls in 5 processes (NumPy 2.4.6, Python
# 3.11.7); which piece temporaries the two threads hold at once moves a peak
# by up to 1.3 MB
MEMORY_CASES = {
    # the anderson workload's batch, uncapped, 964k jump records: peaks
    # 94.45-94.54 MB, 1.4% below the ceiling, since an uncapped piece now
    # holds two chunks of rows per block (92.14-92.22 MB at one), and its
    # proxy's coarse sums
    "jump": (partial(sample_jump_batch, PARAMS, 0.02, 2047, 2048, RngStream(1).child(0, 0)),
             95_900_000),
    # the same batch drawn capped: only the paths inside some ball at t = 1
    # draw their per-step proxy, the others end on the blocks' coarse grids:
    # peaks 19.58-19.59 MB, ceiling 3.1% above
    "capped": (_capped_anderson_batch, 20_200_000),
    # the same shape from CMS increments, each cell's variates summed into
    # the grid: peaks 36.76 MB, 2.6% below the ceiling (36.24 MB at one
    # chunk per piece and block)
    "stable": (partial(sample_stable_batch, PARAMS, 2047, 2048, RngStream(1).child(0, 0)),
               37_700_000),
    # the same batch drawn for its uncapped sups alone: each piece sums its
    # rows one block at a time in a buffer of its own and the batch keeps no
    # path, so no grid is held: peaks 4.28 MB (36.78 MB when the batch kept
    # its grid), ceiling 2.8% above
    "stable_sups": (_stable_sups_batch, 4_400_000),
    # 2000 small-regime paths (weight_battery member 3, 3.3M interior jump
    # records), with no band draws beside the records and each piece's
    # dropped slots closed within its rows: peaks 98.28-99.13 MB, ceiling
    # 3.8% above
    "small_regime": (partial(sample_tilted_batch, weight_battery(PARAMS)[3][1], 2000, 256,
                             RngStream(103).child(3), eps_cutoff=0.05), 102_900_000),
    # the same call drawn for its weights alone (_weights_kernel, as the
    # selftest's unit-mean check draws each tilt): the draw has no target and
    # asks for no end value, so it keeps no path, no record and no grid:
    # peaks 7.97-8.01 MB (8.17-8.23 MB with each piece's grid, 98.28-99.13 MB
    # when it kept the batch), ceiling 3.0% above
    "small_regime_weights": (partial(diagnostics._weights_kernel, weight_battery(PARAMS)[3][1],
                                     256, 0.05, RngStream(103).child(3), 2000), 8_250_000),
}


class TestMemory:
    @pytest.mark.parametrize("name", sorted(MEMORY_CASES))
    def test_batch_peak(self, name):
        call, ceiling = MEMORY_CASES[name]
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ceiling


class TestExtract:
    def test_one_path_batch_keeps_its_refined_sup(self):
        batch = sample_jump_batch(PARAMS, 0.05, 20, 64, RngStream(32))
        sups = sup_distance_batch(batch, tent_shift(), 0.5)
        for i in (0, 7, 19):
            path = batch.extract(i)
            assert path.n_paths == 1 and not np.any(path.jump_path)
            assert np.array_equal(path.values[0], batch.values[i])
            assert sup_distance_batch(path, tent_shift(), 0.5)[0] == sups[i]
        with pytest.raises(IndexError):
            batch.extract(20)


class TestCsvDump:
    def test_round_trip(self, tmp_path):
        path = sample_jump_batch(PARAMS, 0.2, 1, 16, RngStream(29))
        out = tmp_path / "p.csv"
        jout = tmp_path / "j.csv"
        write_path_csv(path, out, jout)
        body = np.loadtxt(out, delimiter=",", skiprows=1)
        assert out.read_text().splitlines()[0] == "t,x"
        assert jout.read_text().splitlines()[0] == "t,size"
        assert np.allclose(body[:, 0], path.times)
        assert np.allclose(body[:, 1], path.values[0])

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_path_csv(sample_stable_batch(PARAMS, 1, 8, RngStream(30)), a)
        write_path_csv(sample_stable_batch(PARAMS, 1, 8, RngStream(30)), b)
        assert a.read_bytes() == b.read_bytes()
        with pytest.raises(ValueError):
            write_path_csv(sample_stable_batch(PARAMS, 2, 8, RngStream(30)), a)
