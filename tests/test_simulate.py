"""Path samplers, RNG streams, sup-distance evaluation, CSV dumps."""

import dataclasses
import math
import multiprocessing
import sys
import threading
import tracemalloc
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
from stable_smallball import simulate
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
    def test_no_jump_exceeds_r(self):
        tilt = TiltSpec.middle_shift(PARAMS, zero_shift(), 0.0, 0.7)  # zero tilt: truncated law
        batch = sample_tilted_batch(tilt, 200, 64, RngStream(13))[0]
        assert np.max(np.abs(batch.jump_sizes)) < 0.7


class TestTiltedSampler:
    def test_martingale_mode_centered(self):
        tilt = TiltSpec.middle_shift(PARAMS, identity_shift(), 0.5, 1.0)
        batch, _ = sample_tilted_batch(tilt, 4000, 128, RngStream(17))
        x1 = batch.values[:, -1]
        assert abs(np.mean(x1)) < 4.0 * np.std(x1) / math.sqrt(x1.size)


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
        class Finished(simulate._Band):
            def finish(self, s):
                pass

        n_steps = 1000
        band = Finished(counts=np.array([2]), first=np.array([0, 2]),
                        t=np.array([1.0 - 0.883, 0.1175]), x=np.array([5.0, -10.0]),
                        up=np.ones(2, dtype=bool), alpha=1.5, lower=1.0, upper=np.inf)
        assert band.t[0] * n_steps == 117.0 and band.t[0] / (1.0 / n_steps) < 117.0
        path, t, x, _, values, noise = simulate._bin_with_proxy(
            [band], 1, n_steps, lambda: np.zeros((1, n_steps)))
        batch = simulate._cumulate(values, values[:, 1:], jump_path=path, jump_times=t,
                                   jump_sizes=x, small_noise=noise)
        assert sup_distance_batch(batch)[0] == pytest.approx(5.0, rel=0.0, abs=np.spacing(5.0))

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
    step = np.minimum((t / batch.dt).astype(np.int64), batch.n_steps - 1)
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


class TestBatchPlan:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**6), st.integers(2, 8192),
           st.one_of(st.just(0.0), st.floats(1e-3, 1e7)))
    @example(100_000, 2048, 0.0)
    @example(10_000, 256, 6683.1)  # criterion 04's small-regime tilt: 65 batches
    def test_covers_total_deterministically(self, n_total, n_steps, records):
        plan = batch_plan(n_total, n_steps, records)
        sizes = [size for _, size in plan]
        assert sum(sizes) == n_total and min(sizes) > 0
        assert [b for b, _ in plan] == list(range(len(plan)))
        assert len(set(sizes[:-1])) <= 1 and sizes[-1] <= sizes[0]
        assert plan == batch_plan(n_total, n_steps, records)
        # no batch above the 64-path floor exceeds the record budget
        assert sizes[0] <= 64 or sizes[0] * records <= simulate._BATCH_RECORDS
        if records == 0.0:
            assert plan == batch_plan(n_total, n_steps)
            assert sizes[0] == min(n_total, max(64, simulate._BATCH_ELEMS // (n_steps + 1)))

    def test_small_total_single_batch(self):
        assert batch_plan(50, 64) == [(0, 50)]


def _echo(stream, size):
    return stream, size


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


# samplers that draw the Gaussian proxy on the helper thread, and one that
# draws none; every one is a module-level partial, so a process pool takes it
HELPER_SAMPLERS = {
    "jump": partial(sample_jump_batch, PARAMS, 0.1),
    "stable": partial(sample_stable_batch, PARAMS),
    "tilted": partial(_tilted_paths, TILTS[0], eps_cutoff=0.1),
}
HELPER_TARGETS = [(None, 0.0), (identity_shift(), 0.5), (tent_shift(), -1.0)]


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


def _serial(work, n_pieces, first=None):
    """The contract of ``simulate._run_pieces``, on the calling thread alone."""
    out = None if first is None else first()
    for i in range(n_pieces):
        work(i)
    return out


def _forced(schedule, calls):
    """``simulate._run_pieces`` under a forced schedule.

    "helper_late": the helper starts only after the calling thread has run
    every piece.  "caller_late": the helper starts once the calling thread
    has taken the first piece, and the calling thread ends that piece only
    after the helper has run all the others.  Each call appends
    ``(n_pieces, [(piece, by_caller), ...])`` to ``calls``.
    """
    run_pieces = simulate._run_pieces

    def run(work, n_pieces, first=None):
        caller, log = threading.get_ident(), []
        calls.append((n_pieces, log))
        started, finished = threading.Event(), threading.Event()
        if n_pieces == 0:
            started.set()
            finished.set()

        def logged(i):
            by_caller = threading.get_ident() == caller
            if by_caller:
                started.set()
            work(i)
            log.append((i, by_caller))
            if len(log) == n_pieces:
                finished.set()
            if schedule == "caller_late" and by_caller:
                assert finished.wait(30)

        def gate():
            assert (finished if schedule == "helper_late" else started).wait(30)
            return None if first is None else first()

        return run_pieces(logged, n_pieces, gate)

    return run


def _sample_bytes(result):
    batch, lw = result if isinstance(result, tuple) else (result, None)
    arrays = [getattr(batch, field.name) for field in dataclasses.fields(batch)] + [lw]
    return [None if a is None else np.asarray(a).tobytes() for a in arrays]


class TestHelperThread:
    """The helper thread of the samplers and of the sup kernel changes no bits
    and outlives no call."""

    @pytest.mark.parametrize("schedule", ["helper_late", "caller_late"])
    @pytest.mark.parametrize("name", sorted(SCHEDULE_SAMPLERS))
    def test_forced_schedules_give_the_same_bytes(self, name, schedule):
        # small pieces put dozens of pieces in every stage of a 120 x 256 batch
        sample = partial(SCHEDULE_SAMPLERS[name], 120, 256, RngStream(57))
        calls = []
        with mock.patch.object(simulate, "_PIECE_ELEMS", 1 << 10):
            with mock.patch.object(simulate, "_run_pieces", _serial):
                want = _sample_bytes(sample())
            before = threading.active_count()
            with mock.patch.object(simulate, "_run_pieces", _forced(schedule, calls)):
                got = _sample_bytes(sample())
            assert threading.active_count() == before
        assert got == want
        assert _sample_bytes(sample()) == want  # and so do the default pieces
        assert max(n for n, _ in calls) > 10
        for n_pieces, log in calls:
            assert sorted(i for i, _ in log) == list(range(n_pieces))  # each piece once
            by_caller = [i for i, mine in log if mine]
            assert by_caller == (list(range(n_pieces)) if schedule == "helper_late" else [0])

    @pytest.mark.parametrize("name", sorted(HELPER_SAMPLERS))
    def test_same_bytes_under_map_threads_and_forked_processes(self, name):
        # 2100 paths of 2048 steps: batches of 2047 and 53 paths, i.e. 67 and
        # 2 row blocks of the sup kernel, so both batches split
        sample, stream = HELPER_SAMPLERS[name], RngStream(51)
        assert [size for _, size in batch_plan(2100, 2048)] == [2047, 53]
        got = sample_sups(sample, HELPER_TARGETS, 2100, 2048, stream)
        with ThreadPoolExecutor(max_workers=2) as ex:
            threaded = sample_sups(sample, HELPER_TARGETS, 2100, 2048, stream, pmap=ex.map)
        # the helpers above have been joined, so forking now is safe
        with ProcessPoolExecutor(max_workers=2,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            forked = sample_sups(sample, HELPER_TARGETS, 2100, 2048, stream,
                                 pmap=partial(pool.map, timeout=120))
        assert threaded.tobytes() == got.tobytes()
        assert forked.tobytes() == got.tobytes()

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


# (sampler call, tracemalloc ceiling in bytes), each ceiling set a few percent
# above the highest peak of repeated calls (NumPy 2.4.6, Python 3.11.7); which
# piece temporaries the two threads hold at once moves a peak by up to 5 MB
MEMORY_CASES = {
    # the anderson workload's batch, 964k jump records: peaks 112.2-117.6 MB,
    # ceiling 2% above the highest
    "jump": (partial(sample_jump_batch, PARAMS, 0.02, 2047, 2048, RngStream(1).child(0, 0)),
             120_000_000),
    # the same shape from CMS increments: peaks 69.18 MB, ceiling 4% above
    "stable": (partial(sample_stable_batch, PARAMS, 2047, 2048, RngStream(1).child(0, 0)),
               72_000_000),
    # 2000 small-regime paths (weight_battery member 3, 3.3M interior jump
    # records): peaks 208.98-209.01 MB, ceiling 3% above
    "small_regime": (partial(sample_tilted_batch, weight_battery(PARAMS)[3][1], 2000, 256,
                             RngStream(103).child(3), eps_cutoff=0.05), 215_000_000),
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
