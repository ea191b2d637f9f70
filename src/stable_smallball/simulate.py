"""Seeded path simulation for the symmetric alpha-stable process on [0, 1].

Three exact-in-law samplers, all driven by named substreams so results are
reproducible and independent of batch splitting or worker count:

* ``sample_stable_batch``: i.i.d. stable increments (Chambers-Mallows-Stuck),
  the reference marginal-law sampler; ``sample_time_changed_batch`` runs
  the same increments through a deterministic clock,
* ``sample_jump_batch``: jumps above a cutoff resolved individually, the
  sub-cutoff remainder replaced by its Gaussian proxy (optional),
* ``sample_truncated_batch`` / ``sample_tilted_batch``: jump-resolved paths
  of the truncated process, optionally under an exponential tilt of the jump
  measure; the tilted sampler records everything needed to reweight back.

The jump-resolved samplers share ``_draw_jumps`` for each band of jumps
and ``_bin_with_proxy`` to sort and bin them and draw the Gaussian proxy;
every sampler ends in ``_cumulate``, which sums increments into paths.

A path is a :class:`BatchPaths`; one path is a batch of one
(``BatchPaths.extract``).  One kernel evaluates sup-norm distances to scaled
drifts, refining within each step by replaying the recorded jump instants,
so a jump that briefly exits the ball between grid points is not missed.
It takes every target in one cache-blocked pass per batch: each row block
of the grid, then the block's jump records, against all targets in turn.
``sup_distance_batch`` is its one-target form.  ``map_batches`` is the one
batch loop of every estimator: it runs a kernel over the deterministic
``batch_plan``, each batch on its own child stream.  Every estimator that
counts sups draws through ``sample_sups``, which returns the sups of every
path against every target as one matrix; the estimator keeps only its own
reduction (``< r`` or ``> x``).

Inside one batch, work that needs no Python runs on a helper thread, made
for the call (``with ThreadPoolExecutor(1)``) and joined before it returns,
so no thread outlives a call and none is alive when a process pool forks.
Two stages use it, and neither can change a bit:

* in the samplers, only ``_bin_with_proxy``: it draws the Gaussian proxy,
  the batch's last draw from the generator, on the helper while the calling
  thread sorts and bins the jump records.  The calling thread does not
  touch the generator until the draw is joined, so the generator sees the
  same calls in the same order as in a serial run;
* the sup kernel builds the batch's jump geometry first, then runs the
  second half of its row blocks on the helper and the first half on the
  calling thread.  Each half has its own buffers and writes only its own
  columns, and each element sees the same operations as in a serial pass.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .constants import truncated_second_moment
from .girsanov import TiltSpec, log_weight_batch, step_mean_amplitude
from .processes import AlphaStableParams, ShiftFunction, zero_shift

DEFAULT_EPS_RATIO = 50.0  # eps_cutoff = jump_cut / 50 unless overridden


@dataclass(frozen=True)
class RngStream:
    """Named, splittable random stream.

    Children are derived by extending the spawn key, so stream identity is a
    path of integers and every (seed, stream, batch) triple maps to one fixed
    generator no matter how work is scheduled.
    """

    seed: int
    stream_id: int = 0
    subkeys: tuple = ()

    def child(self, *keys: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id, self.subkeys + tuple(int(k) for k in keys))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=(self.stream_id, *self.subkeys))
        return np.random.default_rng(ss)


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError("rng must be an RngStream or numpy Generator")


@dataclass(frozen=True)
class BatchPaths:
    """A batch of paths on a common uniform grid, plus their jump records.

    ``values`` has shape (n_paths, n_steps + 1) with values[:, 0] = 0.  Jump
    records are flat arrays sorted by (path, time); ``jump_path`` holds the
    owning path index.  ``small_noise`` is the per-step Gaussian proxy of the
    sub-cutoff jumps (None when the proxy is off), ``drift_steps`` the
    deterministic per-step drift shared by all paths.

    ``jump_geometry`` caches the target-independent part of the sup
    refinement: the path value just before and just after every jump, and
    the per-path segments of the records.  It is computed on first use; the
    sup kernel then reads it block by block for all targets of one pass, and
    later :func:`sup_distance_batch` calls on the same batch reuse it.
    Batches are treated as immutable: no code writes into their arrays after
    sampling, so the cache stays exact.
    """

    times: np.ndarray
    values: np.ndarray
    eps_cutoff: float | None = None
    jump_path: np.ndarray | None = None
    jump_times: np.ndarray | None = None
    jump_sizes: np.ndarray | None = None
    small_noise: np.ndarray | None = None
    drift_steps: np.ndarray | None = None

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1] - 1

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @cached_property
    def jump_geometry(self) -> "_JumpGeometry":
        """Left and right limits of the path at each jump record.

        Within a step the continuous part (drift plus Gaussian proxy) is
        accrued linearly up to the jump, and earlier jumps within the same
        step are added via a grouped prefix sum.  Needs at least one record.
        """
        p, t, x = self.jump_path, self.jump_times, self.jump_sizes
        n_steps = self.n_steps
        frac = t / self.dt
        step = frac.astype(np.int64)
        np.minimum(step, n_steps - 1, out=step)
        frac -= step
        flat = p * n_steps
        flat += step  # flat index of (path, step) into the per-step arrays

        smooth = None if self.drift_steps is None else self.drift_steps[step]
        if self.small_noise is not None:
            noise = self.small_noise.take(flat)
            smooth = noise if smooth is None else np.add(smooth, noise, out=smooth)

        # exclusive prefix of same-step earlier jumps; records are (path, time)-sorted
        new_group = np.empty(t.size, dtype=bool)
        new_group[0] = True
        np.not_equal(flat[1:], flat[:-1], out=new_group[1:])
        excl = np.cumsum(x)
        excl -= x
        group_starts = np.flatnonzero(new_group)
        excl -= np.repeat(excl[group_starts], np.diff(group_starts, append=t.size))

        flat += p  # now into values, which has n_steps + 1 columns
        pre = self.values.take(flat)
        if smooth is not None:
            smooth *= frac
            pre += smooth
        pre += excl
        new_path = np.empty(t.size, dtype=bool)
        new_path[0] = True
        np.not_equal(p[1:], p[:-1], out=new_path[1:])
        starts = np.flatnonzero(new_path)
        return _JumpGeometry(pre=pre, post=pre + x, starts=starts, paths=p[starts])

    def extract(self, i: int) -> "BatchPaths":
        """Path ``i`` as a one-path batch."""
        if not 0 <= i < self.n_paths:
            raise IndexError(f"path index {i} out of range")
        jp = jt = js = None
        if self.jump_path is not None:
            # records are (path, time)-sorted, so path i owns one block
            lo, hi = np.searchsorted(self.jump_path, [i, i + 1])
            jt, js = self.jump_times[lo:hi], self.jump_sizes[lo:hi]
            jp = np.zeros(jt.size, dtype=np.int64)
        return replace(self, values=self.values[i:i + 1], jump_path=jp, jump_times=jt,
                       jump_sizes=js,
                       small_noise=None if self.small_noise is None else self.small_noise[i:i + 1])


class _JumpGeometry(NamedTuple):
    """Target-independent part of the jump refinement of one batch."""

    pre: np.ndarray     # path value just before each jump record
    post: np.ndarray    # path value just after it
    starts: np.ndarray  # first record of each path that has records
    paths: np.ndarray   # the path owning each of those segments


def standard_symmetric_stable(alpha: float, size, rng) -> np.ndarray:
    """Standard symmetric alpha-stable variates, E exp(iuS) = exp(-|u|^alpha)."""
    gen = _as_generator(rng)
    u = gen.uniform(-np.pi / 2.0, np.pi / 2.0, size)
    e = gen.standard_exponential(size)
    inv_a = 1.0 / alpha
    # sin(alpha u) / cos(u)^(1/alpha) * (cos((1 - alpha) u) / e)^((1 - alpha)/alpha),
    # in place, with the same operations in the same order as the plain expression
    out = np.multiply(alpha, u)
    np.sin(out, out=out)
    den = np.cos(u)
    den **= inv_a
    out /= den
    u *= 1.0 - alpha
    np.cos(u, out=u)
    u /= e
    u **= (1.0 - alpha) * inv_a
    out *= u
    return out


def sample_stable_batch(params: AlphaStableParams, n_paths: int, n_steps: int, rng) -> BatchPaths:
    """Paths from i.i.d. stable increments on a uniform grid of [0, 1].

    Each increment over dt has characteristic function exp(-c_alpha dt |u|^alpha),
    so the grid marginals are exact; nothing is known between grid points.
    """
    _check_shape(n_paths, n_steps)
    scale = (params.c_alpha * (1.0 / n_steps)) ** (1.0 / params.alpha)
    return _stable_paths(params.alpha, scale, n_paths, n_steps, _as_generator(rng))


def _stable_paths(alpha: float, scale, n_paths: int, n_steps: int, gen) -> BatchPaths:
    """Paths whose increments are standard stable variates times ``scale``,
    a scalar or one factor per step."""
    incr = standard_symmetric_stable(alpha, (n_paths, n_steps), gen)
    incr *= scale
    return _cumulate(incr)


def _cumulate(incr: np.ndarray, **records) -> BatchPaths:
    """The batch on the unit grid whose paths are the running sums of ``incr``.

    ``records`` become the batch's fields; its per-step ``drift_steps`` and
    ``small_noise``, when given, are first added into ``incr`` in that order.
    """
    for name in ("drift_steps", "small_noise"):
        if records.get(name) is not None:
            incr += records[name]
    n_paths, n_steps = incr.shape
    values = np.zeros((n_paths, n_steps + 1))
    np.cumsum(incr, axis=1, out=values[:, 1:])
    return BatchPaths(times=np.linspace(0.0, 1.0, n_steps + 1), values=values, **records)


def _draw_jumps(gen, rate: float, n_paths: int, alpha: float, lower: float,
                upper: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Poisson(rate) jumps per path with magnitudes in [lower, upper); upper may be inf.

    Draws the per-path counts, then the instants (uniform on (0, 1]), then
    the magnitudes (density alpha x^(-1-alpha) on [lower, upper), by
    inversion), then symmetric signs.  Returns (path_idx, t, sizes), grouped
    by path in draw order.
    """
    path_idx = np.repeat(np.arange(n_paths, dtype=np.int64), gen.poisson(rate, n_paths))
    t = 1.0 - gen.random(path_idx.size)
    hi_pow = upper ** -alpha  # 0.0 for upper = inf, so the sum below is exact
    sizes = (hi_pow + (1.0 - gen.random(t.size)) * (lower ** -alpha - hi_pow)) ** (-1.0 / alpha)
    return path_idx, t, sizes * (2.0 * gen.integers(0, 2, t.size) - 1.0)


def _jump_order(path_idx, t):
    """The permutation ``np.lexsort((t, path_idx))``, from one float sort.

    With t in (0, 1] and path indices below 2^53 (exact as floats), the
    real key path + t is strictly increasing in (path, time) order, and
    rounding to nearest is monotone, so the float key can merge neighbours
    into ties but never swaps them.  Records whose keys tie therefore
    already sit in their right slots as a block; a lexsort over just those
    records, taken in index order, restores lexsort's exact order (ties in
    (path, time) keep their input order).  The key sort itself need not be
    stable, which lets NumPy use its fastest argsort.
    """
    key = path_idx + t
    order = np.argsort(key)
    key = key[order]
    tied = np.zeros(key.size, dtype=bool)
    np.equal(key[1:], key[:-1], out=tied[1:])
    tied[:-1] |= tied[1:]
    if tied.any():
        pos = np.flatnonzero(tied)
        sub = np.sort(order[pos])
        order[pos] = sub[np.lexsort((t[sub], path_idx[sub]))]
    return order


def _bin_with_proxy(gen, path_idx, t, sizes, n_paths: int, n_steps: int,
                    noise_var: float | None):
    """Sort jump records by (path, time), sum them per step, draw the proxy.

    Returns the sorted records, the (n_paths, n_steps) jump increments and
    the Gaussian proxy of per-step variance ``noise_var`` (or None);
    callers rebind their record names to the sorted ones, so the unsorted
    arrays die with this call.  The proxy, the batch's last draw from
    ``gen``, runs on a helper thread while this thread sorts and bins.  The
    order equals ``np.lexsort((t, path_idx))`` element for element (see
    :func:`_jump_order`), so records, values and log-weights are bit-identical
    to a lexsort's.
    """
    with ThreadPoolExecutor(1) as helper:
        pending = None
        if noise_var is not None:
            pending = helper.submit(gen.normal, 0.0, np.sqrt(noise_var), (n_paths, n_steps))
        order = _jump_order(path_idx, t)
        path_idx, t, sizes = path_idx[order], t[order], sizes[order]
        step = np.minimum((t * n_steps).astype(np.int64), n_steps - 1)
        incr = np.bincount(path_idx * n_steps + step, weights=sizes,
                           minlength=n_paths * n_steps)
        # with no records bincount returns int64 zeros; callers add into incr in place
        incr = incr.astype(float, copy=False).reshape(n_paths, n_steps)
        noise = None if pending is None else pending.result()
    return path_idx, t, sizes, incr, noise


def _check_shape(n_paths: int, n_steps: int) -> None:
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    if n_steps < 2:
        raise ValueError("n_steps must be at least 2")


def sample_jump_batch(params: AlphaStableParams, eps_cutoff: float, n_paths: int,
                      n_steps: int, rng, gaussian_refinement: bool = True) -> BatchPaths:
    """Jump-resolved paths: all jumps above eps_cutoff drawn individually.

    Jumps |x| >= eps arrive at rate (2/alpha) eps^-alpha with Pareto
    magnitudes and symmetric signs.  The discarded sub-eps part is a centered
    martingale with per-step variance v0(eps) dt; with refinement on it is
    replaced by that Gaussian, otherwise dropped.  No compensating drift is
    needed: the big-jump part is symmetric, hence already centered.
    """
    _check_shape(n_paths, n_steps)
    if eps_cutoff <= 0.0:
        raise ValueError("eps_cutoff must be positive")
    gen = _as_generator(rng)
    alpha = params.alpha
    path_idx, t, sizes = _draw_jumps(gen, (2.0 / alpha) * eps_cutoff**-alpha, n_paths, alpha,
                                     eps_cutoff, np.inf)
    noise_var = (truncated_second_moment(alpha, eps_cutoff) * (1.0 / n_steps)
                 if gaussian_refinement else None)
    path_idx, t, sizes, incr, noise = _bin_with_proxy(gen, path_idx, t, sizes, n_paths,
                                                      n_steps, noise_var)
    return _cumulate(incr, eps_cutoff=eps_cutoff, jump_path=path_idx, jump_times=t,
                     jump_sizes=sizes, small_noise=noise)


def sample_truncated_batch(params: AlphaStableParams, r: float, n_paths: int, n_steps: int,
                           rng, eps_cutoff: float | None = None) -> BatchPaths:
    """Paths of the truncated process: every jump with |x| >= r removed.

    Identical draw sequence to :func:`sample_tilted_batch` with a zero tilt,
    so the two agree path for path under a common stream.
    """
    tilt = TiltSpec.middle_shift(params, zero_shift(), c=0.0, r=r)
    return sample_tilted_batch(tilt, n_paths, n_steps, rng, eps_cutoff=eps_cutoff,
                               drift_mode="martingale", compute_weights=False)


def sample_tilted_batch(tilt, n_paths: int, n_steps: int, rng,
                        eps_cutoff: float | None = None, drift_mode: str = "shifted",
                        compute_weights: bool = True,
                        ) -> tuple[BatchPaths, np.ndarray] | BatchPaths:
    """Paths under the tilted jump measure, with exact reweighting records.

    Jumps below the tilt cutoff are drawn by thinning from the envelope
    (1+B) times the untilted intensity, B the tilt amplitude bound, so no
    tilted inverse CDF is needed.  Above the cutoff the tilt is off: in the
    middle regime those jumps are removed entirely, in the small regime they
    are kept untilted.  Jumps below ``eps_cutoff`` are replaced by their
    Gaussian proxy.  The default ``drift_mode="shifted"`` adds the
    compensator drift, so the path mean follows the tilt's shift curve;
    ``"martingale"`` keeps the path centered instead, which is how the
    importance-sampling estimator consumes it.  The log weight is the same
    either way: it depends on the jump and noise records, not the drift.

    Returns (batch, log_weights) unless ``compute_weights=False``.
    """
    _check_shape(n_paths, n_steps)
    if drift_mode not in ("martingale", "shifted"):
        raise ValueError(f"unknown drift_mode {drift_mode!r}")
    check = tilt.validity_check()
    if not check.passed:
        raise ValueError(f"tilt is out of range: amplitude bound {check.value:.4f} >= 1")

    gen = _as_generator(rng)
    alpha = tilt.params.alpha
    cut = tilt.jump_cut
    scale = tilt.intensity_scale
    if eps_cutoff is None:
        eps_cutoff = cut / DEFAULT_EPS_RATIO
    if not 0.0 < eps_cutoff < cut:
        raise ValueError("eps_cutoff must lie in (0, jump_cut)")
    b_bound = check.value
    dt = 1.0 / n_steps

    # interior jumps eps <= |x| < cut, thinned from the (1 + B)-inflated rate
    rate_int = scale * (1.0 + b_bound) * (2.0 / alpha) * (eps_cutoff**-alpha - cut**-alpha)
    path_idx, t, sizes = _draw_jumps(gen, rate_int, n_paths, alpha, eps_cutoff, cut)
    if b_bound > 0.0:
        accept = gen.random(t.size) * (1.0 + b_bound) < 1.0 + tilt.beta(t) * sizes
        path_idx, t, sizes = path_idx[accept], t[accept], sizes[accept]

    # exterior jumps |x| >= cut, untilted; only the small regime keeps them
    if tilt.keeps_exterior_jumps:
        exterior = _draw_jumps(gen, scale * (2.0 / alpha) * cut**-alpha, n_paths, alpha, cut,
                               np.inf)
        path_idx, t, sizes = map(np.concatenate, zip((path_idx, t, sizes), exterior))

    # compensate the tilt of the interior band so the component is a martingale
    bbar = step_mean_amplitude(tilt, n_steps)
    v_band = truncated_second_moment(alpha, cut) - truncated_second_moment(alpha, eps_cutoff)
    drift = -scale * v_band * bbar * dt
    if drift_mode == "shifted":
        drift = drift + np.diff(tilt.compensator_shift_curve(np.linspace(0.0, 1.0, n_steps + 1)))

    path_idx, t, sizes, incr, noise = _bin_with_proxy(
        gen, path_idx, t, sizes, n_paths, n_steps,
        scale * truncated_second_moment(alpha, eps_cutoff) * dt)
    batch = _cumulate(incr, eps_cutoff=eps_cutoff, jump_path=path_idx, jump_times=t,
                      jump_sizes=sizes, small_noise=noise, drift_steps=drift)
    if not compute_weights:
        return batch
    return batch, log_weight_batch(tilt, batch)


def sample_time_changed_batch(params: AlphaStableParams, speed, n_paths: int, n_steps: int,
                              rng) -> BatchPaths:
    """Stable paths run through the clock Phi(t) = int_0^t speed(s) ds.

    ``speed`` is a positive callable on [0, 1], evaluated on the grid and
    integrated by the trapezoid rule; increments then scale as
    (c_alpha dPhi)^(1/alpha).  In law this equals a stable process whose jump
    measure carries the total mass Phi(1).
    """
    _check_shape(n_paths, n_steps)
    gen = _as_generator(rng)
    times = np.linspace(0.0, 1.0, n_steps + 1)
    mu = np.asarray(speed(times), dtype=float)
    if mu.shape != times.shape or np.any(mu < 0.0) or not np.all(np.isfinite(mu)):
        raise ValueError("speed must be nonnegative and finite on the grid")
    d_phi = 0.5 * (mu[:-1] + mu[1:]) * (1.0 / n_steps)
    if not np.any(d_phi > 0.0):
        raise ValueError("speed must have positive total mass")
    scale = (params.c_alpha * d_phi) ** (1.0 / params.alpha)
    return _stable_paths(params.alpha, scale, n_paths, n_steps, gen)


def sup_distance_batch(batch: BatchPaths, f: ShiftFunction | None = None,
                       shift_scale: float = 0.0, path_scale: float = 1.0) -> np.ndarray:
    """sup_t |path_scale * X(t) - shift_scale * f(t)| for every path.

    The sup runs over the grid and, when jump records exist, over the left
    and right limits at each jump instant (``BatchPaths.jump_geometry``,
    computed once per batch), so a jump that briefly exits the ball between
    grid points is not missed.  This is one row of the sup kernel that
    :func:`sample_sups` runs for all of its targets at once.
    """
    return _sup_matrix(batch, [(f, shift_scale)], path_scale)[0]


_BLOCK_ELEMS = 1 << 16  # doubles per row block of _sup_matrix: a 512 KiB buffer


def _sup_matrix(batch: BatchPaths, targets, path_scale: float = 1.0) -> np.ndarray:
    """Refined sups of every path against every ``(f, shift_scale)`` target.

    Returns the ``(len(targets), n_paths)`` matrix in one pass over the
    batch, in row blocks of about ``_BLOCK_ELEMS`` grid values.  For each
    block, the grid max of every target goes through one reused buffer, then
    the block's contiguous jump records are reduced per path, again for every
    target.  f is evaluated once per distinct f object and scaled per target;
    a None target skips the subtraction.  Every element sees the same
    operations as a one-target pass would, so each row is bit-identical to
    the sup against its target alone.

    A batch of two or more blocks is split into two contiguous halves of
    blocks: a helper thread runs the second half while the calling thread
    runs the first.  Each half has its own buffers and writes only its own
    columns of the result, and the jump geometry is built before the split,
    so the bits do not depend on the split.
    """
    values = batch.values
    n_paths, n_cols = values.shape
    shifts = {id(f): f for f, _ in targets if f is not None}
    grid_f = {key: np.asarray(f(batch.times), dtype=float) for key, f in shifts.items()}
    grid_targets = [None if f is None else scale * grid_f[id(f)] for f, scale in targets]
    out = np.empty((len(targets), n_paths))
    rows = max(1, _BLOCK_ELEMS // n_cols)
    edges = [*range(0, n_paths, rows), n_paths]
    refine = batch.jump_times is not None and batch.jump_times.size > 0
    if refine:
        geo = batch.jump_geometry  # a cached_property: filled here, before any thread reads it
        rec_edges = np.searchsorted(batch.jump_path, edges).tolist()
        seg_edges = np.searchsorted(geo.paths, edges).tolist()

    def run_blocks(b0: int, b1: int) -> None:
        buf = np.empty((min(rows, n_paths), n_cols))
        scaled = None if path_scale == 1.0 else np.empty_like(buf)
        for b in range(b0, b1):
            r0, r1 = edges[b], edges[b + 1]
            block = values[r0:r1]
            if scaled is not None:
                block = np.multiply(block, path_scale, out=scaled[:r1 - r0])
            dev = buf[:r1 - r0]
            for k, target in enumerate(grid_targets):
                if target is None:
                    np.abs(block, out=dev)
                else:
                    np.subtract(block, target, out=dev)
                    np.abs(dev, out=dev)
                dev.max(axis=1, out=out[k, r0:r1])
            if not refine or rec_edges[b] == rec_edges[b + 1]:
                continue

            # the block's jump records are contiguous, one segment per path with records
            lo, hi = rec_edges[b], rec_edges[b + 1]
            s0, s1 = seg_edges[b], seg_edges[b + 1]
            pre, post = geo.pre[lo:hi], geo.post[lo:hi]
            if scaled is not None:
                pre, post = path_scale * pre, path_scale * post
            starts = geo.starts[s0:s1] - lo
            owners = geo.paths[s0:s1] - r0
            t = batch.jump_times[lo:hi]
            jump_f = {key: np.asarray(f(t), dtype=float) for key, f in shifts.items()}
            cand, other = np.empty(hi - lo), np.empty(hi - lo)
            for k, (f, scale) in enumerate(targets):
                if f is None:
                    np.abs(pre, out=cand)
                    np.abs(post, out=other)
                else:
                    t_target = scale * jump_f[id(f)]
                    np.abs(np.subtract(pre, t_target, out=cand), out=cand)
                    np.abs(np.subtract(post, t_target, out=other), out=other)
                np.maximum(cand, other, out=cand)
                seg_max = np.maximum.reduceat(cand, starts)
                row = out[k, r0:r1]
                row[owners] = np.maximum(row[owners], seg_max)

    n_blocks = len(edges) - 1
    if n_blocks == 1:
        run_blocks(0, 1)
        return out
    half = n_blocks // 2
    with ThreadPoolExecutor(1) as helper:
        second = helper.submit(run_blocks, half, n_blocks)
        run_blocks(0, half)
        second.result()
    return out


_BATCH_ELEMS = 1 << 22  # grid values per batch that batch_plan aims at: a 32 MiB values array


def batch_plan(n_total: int, n_steps: int) -> list[tuple[int, int]]:
    """Deterministic split of n_total paths into (batch_index, size) pieces.

    The plan depends only on (n_total, n_steps), never on worker count, so
    distributing batches over processes cannot change results.
    """
    if n_total < 1:
        raise ValueError("n_total must be positive")
    per = max(64, min(n_total, _BATCH_ELEMS // (n_steps + 1)))
    sizes = [per] * (n_total // per)
    if n_total % per:
        sizes.append(n_total % per)
    return list(enumerate(sizes))


def _require_stream(stream) -> None:
    if not isinstance(stream, RngStream):
        raise ValueError("an RngStream is required for reproducible estimates")


def _run_batch(job):
    kernel, stream, size = job
    return kernel(stream, size)


def map_batches(kernel, n_paths: int, n_steps: int, stream: RngStream, pmap=map) -> list:
    """``kernel(stream.child(b), size)`` for each ``(b, size)`` of :func:`batch_plan`.

    Results come back as a list in plan order; callers reduce it in that
    order, so sums are bit-identical under any ``pmap``.  ``pmap(fn, jobs)``
    may be ``map`` or an executor's ``map``; for a process pool, ``kernel``
    must pickle, i.e. be a module-level function or a ``functools.partial``
    of one.
    """
    _require_stream(stream)
    jobs = [(kernel, stream.child(b), size) for b, size in batch_plan(n_paths, n_steps)]
    return list(pmap(_run_batch, jobs))


def _sups_kernel(sample, targets, n_steps, stream, size) -> np.ndarray:
    return _sup_matrix(sample(size, n_steps, stream), targets)


def sample_sups(sample, targets, n_paths: int, n_steps: int, stream: RngStream,
                pmap=map) -> np.ndarray:
    """Sup-norm distances of ``n_paths`` sampled paths to each target.

    ``sample(size, n_steps, rng)`` draws one batch, e.g. a sampler with its
    leading arguments bound: ``partial(sample_jump_batch, params, eps)``.
    ``targets`` holds ``(f, shift_scale)`` pairs, f None for the centred sup.
    Row i of the ``(len(targets), n_paths)`` result is
    ``sup_distance_batch(batch, *targets[i])`` over the batches in plan
    order, so every target sees the same paths; each batch is read once for
    all targets.  Pass one f object for targets that share a shift, so it is
    evaluated once.
    """
    kernel = partial(_sups_kernel, sample, tuple(targets), n_steps)
    return np.concatenate(map_batches(kernel, n_paths, n_steps, stream, pmap), axis=1)


def write_path_csv(path: BatchPaths, out, jumps_out=None) -> None:
    """Write a one-path batch as CSV with header t,x; optionally its jumps as t,size."""
    if path.n_paths != 1:
        raise ValueError("write_path_csv takes a one-path batch (BatchPaths.extract)")
    grid = np.column_stack([path.times, path.values[0]])
    np.savetxt(out, grid, delimiter=",", header="t,x", comments="", fmt="%.17g")
    if jumps_out is not None:
        jt = path.jump_times if path.jump_times is not None else np.empty(0)
        js = path.jump_sizes if path.jump_sizes is not None else np.empty(0)
        np.savetxt(jumps_out, np.column_stack([jt, js]), delimiter=",",
                   header="t,size", comments="", fmt="%.17g")
