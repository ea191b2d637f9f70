"""Seeded path simulation for the symmetric alpha-stable process on [0, 1].

Three exact-in-law samplers, all driven by named substreams so results are
reproducible and independent of batch splitting or worker count:

* ``sample_stable_batch``: i.i.d. stable increments (Chambers-Mallows-Stuck),
  the reference marginal-law sampler,
* ``sample_jump_batch``: jumps above a cutoff resolved individually, the
  sub-cutoff remainder replaced by its Gaussian proxy (optional),
* ``sample_truncated_batch`` / ``sample_tilted_batch``: jump-resolved paths
  of the truncated process, optionally under an exponential tilt of the jump
  measure; the tilted sampler records everything needed to reweight back.

A path is a :class:`BatchPaths`; one path is a batch of one
(``BatchPaths.extract``).  ``sup_distance_batch`` evaluates sup-norm distances
to a scaled drift, refining within each step by replaying the recorded jump
instants, so a jump that briefly exits the ball between grid points is not
missed.  ``map_batches`` is the one batch loop of every estimator: it runs a
kernel over the deterministic ``batch_plan``, each batch on its own child
stream.  Every estimator that counts sups draws through ``sample_sups``,
which returns the sups of every path against every target as one matrix;
the estimator keeps only its own reduction (``< r`` or ``> x``).
"""

from __future__ import annotations

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
    the per-path segments of the records.  It is computed on first use, so
    every target that :func:`sup_distance_batch` evaluates on the same batch
    shares one geometry.  Batches are treated as immutable: no code writes
    into their arrays after sampling, so the cache stays exact.
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
        dt = self.dt
        step = np.minimum((t / dt).astype(np.int64), n_steps - 1)
        frac = t / dt - step

        smooth = np.zeros(t.size)
        if self.drift_steps is not None:
            smooth += self.drift_steps[step]
        if self.small_noise is not None:
            smooth += self.small_noise[p, step]

        # exclusive prefix of same-step earlier jumps; records are (path, time)-sorted
        key = p * n_steps + step
        new_group = np.empty(t.size, dtype=bool)
        new_group[0] = True
        np.not_equal(key[1:], key[:-1], out=new_group[1:])
        excl = np.cumsum(x) - x
        group_id = np.cumsum(new_group) - 1
        excl = excl - excl[new_group][group_id]

        pre = self.values[p, step] + smooth * frac + excl
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
    return (np.sin(alpha * u) / np.cos(u) ** inv_a
            * (np.cos((1.0 - alpha) * u) / e) ** ((1.0 - alpha) * inv_a))


def sample_stable_batch(params: AlphaStableParams, n_paths: int, n_steps: int,
                        rng, t_max: float = 1.0) -> BatchPaths:
    """Paths from i.i.d. stable increments on a uniform grid.

    Each increment over dt has characteristic function exp(-c_alpha dt |u|^alpha),
    so the grid marginals are exact; nothing is known between grid points.
    """
    _check_shape(n_paths, n_steps)
    gen = _as_generator(rng)
    dt = t_max / n_steps
    scale = (params.c_alpha * dt) ** (1.0 / params.alpha)
    incr = scale * standard_symmetric_stable(params.alpha, (n_paths, n_steps), gen)
    values = np.zeros((n_paths, n_steps + 1))
    np.cumsum(incr, axis=1, out=values[:, 1:])
    times = np.linspace(0.0, t_max, n_steps + 1)
    return BatchPaths(times=times, values=values)


def _draw_jump_times(gen, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Uniform jump instants in (0, 1] for per-path Poisson counts."""
    total = int(counts.sum())
    path_idx = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    t = 1.0 - gen.random(total)
    return path_idx, t


def _pareto_magnitudes(gen, n: int, alpha: float, lower: float, upper: float | None) -> np.ndarray:
    """Magnitudes from the density alpha x^(-1-alpha) restricted to [lower, upper)."""
    u = 1.0 - gen.random(n)  # in (0, 1]
    lo_pow = lower ** -alpha
    if upper is None:
        return (u * lo_pow) ** (-1.0 / alpha)
    hi_pow = upper ** -alpha
    return (hi_pow + u * (lo_pow - hi_pow)) ** (-1.0 / alpha)


def _signs(gen, n: int) -> np.ndarray:
    return 2.0 * gen.integers(0, 2, n) - 1.0


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


def _bin_jumps(path_idx, t, sizes, n_paths, n_steps):
    """Sort jumps by (path, time) and sum them into per-step buckets.

    The order equals ``np.lexsort((t, path_idx))`` element for element (see
    :func:`_jump_order`) at a fraction of its cost, so records, values and
    log-weights are bit-identical to a lexsort.
    """
    order = _jump_order(path_idx, t)
    path_idx, t, sizes = path_idx[order], t[order], sizes[order]
    step = np.minimum((t * n_steps).astype(np.int64), n_steps - 1)
    flat = path_idx * n_steps + step
    per_step = np.bincount(flat, weights=sizes, minlength=n_paths * n_steps)
    return path_idx, t, sizes, per_step.reshape(n_paths, n_steps)


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
    rate = (2.0 / alpha) * eps_cutoff**-alpha
    counts = gen.poisson(rate, n_paths)
    path_idx, t = _draw_jump_times(gen, counts)
    mags = _pareto_magnitudes(gen, t.size, alpha, eps_cutoff, None)
    sizes = mags * _signs(gen, t.size)
    noise = None
    dt = 1.0 / n_steps
    if gaussian_refinement:
        sd = np.sqrt(truncated_second_moment(alpha, eps_cutoff) * dt)
        noise = gen.normal(0.0, sd, (n_paths, n_steps))
    path_idx, t, sizes, per_step = _bin_jumps(path_idx, t, sizes, n_paths, n_steps)
    incr = per_step if noise is None else per_step + noise
    values = np.zeros((n_paths, n_steps + 1))
    np.cumsum(incr, axis=1, out=values[:, 1:])
    times = np.linspace(0.0, 1.0, n_steps + 1)
    return BatchPaths(times=times, values=values, eps_cutoff=eps_cutoff, jump_path=path_idx,
                      jump_times=t, jump_sizes=sizes, small_noise=noise)


def sample_truncated_batch(params: AlphaStableParams, r: float, n_paths: int, n_steps: int,
                           rng, eps_cutoff: float | None = None,
                           gaussian_refinement: bool = True) -> BatchPaths:
    """Paths of the truncated process: every jump with |x| >= r removed.

    Identical draw sequence to :func:`sample_tilted_batch` with a zero tilt,
    so the two agree path for path under a common stream.
    """
    tilt = TiltSpec.middle_shift(params, zero_shift(), c=0.0, r=r)
    return sample_tilted_batch(tilt, n_paths, n_steps, rng, eps_cutoff=eps_cutoff,
                               gaussian_refinement=gaussian_refinement,
                               drift_mode="martingale", compute_weights=False)


def sample_tilted_batch(tilt, n_paths: int, n_steps: int, rng,
                        eps_cutoff: float | None = None, gaussian_refinement: bool = True,
                        drift_mode: str = "shifted", compute_weights: bool = True,
                        ) -> tuple[BatchPaths, np.ndarray] | BatchPaths:
    """Paths under the tilted jump measure, with exact reweighting records.

    Jumps below the tilt cutoff are drawn by thinning from the envelope
    (1+B) times the untilted intensity, B the tilt amplitude bound, so no
    tilted inverse CDF is needed.  Above the cutoff the tilt is off: in the
    middle regime those jumps are removed entirely, in the small regime they
    are kept untilted.  The default ``drift_mode="shifted"`` adds the
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
    counts = gen.poisson(rate_int, n_paths)
    path_idx, t = _draw_jump_times(gen, counts)
    mags = _pareto_magnitudes(gen, t.size, alpha, eps_cutoff, cut)
    sizes = mags * _signs(gen, t.size)
    if b_bound > 0.0:
        accept_u = gen.random(t.size)
        accept = accept_u * (1.0 + b_bound) < 1.0 + tilt.beta(t) * sizes
        path_idx, t, sizes = path_idx[accept], t[accept], sizes[accept]

    # exterior jumps |x| >= cut, untilted; only the small regime keeps them
    if tilt.keeps_exterior_jumps:
        rate_ext = scale * (2.0 / alpha) * cut**-alpha
        counts_ext = gen.poisson(rate_ext, n_paths)
        pe, te = _draw_jump_times(gen, counts_ext)
        me = _pareto_magnitudes(gen, te.size, alpha, cut, None)
        se = me * _signs(gen, te.size)
        path_idx = np.concatenate([path_idx, pe])
        t = np.concatenate([t, te])
        sizes = np.concatenate([sizes, se])

    noise = None
    if gaussian_refinement:
        sd = np.sqrt(scale * truncated_second_moment(alpha, eps_cutoff) * dt)
        noise = gen.normal(0.0, sd, (n_paths, n_steps))

    # compensate the tilt of the interior band so the component is a martingale
    bbar = step_mean_amplitude(tilt, n_steps)
    v_band = truncated_second_moment(alpha, cut) - truncated_second_moment(alpha, eps_cutoff)
    drift = -scale * v_band * bbar * dt
    if drift_mode == "shifted":
        times_grid = np.linspace(0.0, 1.0, n_steps + 1)
        shift_curve = tilt.compensator_shift_curve(times_grid)
        drift = drift + np.diff(shift_curve)

    path_idx, t, sizes, per_step = _bin_jumps(path_idx, t, sizes, n_paths, n_steps)
    incr = per_step + drift[None, :]
    if noise is not None:
        incr = incr + noise
    values = np.zeros((n_paths, n_steps + 1))
    np.cumsum(incr, axis=1, out=values[:, 1:])
    times = np.linspace(0.0, 1.0, n_steps + 1)
    batch = BatchPaths(times=times, values=values, eps_cutoff=eps_cutoff, jump_path=path_idx,
                       jump_times=t, jump_sizes=sizes, small_noise=noise, drift_steps=drift)
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
    incr = scale[None, :] * standard_symmetric_stable(params.alpha, (n_paths, n_steps), gen)
    values = np.zeros((n_paths, n_steps + 1))
    np.cumsum(incr, axis=1, out=values[:, 1:])
    return BatchPaths(times=times, values=values)


def sup_distance_batch(batch: BatchPaths, f: ShiftFunction | None = None,
                       shift_scale: float = 0.0, path_scale: float = 1.0) -> np.ndarray:
    """sup_t |path_scale * X(t) - shift_scale * f(t)| for every path.

    The sup runs over the grid and, when jump records exist, over the left
    and right limits at each jump instant (``BatchPaths.jump_geometry``,
    computed once per batch); only the target and the per-path maximum are
    evaluated per call.
    """
    times, values = batch.times, batch.values
    target = np.zeros_like(times) if f is None else shift_scale * np.asarray(f(times), dtype=float)
    dev = path_scale * values
    dev -= target  # in place: one grid-sized temporary per call
    out = np.max(np.abs(dev, out=dev), axis=1)

    if batch.jump_times is None or batch.jump_times.size == 0:
        return out

    geo = batch.jump_geometry
    t = batch.jump_times
    t_target = np.zeros_like(t) if f is None else shift_scale * np.asarray(f(t), dtype=float)
    cand = np.maximum(np.abs(path_scale * geo.pre - t_target),
                      np.abs(path_scale * geo.post - t_target))
    seg_max = np.maximum.reduceat(cand, geo.starts)
    out[geo.paths] = np.maximum(out[geo.paths], seg_max)
    return out


def batch_plan(n_total: int, n_steps: int, target_elems: int = 1 << 22) -> list[tuple[int, int]]:
    """Deterministic split of n_total paths into (batch_index, size) pieces.

    The plan depends only on (n_total, n_steps, target_elems), never on worker
    count, so distributing batches over processes cannot change results.
    """
    if n_total < 1:
        raise ValueError("n_total must be positive")
    per = max(64, min(n_total, target_elems // (n_steps + 1)))
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
    batch = sample(size, n_steps, stream)
    return np.stack([sup_distance_batch(batch, f, scale) for f, scale in targets])


def sample_sups(sample, targets, n_paths: int, n_steps: int, stream: RngStream,
                pmap=map) -> np.ndarray:
    """Sup-norm distances of ``n_paths`` sampled paths to each target.

    ``sample(size, n_steps, rng)`` draws one batch, e.g. a sampler with its
    leading arguments bound: ``partial(sample_jump_batch, params, eps)``.
    ``targets`` holds ``(f, shift_scale)`` pairs, f None for the centred sup.
    Row i of the ``(len(targets), n_paths)`` result is
    ``sup_distance_batch(batch, *targets[i])`` over the batches in plan
    order, so every target sees the same paths.
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
