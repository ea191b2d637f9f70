"""Seeded path simulation for the symmetric alpha-stable process on [0, 1].

Three exact-in-law samplers, all driven by named substreams so results are
reproducible and independent of batch splitting or worker count:

* ``sample_stable_batch``: i.i.d. stable increments (Chambers-Mallows-Stuck),
  the reference marginal-law sampler; ``sample_time_changed_batch`` runs
  the same increments through a deterministic clock,
* ``sample_jump_batch``: jumps above a cutoff resolved individually, the
  sub-cutoff remainder replaced by its Gaussian proxy,
* ``sample_tilted_batch``: jump-resolved paths of the truncated process
  under an exponential tilt of the jump measure, with the log-weights that
  reweight them back; at zero tilt the paths follow the truncated law and
  every weight is 1.

The jump-resolved samplers draw each band of jumps as a ``_Band`` and
share ``_bin_with_proxy`` to finish, sort and bin the records and draw the
Gaussian proxy; ``_record_steps`` puts a record in its step, there and in
the sup kernel.  Every sampler ends in ``_cumulate``, which sums increments
into paths.  A batch holds its grid once: the jump samplers bin their
per-step jump sums straight into the ``values`` array the batch returns,
and ``_cumulate`` sums each path there in place; the stable transform
writes its variates over its exponential draws, and ``_cumulate`` sums
those into ``values``.

A path is a :class:`BatchPaths`; one path is a batch of one
(``BatchPaths.extract``).  One kernel evaluates sup-norm distances to scaled
drifts, refining within each step by replaying the recorded jump instants,
so a jump that briefly exits the ball between grid points is not missed.
It takes every target in one cache-blocked pass per batch: each row block
of the grid, then the jump records of the block's undecided paths, against
all targets in turn.  A caller that only tests ``sup < r`` passes
``cap=r`` and gets the sups capped at r: a path whose grid sup already
reaches r for every target is then decided without its jump records.
``sup_distance_batch`` is its one-target form.  ``map_batches`` is the one
batch loop of every estimator: it runs a kernel over the deterministic
``batch_plan``, each batch on its own child stream.  The plan bounds a
batch's grid values and, given the expected jump records per path
(``tilted_jump_rates``), its jump records.  Every estimator that
counts sups draws through ``sample_sups``, which returns the sups of every
path against every target as one matrix; the estimator keeps only its own
reduction (``< r`` or ``> x``).

Inside one batch, the calling thread shares the work with one helper
thread, made for the call (``with ThreadPoolExecutor(1)`` in
``_run_pieces``) and joined before it returns, so no thread outlives a call
and none is alive when a process pool forks.  Every sampler follows one
rule: draw first, then finish in pieces.

* All generator calls run on the calling thread, in one fixed order.  The
  last of them, the Gaussian proxy, may run on the helper while the calling
  thread takes the first pieces; the calling thread does not touch the
  generator again, so the generator sees the same calls in the same order
  as in a serial run.
* Everything after the draws runs as pieces that both threads take in order
  from a shared counter: the stable transform in element chunks; the jump
  magnitudes, the thinning test, the (path, time) sort, the gathers and the
  per-step sums in path chunks; ``_cumulate`` in row chunks, once the proxy
  is joined; the sup kernel in row blocks.
* Each piece reads only its own slice of the draws and writes only its own
  slice of outputs allocated before the pieces run, and each element sees
  the same operations as in a serial pass, so the bits do not depend on
  which thread takes which piece.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .constants import truncated_second_moment
from .girsanov import TiltSpec, log_weight_batch, step_mean_amplitude
from .processes import AlphaStableParams, ShiftFunction

DEFAULT_EPS_RATIO = 50.0  # eps_cutoff = jump_cut / 50 unless overridden
_PIECE_ELEMS = 1 << 16  # variates, jump records or grid values per piece: 512 KiB of doubles


def _run_pieces(work, n_pieces: int, first=None):
    """Run ``work(i)`` once for each i in range(n_pieces); return ``first()``.

    The calling thread and one helper thread take the pieces in order from a
    shared counter until none is left.  The helper first runs ``first``,
    when given: the batch's last generator call, so no other generator call
    can overlap it.  The helper is made for the call and joined before it
    returns.  With at most one piece, the calling thread runs it, then
    ``first``, and no helper is made.
    """
    if n_pieces <= 1:
        for i in range(n_pieces):
            work(i)
        return None if first is None else first()
    taken = iter(range(n_pieces))
    lock = threading.Lock()

    def take() -> None:
        while True:
            with lock:
                i = next(taken, None)
            if i is None:
                return
            work(i)

    def helper():
        out = None if first is None else first()
        take()
        return out

    with ThreadPoolExecutor(1) as pool:
        pending = pool.submit(helper)
        take()
        return pending.result()


def _n_pieces(n: int, per: int) -> int:
    return -(-n // per)


@dataclass(frozen=True)
class RngStream:
    """Named, splittable random stream.

    Children are derived by extending the spawn key, so stream identity is a
    path of integers and every (seed, stream, batch) triple maps to one fixed
    generator no matter how work is scheduled.
    """

    seed: int
    subkeys: tuple = ()

    def child(self, *keys: int) -> "RngStream":
        return RngStream(self.seed, self.subkeys + tuple(int(k) for k in keys))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(0, *self.subkeys))
        return np.random.default_rng(ss)


def _require_stream(stream) -> RngStream:
    """``stream`` itself, if it is an RngStream; every sampler and driver takes one."""
    if not isinstance(stream, RngStream):
        raise ValueError("an RngStream is required for reproducible estimates")
    return stream


@dataclass(frozen=True)
class BatchPaths:
    """A batch of paths on a common uniform grid, plus their jump records.

    ``values`` has shape (n_paths, n_steps + 1) with values[:, 0] = 0.  Jump
    records are flat arrays sorted by (path, time); ``jump_path`` holds the
    owning path index, and a record at t belongs to step
    min(floor(t / dt), n_steps - 1) (``_record_steps``).  ``small_noise`` is
    the per-step Gaussian proxy of the sub-cutoff jumps (None for increment
    samplers), ``drift_steps`` the deterministic per-step drift shared by all
    paths.  The sup kernel reads these records and caches nothing on the
    batch.
    """

    times: np.ndarray
    values: np.ndarray
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


def standard_symmetric_stable(alpha: float, size, rng: RngStream) -> np.ndarray:
    """Standard symmetric alpha-stable variates, E exp(iuS) = exp(-|u|^alpha)."""
    gen = _require_stream(rng).generator()
    u = gen.uniform(-np.pi / 2.0, np.pi / 2.0, size)
    e = gen.standard_exponential(size)
    flat_u, flat_e = u.reshape(-1), e.reshape(-1)
    inv_a = 1.0 / alpha

    def piece(i: int) -> None:
        # sin(alpha u) / cos(u)^(1/alpha) * (cos((1 - alpha) u) / e)^((1 - alpha)/alpha),
        # written over e, with the same operations in the same order as the plain expression
        s = slice(i * _PIECE_ELEMS, (i + 1) * _PIECE_ELEMS)
        v = flat_u[s]
        o = np.multiply(alpha, v)
        np.sin(o, out=o)
        den = np.cos(v)
        den **= inv_a
        o /= den
        v *= 1.0 - alpha
        np.cos(v, out=v)
        v /= flat_e[s]
        v **= (1.0 - alpha) * inv_a
        np.multiply(o, v, out=flat_e[s])

    _run_pieces(piece, _n_pieces(e.size, _PIECE_ELEMS))
    return e


def sample_stable_batch(params: AlphaStableParams, n_paths: int, n_steps: int,
                        rng: RngStream) -> BatchPaths:
    """Paths from i.i.d. stable increments on a uniform grid of [0, 1].

    Each increment over dt has characteristic function exp(-c_alpha dt |u|^alpha),
    so the grid marginals are exact; nothing is known between grid points.
    """
    _check_shape(n_paths, n_steps)
    scale = (params.c_alpha * (1.0 / n_steps)) ** (1.0 / params.alpha)
    return _stable_paths(params.alpha, scale, n_paths, n_steps, rng)


def _stable_paths(alpha: float, scale, n_paths: int, n_steps: int, rng: RngStream) -> BatchPaths:
    """Paths whose increments are standard stable variates times ``scale``,
    a scalar or one factor per step."""
    incr = standard_symmetric_stable(alpha, (n_paths, n_steps), rng)
    return _cumulate(np.empty((n_paths, n_steps + 1)), incr, scale=scale)


def _cumulate(values: np.ndarray, incr: np.ndarray, scale=None, **records) -> BatchPaths:
    """The batch on the unit grid whose paths are the running sums of ``incr``.

    ``values`` (n_paths, n_steps + 1) becomes the batch's grid: column 0 is
    set to 0 and the sums are written into the rest.  ``incr`` is either
    ``values[:, 1:]`` itself, so the paths are summed in place, or a
    separate (n_paths, n_steps) array, which is overwritten.  ``records``
    become the batch's fields.  In each row chunk, ``incr`` is first
    multiplied by ``scale`` (a scalar or one factor per step), then the
    per-step ``drift_steps`` and ``small_noise`` are added, each when given,
    in that order.
    """
    drift, noise = records.get("drift_steps"), records.get("small_noise")
    n_paths, n_steps = incr.shape
    rows = max(1, _PIECE_ELEMS // n_steps)

    def piece(i: int) -> None:
        s = slice(i * rows, (i + 1) * rows)
        block = incr[s]
        if scale is not None:
            block *= scale
        if drift is not None:
            block += drift
        if noise is not None:
            block += noise[s]
        values[s, 0] = 0.0
        np.cumsum(block, axis=1, out=values[s, 1:])

    _run_pieces(piece, _n_pieces(n_paths, rows))
    return BatchPaths(times=np.linspace(0.0, 1.0, n_steps + 1), values=values, **records)


@dataclass(frozen=True)
class _Band:
    """The draws of one band of jumps, lower <= |x| < upper, grouped by path.

    Path i owns records ``first[i]:first[i + 1]``, in draw order.  ``t`` and
    ``x`` hold uniforms until :meth:`finish` turns a slice of them, in
    place, into instants and signed sizes; ``up`` marks positive signs.
    """

    counts: np.ndarray
    first: np.ndarray
    t: np.ndarray
    x: np.ndarray
    up: np.ndarray
    alpha: float
    lower: float
    upper: float

    @classmethod
    def draw(cls, gen, rate: float, n_paths: int, alpha: float, lower: float,
             upper: float) -> "_Band":
        """Poisson(rate) jumps per path; upper may be inf.  Draws the counts,
        then uniforms for the instants, then for the magnitudes, then the signs."""
        counts = gen.poisson(rate, n_paths)
        first = np.zeros(n_paths + 1, dtype=np.int64)
        np.cumsum(counts, out=first[1:])
        n = int(first[-1])
        t, x = gen.random(n), gen.random(n)
        return cls(counts, first, t, x, gen.integers(0, 2, n).astype(bool), alpha, lower, upper)

    def records(self, p0: int, p1: int) -> slice:
        return slice(self.first[p0], self.first[p1])

    def finish(self, s: slice) -> None:
        """Instants on (0, 1], and magnitudes with density alpha x^(-1-alpha)
        on [lower, upper) by inversion, with their signs, for the records ``s``."""
        t, x = self.t[s], self.x[s]
        np.subtract(1.0, t, out=t)
        hi_pow = self.upper ** -self.alpha  # 0.0 for upper = inf, so the sum below is exact
        np.subtract(1.0, x, out=x)
        x *= self.lower ** -self.alpha - hi_pow
        x += hi_pow
        x **= -1.0 / self.alpha
        x *= 2.0 * self.up[s] - 1.0


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


def _record_steps(t, dt: float, n_steps: int):
    """(step, t / dt) of each jump instant, step = min(floor(t / dt), n_steps - 1): the
    one step rule of the binning and the jump limits.  t * n_steps can round across
    an integer, and a batch restricted to [0, t*] has dt = t* / n_steps."""
    scaled = t / dt
    step = scaled.astype(np.int64)
    np.minimum(step, n_steps - 1, out=step)
    return step, scaled


def _bin_with_proxy(bands, n_paths: int, n_steps: int, proxy, thin=None):
    """Finish, sort and bin the jump records of ``bands``, and draw the proxy.

    Works in path chunks of about ``_PIECE_ELEMS`` records.  ``thin``, when
    given, is ``(tilt, u, bound)`` for ``bands[0]``: a first pass finishes
    that band and keeps record i when u[i] (1 + bound) < 1 + beta(t_i) x_i,
    overwriting u with log1p(beta(t) x).  The second pass finishes the other
    bands and orders each chunk's records, its paths' records of each band
    in turn, by (path, time); that equals ``np.lexsort((t, path_idx))`` over
    the bands' records concatenated (see :func:`_jump_order`), so records,
    values and log-weights are bit-identical to a lexsort's.  It then sums
    them per step.  ``proxy``, the batch's last generator call, runs on the
    helper thread while the calling thread takes the first chunks.

    Returns (jump_path, t, sizes, log_tilt, values, noise): values is the
    batch's (n_paths, n_steps + 1) grid array, each step's jump sum in the
    column after it and column 0 not yet set, for ``_cumulate`` to sum in
    place; log_tilt holds the kept log1p(beta(t) x) in record order, 0 on
    the other bands' records, and is None without ``thin``.
    """
    counts = [band.counts for band in bands]  # records per path, after thinning
    per = max(1, _PIECE_ELEMS * n_paths // max(1, sum(int(b.first[-1]) for b in bands)))
    edges = [*range(0, n_paths, per), n_paths]
    n_pieces = len(edges) - 1
    keep = None
    if thin is not None:
        tilt, u, bound = thin
        thinned = bands[0]
        keep = np.empty(u.size, dtype=bool)
        counts[0] = np.empty(n_paths, dtype=np.int64)

        def thin_piece(i: int) -> None:
            p0, p1 = edges[i], edges[i + 1]
            s = thinned.records(p0, p1)
            thinned.finish(s)
            bx = tilt.beta(thinned.t[s])
            bx *= thinned.x[s]
            np.less(u[s] * (1.0 + bound), 1.0 + bx, out=keep[s])
            np.log1p(bx, out=u[s])
            owner = np.repeat(np.arange(p1 - p0), thinned.counts[p0:p1])
            counts[0][p0:p1] = np.bincount(owner[keep[s]], minlength=p1 - p0)

        _run_pieces(thin_piece, n_pieces)

    out_counts = sum(counts)
    first = np.zeros(n_paths + 1, dtype=np.int64)
    np.cumsum(out_counts, out=first[1:])
    path_out = np.empty(first[-1], dtype=np.int64)
    t_out, x_out = np.empty(first[-1]), np.empty(first[-1])
    log_tilt = None if keep is None else np.empty(first[-1])
    values = np.empty((n_paths, n_steps + 1))

    def sort_piece(i: int) -> None:
        p0, p1 = edges[i], edges[i + 1]
        t, x, lt = [], [], []
        for j, band in enumerate(bands):
            s = band.records(p0, p1)
            if j == 0 and keep is not None:
                k = keep[s]
                t.append(band.t[s][k])
                x.append(band.x[s][k])
                lt.append(u[s][k])
            else:
                band.finish(s)
                t.append(band.t[s])
                x.append(band.x[s])
                lt.append(np.zeros(s.stop - s.start))
        owner = np.concatenate([np.repeat(np.arange(p1 - p0), c[p0:p1]) for c in counts])
        t, x = np.concatenate(t), np.concatenate(x)
        order = _jump_order(owner, t)
        o = slice(first[p0], first[p1])
        path_out[o] = np.repeat(np.arange(p0, p1), out_counts[p0:p1])
        t_out[o], x_out[o] = t[order], x[order]
        if log_tilt is not None:
            log_tilt[o] = np.concatenate(lt)[order]
        step = _record_steps(t_out[o], 1.0 / n_steps, n_steps)[0]
        step += (path_out[o] - p0) * n_steps
        values[p0:p1, 1:] = np.bincount(step, weights=x_out[o],
                                        minlength=(p1 - p0) * n_steps).reshape(p1 - p0, n_steps)

    noise = _run_pieces(sort_piece, n_pieces, proxy)
    return path_out, t_out, x_out, log_tilt, values, noise


def _proxy(gen, sd: float, n_paths: int, n_steps: int):
    """The draw ``gen.normal(0.0, sd, (n_paths, n_steps))``, to be made later.

    Its array is allocated here, on the calling thread, so the helper thread
    that makes the draw allocates nothing grid-sized: each thread allocates
    from its own malloc arena, and a grid-sized array freed in a helper's
    arena stayed resident in some runs.
    """
    out = np.empty((n_paths, n_steps))

    def draw() -> np.ndarray:
        gen.standard_normal(out=out)
        np.multiply(out, sd, out=out)
        # normal() returns loc + sd * z; adding loc = 0.0 keeps its bits
        return np.add(out, 0.0, out=out)

    return draw


def _check_shape(n_paths: int, n_steps: int) -> None:
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    if n_steps < 2:
        raise ValueError("n_steps must be at least 2")


def _cutoff_power(alpha: float, eps_cutoff: float) -> float:
    """eps_cutoff^-alpha, which sets the rate (2/alpha) eps_cutoff^-alpha of the
    jumps |x| >= eps_cutoff; refuses a positive cutoff whose power overflows."""
    try:
        return math.pow(eps_cutoff, -alpha)
    except OverflowError:
        raise ValueError("eps_cutoff is too small: eps_cutoff^-alpha overflows") from None


def _jump_rate(alpha: float, eps_cutoff: float) -> float:
    """(2/alpha) eps_cutoff^-alpha, the rate per path of the jumps |x| >= eps_cutoff."""
    return _check_records((2.0 / alpha) * _cutoff_power(alpha, eps_cutoff))


def _check_records(per_path: float) -> float:
    """``per_path`` expected jump records per path, refused above the
    ``_BATCH_RECORDS`` that one batch may hold: no plan could draw a path."""
    if not per_path <= _BATCH_RECORDS:
        raise ValueError(f"eps_cutoff is too small: {per_path:.3g} expected jump records per "
                         f"path exceed the {_BATCH_RECORDS} one batch may hold")
    return per_path


def _resolve_cutoff(eps_cutoff: float | None, cut: float) -> float:
    """``eps_cutoff``, or cut / ``DEFAULT_EPS_RATIO`` for None; refused unless
    it lies in (0, cut), cut being the radius or a tilt's jump cut."""
    if eps_cutoff is None:
        eps_cutoff = cut / DEFAULT_EPS_RATIO
    if not 0.0 < eps_cutoff < cut:
        raise ValueError(f"eps_cutoff must lie in (0, {float(cut)})")
    return eps_cutoff


def sample_jump_batch(params: AlphaStableParams, eps_cutoff: float, n_paths: int,
                      n_steps: int, rng: RngStream) -> BatchPaths:
    """Jump-resolved paths: all jumps above eps_cutoff drawn individually.

    Jumps |x| >= eps arrive at rate (2/alpha) eps^-alpha with Pareto
    magnitudes and symmetric signs.  The discarded sub-eps part is a centered
    martingale with per-step variance v0(eps) dt, replaced by that Gaussian.
    No compensating drift is needed: the big-jump part is symmetric, hence
    already centered.
    """
    _check_shape(n_paths, n_steps)
    if not 0.0 < eps_cutoff < np.inf:
        raise ValueError("eps_cutoff must be positive and finite")
    alpha = params.alpha
    rate = _jump_rate(alpha, eps_cutoff)
    gen = _require_stream(rng).generator()
    band = _Band.draw(gen, rate, n_paths, alpha, eps_cutoff, np.inf)
    sd = np.sqrt(truncated_second_moment(alpha, eps_cutoff) * (1.0 / n_steps))
    path_idx, t, sizes, _, values, noise = _bin_with_proxy(
        [band], n_paths, n_steps, _proxy(gen, sd, n_paths, n_steps))
    del band  # the raw draws die before the paths are summed
    return _cumulate(values, values[:, 1:], jump_path=path_idx, jump_times=t, jump_sizes=sizes,
                     small_noise=noise)


def tilted_jump_rates(tilt: TiltSpec, eps_cutoff: float | None) -> tuple[float, float, float]:
    """(eps_cutoff, interior rate, exterior rate) of :func:`sample_tilted_batch`.

    ``eps_cutoff`` is resolved against jump_cut (:func:`_resolve_cutoff`).
    The interior rate is the Poisson rate per path of the envelope jumps
    eps_cutoff <= |x| < jump_cut, which the sampler draws before thinning;
    the exterior rate, of the untilted jumps |x| >= jump_cut, is 0 unless
    the tilt keeps them.  Their sum is the expected jump records per path,
    refused as :func:`_check_records` refuses it.
    """
    alpha = tilt.params.alpha
    cut = tilt.jump_cut
    scale = tilt.intensity_scale
    eps_cutoff = _resolve_cutoff(eps_cutoff, cut)
    rate_int = scale * (1.0 + tilt.amplitude_bound) * (2.0 / alpha) * (
        _cutoff_power(alpha, eps_cutoff) - cut**-alpha)
    rate_ext = scale * (2.0 / alpha) * cut**-alpha if tilt.keeps_exterior_jumps else 0.0
    _check_records(rate_int + rate_ext)
    return eps_cutoff, rate_int, rate_ext


def sample_tilted_batch(tilt, n_paths: int, n_steps: int, rng: RngStream,
                        eps_cutoff: float | None = None) -> tuple[BatchPaths, np.ndarray]:
    """Paths under the tilted jump measure, with exact reweighting records.

    Jumps below the tilt cutoff are drawn by thinning from the envelope
    (1+B) times the untilted intensity, B the tilt amplitude bound, so no
    tilted inverse CDF is needed.  Above the cutoff the tilt is off: in the
    middle regime those jumps are removed entirely, in the small regime they
    are kept untilted.  Jumps below ``eps_cutoff`` are replaced by their
    Gaussian proxy.  The drift compensates the tilt, so the path is a
    centered martingale, which is how the importance-sampling estimator
    consumes it; adding ``tilt.compensator_shift_curve`` gives the tilted
    path with its mean.  At zero tilt (amplitude bound 0) the paths follow
    the truncated law and every log-weight is 0, with no weight pass.

    Returns (batch, log_weights).
    """
    _check_shape(n_paths, n_steps)
    gen = _require_stream(rng).generator()
    alpha = tilt.params.alpha
    cut = tilt.jump_cut
    scale = tilt.intensity_scale
    eps_cutoff, rate_int, rate_ext = tilted_jump_rates(tilt, eps_cutoff)
    b_bound = tilt.amplitude_bound
    dt = 1.0 / n_steps

    # interior jumps eps <= |x| < cut, thinned from the (1 + B)-inflated rate
    bands = [_Band.draw(gen, rate_int, n_paths, alpha, eps_cutoff, cut)]
    thin = None if b_bound == 0.0 else (tilt, gen.random(bands[0].t.size), b_bound)

    # exterior jumps |x| >= cut, untilted; only the small regime keeps them
    if tilt.keeps_exterior_jumps:
        bands.append(_Band.draw(gen, rate_ext, n_paths, alpha, cut, np.inf))

    # compensate the tilt of the interior band so the component is a martingale
    bbar = step_mean_amplitude(tilt, n_steps)
    v_band = truncated_second_moment(alpha, cut) - truncated_second_moment(alpha, eps_cutoff)
    drift = -scale * v_band * bbar * dt

    var = scale * truncated_second_moment(alpha, eps_cutoff) * dt  # of the proxy per step
    path_idx, t, sizes, log_tilt, values, noise = _bin_with_proxy(
        bands, n_paths, n_steps, _proxy(gen, np.sqrt(var), n_paths, n_steps), thin)
    del bands, thin  # the raw draws die before the paths are summed
    batch = _cumulate(values, values[:, 1:], jump_path=path_idx, jump_times=t, jump_sizes=sizes,
                      small_noise=noise, drift_steps=drift)
    if b_bound == 0.0:
        return batch, np.zeros(n_paths)
    return batch, log_weight_batch(batch, log_tilt, bbar, var)


def sample_time_changed_batch(params: AlphaStableParams, speed, n_paths: int, n_steps: int,
                              rng: RngStream) -> BatchPaths:
    """Stable paths run through the clock Phi(t) = int_0^t speed(s) ds.

    ``speed`` is a positive callable on [0, 1], evaluated on the grid and
    integrated by the trapezoid rule; increments then scale as
    (c_alpha dPhi)^(1/alpha).  In law this equals a stable process whose jump
    measure carries the total mass Phi(1).
    """
    _check_shape(n_paths, n_steps)
    times = np.linspace(0.0, 1.0, n_steps + 1)
    mu = np.asarray(speed(times), dtype=float)
    if mu.shape != times.shape or np.any(mu < 0.0) or not np.all(np.isfinite(mu)):
        raise ValueError("speed must be nonnegative and finite on the grid")
    d_phi = 0.5 * (mu[:-1] + mu[1:]) * (1.0 / n_steps)
    if not np.any(d_phi > 0.0):
        raise ValueError("speed must have positive total mass")
    scale = (params.c_alpha * d_phi) ** (1.0 / params.alpha)
    return _stable_paths(params.alpha, scale, n_paths, n_steps, rng)


def sup_distance_batch(batch: BatchPaths, f: ShiftFunction | None = None,
                       shift_scale: float = 0.0, path_scale: float = 1.0,
                       cap: float = np.inf) -> np.ndarray:
    """min(sup_t |path_scale * X(t) - shift_scale * f(t)|, cap) for every path.

    The sup runs over the grid and, when jump records exist, over the left
    and right limits at each jump instant, so a jump that briefly exits the
    ball between grid points is not missed.  A caller that only tests
    ``sup < r`` passes ``cap=r``: the refined sup is never below the grid
    sup, so a path whose grid sup already reaches ``cap`` is decided without
    its jump records.  This is one row of the sup kernel that
    :func:`sample_sups` runs for all of its targets at once.
    """
    return _sup_matrix(batch, [(f, shift_scale)], path_scale, cap)[0]


def _sup_matrix(batch: BatchPaths, targets, path_scale: float = 1.0,
                cap: float = np.inf) -> np.ndarray:
    """Refined sups of every path against every ``(f, shift_scale)`` target, capped.

    Returns the ``(len(targets), n_paths)`` matrix ``np.minimum(sup, cap)``
    in one pass over the batch, in row blocks of about ``_PIECE_ELEMS`` grid
    values.  For each block, the grid max of every target goes through one
    reused buffer.  The block's paths whose grid sup is below ``cap`` for
    some target are still undecided (with ``cap`` = inf, every path); only
    their jump records are gathered, given their left and right limits
    (:func:`_jump_limits`) and reduced per path, again for every target.  A
    path whose grid sup reaches ``cap`` for every target keeps it: its
    refined sup is no smaller, so both cap to ``cap``.  f is evaluated once
    per distinct f object and scaled per target; a None target skips the
    subtraction.  Every element sees the same operations as a one-target
    pass would, so each row is bit-identical to the sup against its target
    alone.

    The row blocks are the pieces of ``_run_pieces``: each block has its
    own buffers, builds its own limits and writes only its own columns of
    the result, and nothing it computes depends on another block, so the
    bits do not depend on which thread runs it.
    """
    values = batch.values
    n_paths, n_cols = values.shape
    shifts = {id(f): f for f, _ in targets if f is not None}
    grid_f = {key: np.asarray(f(batch.times), dtype=float) for key, f in shifts.items()}
    grid_targets = [None if f is None else scale * grid_f[id(f)] for f, scale in targets]
    out = np.empty((len(targets), n_paths))
    rows = max(1, _PIECE_ELEMS // n_cols)
    edges = [*range(0, n_paths, rows), n_paths]
    refine = batch.jump_times is not None and batch.jump_times.size > 0
    if refine:
        # records are (path, time)-sorted: path i owns records first[i]:first[i + 1]
        first = np.searchsorted(batch.jump_path, np.arange(n_paths + 1))

    def run_block(b: int) -> None:
        r0, r1 = edges[b], edges[b + 1]
        block = values[r0:r1]
        if path_scale != 1.0:
            block = np.multiply(block, path_scale)
        dev = np.empty_like(block)
        for k, target in enumerate(grid_targets):
            if target is None:
                np.abs(block, out=dev)
            else:
                np.subtract(block, target, out=dev)
                np.abs(dev, out=dev)
            dev.max(axis=1, out=out[k, r0:r1])
        if not refine:
            return

        # the undecided paths with records, and where their records start
        live = r0 + np.flatnonzero((out[:, r0:r1] < cap).any(axis=0))
        counts = first[live + 1] - first[live]
        has = counts > 0
        live, counts = live[has], counts[has]
        if live.size == 0:
            return
        starts = np.cumsum(counts) - counts
        sel = np.repeat(first[live] - starts, counts) + np.arange(starts[-1] + counts[-1])
        t, pre, post = _jump_limits(batch, sel)
        if path_scale != 1.0:
            pre, post = path_scale * pre, path_scale * post
        owners = live - r0
        jump_f = {key: np.asarray(f(t), dtype=float) for key, f in shifts.items()}
        cand, other = np.empty(t.size), np.empty(t.size)
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

    _run_pieces(run_block, len(edges) - 1)
    return np.minimum(out, cap, out=out)


def _jump_limits(batch: BatchPaths, sel):
    """Instants and left and right limits of the jump records ``sel`` selects.

    ``sel``, an index array, picks every record of some paths, in record
    order.  Within a step the continuous part (drift plus Gaussian proxy)
    is accrued linearly up to the jump, and earlier jumps within the
    same step are added in time order, a sum over that (path, step) alone,
    so a path's limits are the same bits in any batch and under any
    selection.  Returns (t, pre, post).
    """
    p, t, x = batch.jump_path[sel], batch.jump_times[sel], batch.jump_sizes[sel]
    n_steps = batch.n_steps
    step, frac = _record_steps(t, batch.dt, n_steps)
    frac -= step
    flat = p * n_steps
    flat += step  # flat index of (path, step) into the per-step arrays

    smooth = None if batch.drift_steps is None else batch.drift_steps[step]
    if batch.small_noise is not None:
        noise = batch.small_noise.take(flat)
        smooth = noise if smooth is None else np.add(smooth, noise, out=smooth)

    # exclusive prefix of same-step earlier jumps, one rank of each group per
    # pass: excl[i] = excl[i - 1] + x[i - 1] within a group, 0 at its start
    later = np.zeros(t.size + 1, dtype=bool)  # continues the group before it; False sentinel
    np.equal(flat[1:], flat[:-1], out=later[1:-1])
    excl = np.zeros(t.size)
    rank = np.flatnonzero(later[1:-1] & ~later[:-2]) + 1  # the second record of each group
    while rank.size:
        excl[rank] = excl[rank - 1] + x[rank - 1]
        rank = rank[later[rank + 1]] + 1

    flat += p  # now into values, which has n_steps + 1 columns
    pre = batch.values.take(flat)
    if smooth is not None:
        smooth *= frac
        pre += smooth
    pre += excl
    return t, pre, pre + x


_BATCH_ELEMS = 1 << 22  # grid values per batch that batch_plan aims at: a 32 MiB values array
_BATCH_RECORDS = 1 << 20  # expected jump records per batch: a tilted batch peaks near 70 MB


def batch_plan(n_total: int, n_steps: int, records: float = 0.0) -> list[tuple[int, int]]:
    """Deterministic split of n_total paths into (batch_index, size) pieces.

    A batch holds about ``_BATCH_ELEMS`` grid values and, given the expected
    jump ``records`` per path, at most ``_BATCH_RECORDS`` expected records;
    no batch is cut below 64 paths.  ``records`` 0 leaves the grid bound
    alone.  The plan depends only on its arguments, never on worker count,
    so distributing batches over processes cannot change results.
    """
    _check_shape(n_total, n_steps)
    cap = _BATCH_ELEMS // (n_steps + 1)
    if records > 0.0:
        cap = min(cap, int(_BATCH_RECORDS // records))
    per = max(64, min(n_total, cap))
    sizes = [per] * (n_total // per)
    if n_total % per:
        sizes.append(n_total % per)
    return list(enumerate(sizes))


def _run_batch(job):
    kernel, stream, size = job
    return kernel(stream, size)


def map_batches(kernel, n_paths: int, n_steps: int, stream: RngStream, pmap=map,
                records: float = 0.0) -> list:
    """``kernel(stream.child(b), size)`` for each ``(b, size)`` of
    ``batch_plan(n_paths, n_steps, records)``.

    Results come back as a list in plan order; callers reduce it in that
    order, so sums are bit-identical under any ``pmap``.  ``pmap(fn, jobs)``
    may be ``map`` or an executor's ``map``; for a process pool, ``kernel``
    must pickle, i.e. be a module-level function or a ``functools.partial``
    of one.
    """
    _require_stream(stream)
    jobs = [(kernel, stream.child(b), size)
            for b, size in batch_plan(n_paths, n_steps, records)]
    return list(pmap(_run_batch, jobs))


def _sups_kernel(sample, targets, n_steps, cap, stream, size) -> np.ndarray:
    return _sup_matrix(sample(size, n_steps, stream), targets, cap=cap)


def sample_sups(sample, targets, n_paths: int, n_steps: int, stream: RngStream,
                pmap=map, cap: float = np.inf) -> np.ndarray:
    """Sup-norm distances of ``n_paths`` sampled paths to each target.

    ``sample(size, n_steps, rng)`` draws one batch, e.g. a sampler with its
    leading arguments bound: ``partial(sample_jump_batch, params, eps)``.
    ``targets`` holds ``(f, shift_scale)`` pairs, f None for the centred sup.
    Row i of the ``(len(targets), n_paths)`` result is
    ``sup_distance_batch(batch, *targets[i], cap=cap)`` over the batches in
    plan order, so every target sees the same paths; each batch is read once
    for all targets.  Pass one f object for targets that share a shift, so it
    is evaluated once, and the radius as ``cap`` when only ``sup < r`` is
    counted, so paths the grid already puts outside every ball skip their
    jump records.
    """
    kernel = partial(_sups_kernel, sample, tuple(targets), n_steps, cap)
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
