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

Every sampler draws its batch in cells.  A batch's grid is cut into up to
``_TIME_BLOCKS`` time blocks (``_block_edges``), and each block's rows into
chunks of ``_STREAM_ROWS`` consecutive rows; a cell is one block of one
chunk, and it draws every variate of its rows and steps from a stream of
its own, ``stream.child(block, chunk)`` of the batch's stream, in one fixed
order: the Poisson counts of each jump band on the block's interval, the
instants in (block start, block end], the magnitudes and the signs, the
thinning uniforms, the Gaussian proxy's sums over the block's coarse
intervals, every ``_BLOCK_SCREEN_STRIDE`` steps from the block's start and
the last possibly shorter (``_coarse_cols``), then the step deviations that
bridge each sum to its steps (``_bridge``); or the stable transform's
uniforms and exponentials (``standard_symmetric_stable``).  Distinct spawn
keys give distinct ``SeedSequence`` streams, and no two cells of any batch
share a key: a cell extends its batch's key by two integers and never
draws from the batch's own stream, so batches of one plan, and the cells
of different plans (whose keys have other lengths or other batch indices),
never meet.  No cell depends on another's draws, so either thread can draw
any cell, in any order.

The jump samplers draw each cell's records with ``_Bands`` and finish a
range of cells together (``_cell_paths``): in every route, the capped
survivors' too, ``_sum_block`` bins the records into their steps in draw
order, adds the drift and the proxy, and sums each path into its block of
the grid, starting from the path's value at the block's start, so every
row's sum runs in the order of one row-wide ``cumsum``; they sort each
block's records by (path, time) (``_jump_order``) only where a batch
keeps them or an exact sup reads them, and ``_place`` puts the sorted
blocks of a piece's rows, or of the capped survivors, in one array each
for the instants and the sizes.  A tilted sampler sums each path's log-tilts
with one ``bincount`` over each block's records in draw order, and adds
the block sums block by block, in every route alike.  ``_record_steps``
puts a record in its step, there, in the sup kernel and on the coarse
grid, whose interval holds its step: step i holds the instants in (t_i,
t_i+1], so a record at its block's right end, or one whose t / dt rounds
across a block edge, stays in its block.
The stable sampler writes its variates into the same kind of rows.

A path is a :class:`BatchPaths`; one path is a batch of one
(``BatchPaths.extract``).  One kernel (``_Sups``) evaluates sup-norm
distances to scaled drifts, refining within each step by replaying the
recorded jump instants, so a jump that briefly exits the ball between grid
points is not missed.  It takes every target at once, one range of rows
and one range of grid columns at a time, and raises each (target, path)
pair's running max: the grid rows, then the jump records of the range's
undecided paths.  A caller that only tests ``sup < r`` passes ``cap=r`` and
gets the sups capped at r: a path whose grid sup reaches r for every
target is decided without its jump records, and a sampler decides a
(target, path) pair on the coarse grid of a time block once its max there
reaches r, so only the other pairs take the full grid.  It has two
drivers: ``_sup_matrix`` runs it over a finished batch in cache-sized row
blocks (``sup_distance_batch`` is its one-target form), and a sampler
asked for its batch's sups (``_streamed_sups``) runs it on each of its
ranges of cells, right after their rows are summed.

A sampler asked for sups capped at a finite r draws its batch block by
block.  A jump cell then sums its rows on the block's coarse grid alone:
its records binned by coarse interval, the drift's interval sums and the
proxy's.  After each block the sampler keeps each path's screened running
max per target (``_Sups.screen``), over the coarse grid, or over every
``_BLOCK_SCREEN_STRIDE``-th column of a stable block, and packs the paths
still below the cap for some target, in path order; only they are drawn
in the next block, in chunks of the packed rows.  Which paths go on is a
function of the draws so far, and each cell's variates are fresh, so
every estimate stays exact in law, and the bits depend on neither threads
nor workers.  Only the paths still inside some ball at t = 1 then draw
their step deviations, each cell's from its generator right after its
coarse sums, and take their fine grid, their proxy's products and their
exact sups over the whole grid, afresh, since the coarse grid rounds the
same values differently (``_survivors``).  The batch the sampler returns
holds only them, whole.  While it draws, it holds each block's coarse
grid and sums, about an eighth of the size of the live paths' grid and
proxy, then the survivors' paths.  An uncapped sampler drops no path and
builds every row's proxy the same way, so a capped run at a cap above
every sup draws the same variates and gives exactly ``np.minimum(uncapped
sups, cap)``.

A sampler asked for uncapped sups keeps no grid.  Each piece sums its
rows one time block at a time into a buffer of its own, its rows by the
widest block plus one column, carries the last column into the next
block, and raises the rows' sups from that buffer; the column it carries
out of the last block, each path's X(1), goes into the sups' end values
(``_Sups.ends``).  A jump piece keeps neither its proxy nor its records
once they are in the sups.  The sampler returns a batch of no paths, as
a capped one does once every path has left every ball, and the tilted
sampler still returns every path's log-weight.  A 2047 x 2048 stable draw
for its sups so peaks at 4.3 MB under ``tracemalloc``, against 36.8 MB
with its grid.  Asked for the sups of no target, ``_streamed_sups((),
np.inf)``, a draw keeps no path, takes no sup and sorts no record, and its
log-weights are the plain draw's bits; it fills ``_Sups.ends`` only when
asked (``ends=True``).  A jump draw asked for neither sums no grid: it
draws its records, the proxy's coarse sums and step deviations, and keeps
only each path's log-tilt sum and proxy product.  The diagnostics kernels
that keep one number per path draw so: 2000 small-regime paths of 256
steps drawn for their weights peak at 7.7 MB, against 88 MB drawn whole.
A sampler asked for no sups returns the whole grid, with its records
sorted by (path, time); no cell draws its counts before its block, so a
thinned batch holds only the records it keeps.

``map_batches`` is the one batch loop of every estimator: it runs a kernel
over the deterministic ``batch_plan``, each batch on its own child stream.
The plan bounds a batch's grid values and, given the expected jump records
per path, its jump records: every caller that maps jump-resolved draws
passes that count, from ``_jump_rate`` or ``tilted_jump_rates``, the one
owner of each rate.  Every estimator that counts sups draws through
``sample_sups``, which returns the sups of every path against every target
as one matrix, or, for importance sampling, asks its tilted sampler for
them; the estimator keeps only its own reduction (``< r`` or ``> x``).

The calling thread shares the pieces of an uncapped batch with one helper
thread (``with ThreadPoolExecutor(1)`` in ``_run_pieces``), made for the
call and joined before it returns, so no thread outlives a call and none
is alive when a process pool forks.  A piece is a run of whole cells: in
an uncapped batch, a range of chunks through every block in turn, so no
block waits for the last piece of the one before.  The threads take the
pieces in order from a shared counter.  Each piece reads only its own
cells' streams and writes only its own rows of outputs allocated before
the pieces run, and its own records, joined in row order once the pieces
are done, so the bits do not depend on which thread takes which
piece, nor on how many cells a piece holds; a piece whose draw raises
ends the call with that error.  A capped batch runs its pieces, ranges of
chunks in one block, on the calling thread: with the proxy drawn on the
coarse grid they hold the GIL for most of their time, so a helper would
mostly wait.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .constants import truncated_second_moment
from .girsanov import TiltSpec, log_weight_batch, step_mean_amplitude
from .processes import AlphaStableParams, ShiftFunction

DEFAULT_EPS_RATIO = 50.0  # eps_cutoff = jump_cut / 50 unless overridden
_PIECE_ELEMS = 1 << 16  # grid values per piece, in whole cells: 512 KiB of doubles
_STREAM_ROWS = 128  # rows per cell: consecutive paths, or packed survivors, on one stream
_TIME_BLOCKS = 8  # time blocks per batch, at most
_BLOCK_STEPS = 64  # grid steps per time block, at least, unless the batch is shorter


def _run_pieces(work, n_pieces: int) -> None:
    """Run ``work(i)`` once for each i in range(n_pieces).

    The calling thread and one helper thread take the pieces in order from a
    shared counter until none is left, or until a piece has raised.  A
    sampler's piece makes its own cells' generators and draws all they
    draw, counts included, so nothing of a batch is drawn before its pieces
    run.  NumPy's generators release the GIL for the whole of a long draw,
    while the sums, maxima and bincounts of the pieces hold it, so one
    thread drawing its piece's cells while the other sums keeps both busy.
    The helper is made for the call and joined before it returns; an error
    it raised is raised here, ahead of the calling thread's.  With at most
    one piece, the calling thread runs it and no helper is made.
    """
    if n_pieces <= 1:
        for i in range(n_pieces):
            work(i)
        return
    taken = iter(range(n_pieces))
    lock = threading.Lock()
    failed = []

    def take() -> None:
        while True:
            with lock:
                i = None if failed else next(taken, None)
            if i is None:
                return
            try:
                work(i)
            except BaseException:
                failed.append(i)
                raise

    with ThreadPoolExecutor(1) as pool:
        pending = pool.submit(take)
        try:
            take()
        finally:
            pending.result()


_threads = threading.local()  # .sups: the sups this thread's next sampler fills, if any

# glibc's malloc maps each block above its mapping threshold (128 KiB at
# first) on its own and trims its heap once twice that lies free at the top;
# freeing a mapped block raises the threshold to that block's size.  One 8 MiB
# block freed here lets the pieces' temporaries, about 512 KiB each, reuse heap
# pages instead of faulting in fresh ones for every piece.
np.empty(1 << 20)


@dataclass(frozen=True)
class RngStream:
    """Named, splittable random stream.

    Children are derived by extending the spawn key, so stream identity is a
    path of integers and every (seed, stream, batch) triple maps to one fixed
    generator no matter how work is scheduled.  A sampler draws from the
    grandchildren ``child(block, chunk)`` of its stream, one per cell, and
    never from the stream itself; ``SeedSequence`` hashes distinct keys to
    distinct states, so two cells share a stream only if a caller hands two
    draws streams whose keys extend one another.
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
    owning path index, and step i holds the records at t in (times[i],
    times[i + 1]] (``_record_steps``).  ``small_noise`` is the per-step
    Gaussian proxy of the sub-cutoff jumps (None for increment samplers),
    ``drift_steps`` the deterministic per-step drift shared by all paths.
    The sup kernel reads these records and caches nothing on the batch.  A
    view of any of these arrays keeps the whole array alive: copy what
    outlives the batch (:meth:`extract` copies).  A sampler asked for
    capped sups returns only the paths still inside some ball at t = 1, in
    path order (``_survivors``), and one asked for uncapped sups none.
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
        """Path ``i`` as a one-path batch with arrays of its own, so it
        keeps none of the batch's arrays alive."""
        if not 0 <= i < self.n_paths:
            raise IndexError(f"path index {i} out of range")
        jp = jt = js = None
        if self.jump_path is not None:
            # records are (path, time)-sorted, so path i owns one block
            lo, hi = np.searchsorted(self.jump_path, [i, i + 1])
            jt, js = self.jump_times[lo:hi].copy(), self.jump_sizes[lo:hi].copy()
            jp = np.zeros(jt.size, dtype=np.int64)
        return replace(self, values=self.values[i:i + 1].copy(), jump_path=jp, jump_times=jt,
                       jump_sizes=js, small_noise=None if self.small_noise is None
                       else self.small_noise[i:i + 1].copy())


def standard_symmetric_stable(alpha: float, size, rng: RngStream) -> np.ndarray:
    """Standard symmetric alpha-stable variates, E exp(iuS) = exp(-|u|^alpha).

    The Chambers-Mallows-Stuck transform of uniforms u on (-pi/2, pi/2) and
    standard exponentials e, all uniforms drawn first: sin(alpha u) /
    cos(u)^(1/alpha) * (cos((1 - alpha) u) / e)^((1 - alpha)/alpha).  The
    increment samplers draw each cell's increments with it, on the cell's
    stream."""
    gen = _require_stream(rng).generator()
    v = gen.random(size)
    e = gen.standard_exponential(size)
    inv_a = 1.0 / alpha
    v *= np.pi
    v += -np.pi / 2.0
    o = np.multiply(alpha, v)
    np.sin(o, out=o)
    den = np.cos(v)
    den **= inv_a
    o /= den
    v *= 1.0 - alpha
    np.cos(v, out=v)
    v /= e
    v **= (1.0 - alpha) * inv_a
    o *= v
    return o


def sample_stable_batch(params: AlphaStableParams, n_paths: int, n_steps: int,
                        rng: RngStream) -> BatchPaths:
    """Paths from i.i.d. stable increments on a uniform grid of [0, 1].

    Each increment over dt has characteristic function exp(-c_alpha dt |u|^alpha),
    so the grid marginals are exact; nothing is known between grid points.
    A sup taken over this grid misses the excursions between grid points, so
    it reads low: a small-ball p-hat from it reads high, and a sup-norm tail
    p-hat low (by 1.2% at x = 5 and by 2.1% at x = 10 against the exact
    1 - p(x), on 100k paths of 2048 steps).
    """
    _check_shape(n_paths, n_steps)
    scale = (params.c_alpha * (1.0 / n_steps)) ** (1.0 / params.alpha)
    return _cell_paths(_require_stream(rng), n_paths, n_steps, stable=(params.alpha, scale))[0]


class _Bands:
    """The jump bands of a jump sampler: each cell's draws, and their records.

    ``bands`` holds (rate per unit time, lower, upper) per band, lower <=
    |x| < upper, upper possibly inf.  ``thin``, when given, is ``(tilt,
    bound)``: a record i of the first band is kept when u_i (1 + bound) < 1 +
    beta(t_i) x_i, and carries log1p(beta(t_i) x_i) as its log-tilt.  A
    cell makes its generator and draws its counts (:meth:`cells`), then
    its uniforms, which :meth:`records` draws and turns into records for a
    range of cells at once.
    """

    def __init__(self, alpha: float, bands, thin=None) -> None:
        self.alpha, self.bands, self.thin = alpha, bands, thin

    def counts(self, gen: np.random.Generator, rows: int, width: float) -> np.ndarray:
        """(n_bands, rows) Poisson counts of each band's jumps on an interval of length ``width``."""
        return np.stack([gen.poisson(rate * width, rows) for rate, _, _ in self.bands])

    def cells(self, stream: RngStream, k: int, chunks, c0: int, c1: int, width: float) -> list:
        """The cells (k, c0), ..., (k, c1 - 1) drawn on ``stream``, cell (k, c)
        the rows chunks[c]:chunks[c + 1] of time block k, of length ``width``:
        each ``(generator, counts)`` right after its counts."""
        cells = []
        for c in range(c0, c1):
            gen = stream.child(k, c).generator()
            cells.append((gen, self.counts(gen, chunks[c + 1] - chunks[c], width)))
        return cells

    def records(self, cells, lo: float, hi: float):
        """The records on (lo, hi] of ``cells``, consecutive chunks of rows,
        each ``(generator, counts)`` right after its counts: (row, t, x,
        log-tilt), the kept ones only, rows counted from the first cell's
        first row.

        Each cell draws one uniform per record for its instant, then one per
        record for its magnitude and sign, then one per record of the first
        band for thinning, each band's records in turn; the draws land in
        one array per kind, band by band, so each band is transformed once
        for all the cells.  The records come band by band, each band's
        grouped by row in row order and in draw order within a row.  The
        log-tilt is None without thinning and 0 outside the first band.  A
        uniform v gives a sign, - for v < 1/2, and the magnitude's uniform
        2v mod 1, both exact for the 53-bit v; the magnitudes have density
        alpha x^(-1-alpha) on [lower, upper), by inversion."""
        per_row = np.stack([_cat([counts[b] for _, counts in cells])
                            for b in range(len(self.bands))])
        starts = np.r_[0, np.cumsum(per_row.sum(axis=1))]  # band b: starts[b]:starts[b + 1]
        t, x = np.empty(starts[-1]), np.empty(starts[-1])
        n0 = int(starts[1])
        u = None if self.thin is None else np.empty(n0)
        at = starts[:-1].copy()
        for gen, counts in cells:
            m = counts.sum(axis=1)
            for kind in (t, x):
                for a, n in zip(at, m):
                    gen.random(out=kind[a:a + n])
            if u is not None:
                gen.random(out=u[at[0]:at[0] + m[0]])
            at += m
        t *= lo - hi
        t += hi  # hi - (hi - lo) u lies in (lo, hi], but for rounding at lo
        np.maximum(t, np.nextafter(lo, np.inf), out=t)
        for a, b, (_, lower, upper) in zip(starts, starts[1:], self.bands):
            _magnitudes(x[a:b], self.alpha, lower, upper)
        row = np.repeat(np.tile(np.arange(per_row.shape[1]), len(self.bands)), per_row.ravel())
        if u is None:
            return row, t, x, None
        tilt, bound = self.thin
        lt = np.zeros(t.size)
        np.multiply(tilt.beta(t[:n0]), x[:n0], out=lt[:n0])
        keep = np.empty(t.size, dtype=bool)
        keep[n0:] = True
        np.less(u * (1.0 + bound), 1.0 + lt[:n0], out=keep[:n0])
        np.log1p(lt[:n0], out=lt[:n0])
        return row[keep], t[keep], x[keep], lt[keep]


def _magnitudes(v: np.ndarray, alpha: float, lower: float, upper: float) -> None:
    """Signed magnitudes with density alpha x^(-1-alpha) on [lower, upper), in
    place of their uniforms ``v``: the sign of v - 1/2, and the inverse CDF at
    1 - (2v mod 1), in (0, 1]."""
    sign = v - 0.5
    v += v
    v -= np.floor(v)
    np.subtract(1.0, v, out=v)
    hi_pow = upper ** -alpha  # 0.0 for upper = inf, so the sum below is exact
    v *= lower ** -alpha - hi_pow
    v += hi_pow
    v **= -1.0 / alpha
    np.copysign(v, sign, out=v)


def _cat(parts: list) -> np.ndarray:
    """``np.concatenate(parts)``, or the one part itself."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _jump_order(path_idx, t):
    """The permutation ``np.lexsort((t, path_idx))``, from one sort of packed keys.

    With t in (0, 1] and path indices below 2^53 (exact as floats), the
    real key path + t is strictly increasing in (path, time) order, and
    rounding to nearest is monotone, so the float key can merge neighbours
    into ties but never swaps them.  The keys are positive normal floats,
    whose bit patterns sort as their values do; clearing the low
    ceil(log2 n) bits of each truncates it, which again merges but never
    swaps, and frees those bits for the record's index.  One in-place sort
    of the packed keys then orders the records by truncated key, ties by
    index, and the low bits read the order.  Records whose truncated keys
    tie already sit in their right slots as a block, in index order; a
    lexsort over just those records restores lexsort's exact order (ties in
    (path, time) share a block and keep their input order).
    """
    n = t.size
    mask = (1 << (n - 1).bit_length()) - 1 if n else 0  # the low bits that hold an index below n
    key = np.add(path_idx, t)
    bits = key.view(np.int64)
    bits &= ~mask
    bits |= np.arange(n)
    key.sort()  # as floats: faster than as integers, and the same order
    order = bits & mask
    bits ^= order  # the truncated keys, in sorted order
    tied = np.zeros(n, dtype=bool)
    np.equal(bits[1:], bits[:-1], out=tied[1:])
    tied[:-1] |= tied[1:]
    if tied.any():
        sub = order[tied]
        order[tied] = sub[np.lexsort((t[sub], path_idx[sub]))]
    return order


def _record_steps(t, times):
    """(step, t / dt - step) of each jump instant, dt = times[1] - times[0]: the one step
    rule of the binning and the jump limits.  Step i holds the instants in (times[i],
    times[i + 1]], the first step also those up to times[0] and the last those past
    times[-1].  t / dt can round across a grid time, so floor(t / dt), which is off by
    at most one, and only where t / dt lies within rounding of an integer, is corrected
    there by comparing t with the grid times themselves: a record at its time block's
    right end, or within rounding of a block edge, stays in the block whose cells drew
    it."""
    last = times.size - 2
    dt = times[1] - times[0]
    scaled = t / dt
    step = scaled.astype(np.int64)
    np.clip(step, 0, last, out=step)
    scaled -= step
    near = np.flatnonzero(np.abs(scaled - 0.5) > 0.5 - 1e-6)  # rounding errs by ~1e-15 n
    if near.size:
        tn, s = t[near], step[near]
        s -= tn <= times[s]
        s += tn > times[s + 1]
        np.clip(s, 0, last, out=s)
        step[near] = s
        scaled[near] = tn / dt - s
    return step, scaled


def _block_edges(n_steps: int) -> list[int]:
    """The first step of each time block, then n_steps: ``_TIME_BLOCKS`` blocks of
    even width, fewer where a block would hold less than ``_BLOCK_STEPS`` steps."""
    n_blocks = max(1, min(_TIME_BLOCKS, n_steps // _BLOCK_STEPS))
    return [k * n_steps // n_blocks for k in range(n_blocks + 1)]


def _chunk_edges(n_rows: int) -> list[int]:
    """The first row of each chunk of ``n_rows`` rows, then n_rows: as few chunks
    as hold at most ``_STREAM_ROWS`` rows each, of as even a size as they can be."""
    n_chunks = -(-n_rows // _STREAM_ROWS)
    return [c * n_rows // n_chunks for c in range(n_chunks + 1)]


def _coarse_cols(width: int, stride: int) -> np.ndarray:
    """The columns of a time block of ``width`` steps, counted from its first,
    that its coarse grid holds: every ``stride``-th, then the last."""
    return np.minimum(np.arange(0, width + stride, stride), width)


def _interval_sums(a: np.ndarray, stride: int) -> np.ndarray:
    """The sums along the last axis of ``a`` over runs of ``stride`` entries,
    the last run possibly shorter, each run added in order."""
    out = a[..., ::stride].copy()
    for o in range(1, stride):
        part = a[..., o::stride]
        out[..., :part.shape[-1]] += part
    return out


def _bridge(steps: np.ndarray, sums: np.ndarray, sd: float, lens) -> None:
    """The per-step proxy, in place of ``steps`` (rows, steps), standard
    normals e_j, whose coarse intervals, of ``lens`` steps each, sum to
    ``sums`` (rows, intervals).

    Each step is z_j = S / n + sd (e_j - mean(e)) over its interval of n
    steps: the steps of a Brownian motion given its values at the
    interval's ends (Glasserman 2004, *Monte Carlo Methods in Financial
    Engineering*, sec. 3.1).  They sum to S within rounding, and with S ~
    N(0, n sd^2) drawn apart from the e_j they are i.i.d. N(0, sd^2),
    whatever was decided from S alone before the e_j were drawn."""
    steps *= sd
    stride = int(lens[0])
    shift = sums - _interval_sums(steps, stride)
    shift /= lens
    for o in range(stride):
        part = steps[:, o::stride]
        part += shift[:, :part.shape[1]]


def _excl(counts: np.ndarray) -> np.ndarray:
    """The exclusive prefix sums of ``counts``."""
    return np.cumsum(counts) - counts


def _sum_block(grid: np.ndarray, z: np.ndarray, row, bins, x, smooth) -> None:
    """Sum some rows over one time block into ``grid``, whose first column
    holds their values at the block's start: column j + 1 is column j plus
    the records x of (row, bin j), added in record order, then ``smooth[j]``
    (None for none) and z[:, j].  ``bins`` counts from the block's first
    step or coarse interval.  Started from the carried values, each row's
    sum runs as one row-wide ``cumsum`` would."""
    n_rows, n_cols = z.shape
    flat = row * n_cols
    flat += bins
    incr = np.bincount(flat, weights=x, minlength=n_rows * n_cols)
    incr = incr.astype(float, copy=False).reshape(n_rows, n_cols)  # int with no records
    if smooth is not None:
        incr += smooth
    incr += z
    incr[:, 0] += grid[:, 0]
    np.cumsum(incr, axis=1, out=grid[:, 1:])


def _place(kept: np.ndarray, blocks: list):
    """The records (t, x), sorted by (row, time), of some rows whose block k
    of row p kept ``kept[k, p]`` records, from ``blocks``: block k's ``[t,
    x]``, sorted by (row, time).

    A row's records run block by block, so block k of row p starts after
    the records of every row before p and those of p's blocks before k.
    The arrays are filled one at a time, and each block's array is dropped
    once it is placed, so placing the records holds one array of them
    beyond what the blocks held."""
    slots = np.cumsum(kept, axis=0) - kept
    slots += _excl(kept.sum(axis=0))
    out = []
    for j in (0, 1):
        a = np.empty(int(kept.sum()))
        for k, block in enumerate(blocks):
            dest = np.repeat(slots[k] - _excl(kept[k]), kept[k])
            dest += np.arange(dest.size)
            a[dest] = block[j]
            block[j] = None
        out.append(a)
    return out


def _cell_paths(stream: RngStream, n_paths: int, n_steps: int, bands: _Bands | None = None,
                sd: float = 0.0, drift=None, bbar=None, stable=None):
    """The batch of ``n_paths`` paths drawn cell by cell; returns (batch,
    tilt_sums, proxy_sums).

    ``stable`` is ``(alpha, scale)`` for the increment samplers, whose cells
    draw standard stable increments times ``scale``, a scalar or one factor
    per step.  Otherwise ``bands`` draws each cell's jump records, and the
    Gaussian proxy has standard deviation ``sd`` per step; ``drift`` is the
    per-step drift, if any.  After its records a jump cell draws the
    proxy's sums over the coarse intervals of its block (``_coarse_cols``),
    then the step deviations that bridge them to its steps
    (``_bridge``).  With ``bands.thin``, tilt_sums holds each path's sum
    of its kept records' log-tilts: block sums in draw order, one
    ``bincount`` over each block's records, added block by block, so every
    route gives the same bits; with ``bbar``, proxy_sums holds each path's
    sum of the proxy times ``bbar``, each cell's product taken over the
    cell alone and added block by block; each is None otherwise.

    The cells run in pieces of whole cells, each of about ``_PIECE_ELEMS``
    grid values or expected records per block: a piece makes its cells'
    generators and draws the cells, block by block, then sums their rows
    (``_sum_block``), and, when the batch's sups were asked for
    (:func:`_streamed_sups`), raises those rows' sups.  Capped sups run the
    pieces of one block at a time, each screening its rows
    (``_Sups.screen``), and pack the paths still inside some ball after
    each; a jump cell sums its rows on the block's coarse grid alone, and
    keeps its generator for the step deviations.  The capped batch holds
    only the paths inside some ball at t = 1 (``_survivors``), and the sums
    of the others are NaN.  Uncapped, a piece takes its rows through every
    block in turn.  Asked for its sups, it sums each block into a buffer of
    its own rows by the widest block plus one column, whose first column
    carries the rows' values from the block before, raises the sups there,
    and writes the rows' X(1) into ``sups.ends`` if asked; no grid, proxy
    or record outlives its piece, and the batch holds no path (a 2047 x
    2048 stable draw peaks at 4.3 MB, 36.8 MB with its grid).  With no
    target, a jump piece neither sorts its records nor takes a sup, and
    asked for no end value either, it has no buffer and sums no grid.
    Asked for no sups, a jump piece keeps each block's records of its rows,
    sorted by (path, time), and how many each path kept; once its last
    block is drawn, ``_place`` puts them in the piece's own arrays, as
    ``_survivors`` puts a capped batch's, and the pieces' arrays are joined
    in row order once every piece is done.
    """
    sups = _take_sups()
    capped = sups is not None and sups.cap < np.inf
    times = np.linspace(0.0, 1.0, n_steps + 1)
    edges = _block_edges(n_steps)
    n_blocks = len(edges) - 1
    stride = _BLOCK_SCREEN_STRIDE
    cols = [_coarse_cols(s1 - s0, stride) for s0, s1 in zip(edges, edges[1:])]
    thinned = bands is not None and bands.thin is not None
    tilt_sums = np.zeros(n_paths) if thinned else None
    proxy_sums = np.zeros(n_paths) if bbar is not None else None
    if sups is not None:
        sups.start(times, n_paths)
    live = np.arange(n_paths)  # the paths drawn in this block, in path order
    run = None if sups is None else sups.out  # their sups so far, one column each
    kept = None  # the records of each (block, path) a plain jump batch keeps
    # a cell's grid values per step, or its expected records if more; a
    # capped jump cell sums its rows on the coarse grid alone
    per_step = _STREAM_ROWS / stride if capped and bands is not None else _STREAM_ROWS
    if bands is not None:
        per_step = max(per_step, _STREAM_ROWS / n_steps * sum(rate for rate, _, _ in bands.bands))

    def cuts(n_chunks: int, per: float) -> list[int]:
        """The first chunk of each piece, then n_chunks, for cells of ``per`` each."""
        return [*range(0, n_chunks, max(1, int(_PIECE_ELEMS // per))), n_chunks]

    def draw(k: int, grid, noise, chunks, c0: int, c1: int, gens=None):
        """Draw the cells (k, c0), ..., (k, c1 - 1), the rows chunks[c0]:chunks[c1],
        into ``grid``, those rows' values on block k's columns, whose first
        column holds their carried values, and ``noise``, their proxy on the
        block's steps (None to keep none), and sum them; with sups, raise the
        rows' sups.  In a capped jump batch ``grid`` holds the rows' coarse
        grid and ``noise`` the proxy's coarse sums, the cells' generators go
        to ``gens``, and the cells' records are returned, each band's apart;
        a plain jump batch returns ``[t, x]`` of the records, sorted by (row,
        time), and puts each row's count in ``kept``."""
        s0, s1 = edges[k], edges[k + 1]
        width, r0, r1 = s1 - s0, chunks[c0], chunks[c1]
        if bands is None:
            incr = np.empty((r1 - r0, width))
            for c in range(c0, c1):
                q0, q1 = chunks[c] - r0, chunks[c + 1] - r0
                incr[q0:q1] = standard_symmetric_stable(stable[0], (q1 - q0, width),
                                                        stream.child(k, c))
            scale = stable[1]
            incr *= scale if np.ndim(scale) == 0 else scale[s0:s1]
            incr[:, 0] += grid[:, 0]
            np.cumsum(incr, axis=1, out=grid[:, 1:])
            del incr
            if capped:
                sups.screen(run[:, r0:r1], grid[:, ::stride], slice(s0, s1 + 1, stride))
            elif sups is not None:
                sups.exact(run[:, r0:r1], grid, s0)
            return None
        lens = np.diff(cols[k])
        cells = bands.cells(stream, k, chunks, c0, c1, width / n_steps)
        row, t, x, lt = bands.records(cells, times[s0], times[s1])
        if capped:  # on the coarse grid: each interval's records, drift and proxy sum
            for c, (gen, _) in enumerate(cells, c0):
                gens[c] = gen
                gen.standard_normal(out=noise[chunks[c] - r0:chunks[c + 1] - r0])
            noise *= sd * np.sqrt(lens)
            step = _record_steps(t, times)[0]
            step -= s0
            step //= stride
            _sum_block(grid, noise, row, step, x,
                       None if drift is None else _interval_sums(drift[s0:s1], stride))
            sups.screen(run[:, r0:r1], grid, s0 + cols[k])
            # only the first band is thinned, so the others keep every record drawn
            rest = [sum(int(counts[b].sum()) for _, counts in cells)
                    for b in range(1, len(bands.bands))]
            ends = np.cumsum([row.size - sum(rest), *rest])
            row += r0
            return [(row[a:b], t[a:b], x[a:b], None if lt is None else lt[a:b])
                    for a, b in zip([0, *ends], ends)]
        z, sums = np.empty((r1 - r0, width)), np.empty((r1 - r0, lens.size))
        for c, (gen, _) in enumerate(cells, c0):
            q0, q1 = chunks[c] - r0, chunks[c + 1] - r0
            gen.standard_normal(out=sums[q0:q1])
            gen.standard_normal(out=z[q0:q1])
        sums *= sd * np.sqrt(lens)
        _bridge(z, sums, sd, lens)
        if noise is not None:
            noise[...] = z
        if proxy_sums is not None:
            for c in range(c0, c1):
                q0, q1 = chunks[c] - r0, chunks[c + 1] - r0
                proxy_sums[chunks[c]:chunks[c + 1]] += z[q0:q1] @ bbar[s0:s1]
        if thinned:  # each row's block sum, in draw order
            tilt_sums[r0:r1] += np.bincount(row, weights=lt, minlength=r1 - r0)
        if grid is None:  # drawn for its log-weights alone: no grid to sum
            return None
        step, frac = _record_steps(t, times)
        smooth = None if drift is None else drift[s0:s1]
        _sum_block(grid, z, row, step - s0, x, smooth)
        if sups is not None and not sups.targets:  # no sup: the records need no order
            return None
        order = _jump_order(row, t)
        row, t, x = row[order], t[order], x[order]
        if sups is not None:  # the records go no further: the batch keeps none
            sups.exact(run[:, r0:r1], grid, s0, (row, t, x, step[order], frac[order]), z, smooth)
            return None
        kept[k, r0:r1] = np.bincount(row, minlength=r1 - r0)
        return [t, x]

    if capped:
        run = run.copy()
        carry = np.zeros(n_paths)  # the live paths' values at the block's start
        held = []  # each block drawn, as _survivors reads it
        for k in range(n_blocks):
            s0, s1 = edges[k], edges[k + 1]
            chunks = _chunk_edges(live.size)
            if bands is None:
                grid, coarse = np.empty((live.size, s1 - s0 + 1)), None
            else:  # the block's coarse grid, and the proxy's sums over its intervals
                grid = np.empty((live.size, cols[k].size))
                coarse = np.empty((live.size, cols[k].size - 1))
            grid[:, 0] = carry
            gens = [None] * (len(chunks) - 1)
            block_cuts = cuts(len(gens), per_step * (s1 - s0))
            records = []
            for c0, c1 in zip(block_cuts, block_cuts[1:]):
                rows = slice(chunks[c0], chunks[c1])
                records.append(draw(k, grid[rows], None if coarse is None else coarse[rows],
                                    chunks, c0, c1, gens))
            held.append((s0, live, grid) if bands is None else
                        (s0, s1, live, chunks, coarse, gens, records))
            alive = (run < sups.cap).any(axis=0)
            sups.out[:, live[~alive]] = run[:, ~alive]
            live, run, carry = live[alive], run[:, alive], grid[alive, -1]
            if live.size == 0:
                break
        batch = _survivors(sups, live, held, times, drift, tilt_sums,
                           None if bands is None else (sd, stride, bbar, proxy_sums))
        left = np.ones(n_paths, dtype=bool)
        left[live] = False
        for sums in (tilt_sums, proxy_sums):
            if sums is not None:
                sums[left] = np.nan
        sups.batch = batch
        return batch, tilt_sums, proxy_sums

    widest = max(np.diff(edges))
    if sups is None:
        values = np.empty((n_paths, n_steps + 1))
        values[:, 0] = 0.0
        small_noise = None
        if bands is not None:
            small_noise = np.empty((n_paths, n_steps))
            kept = np.empty((n_blocks, n_paths), dtype=np.int64)
    elif sups.keep_ends:
        sups.ends = np.empty(n_paths)
    # each piece's buffer, but for a jump draw of no sup and no end value,
    # which sums no grid: it keeps only its log-weights
    buffered = sups is not None and (sups.targets or sups.keep_ends or bands is None)
    chunks = _chunk_edges(n_paths)
    row_cuts = cuts(len(chunks) - 1, per_step * widest)
    placed = [None] * (len(row_cuts) - 1)  # each plain jump piece's (t, x), sorted

    def piece(i: int) -> None:
        c0, c1 = row_cuts[i], row_cuts[i + 1]
        r0, r1 = chunks[c0], chunks[c1]
        grid = None
        if buffered:  # the rows' values on one block's columns at a time
            grid = np.empty((r1 - r0, widest + 1))
            grid[:, 0] = 0.0
        blocks = []
        for k in range(n_blocks):
            s0, s1 = edges[k], edges[k + 1]
            if sups is None:
                blocks.append(draw(k, values[r0:r1, s0:s1 + 1],
                                   None if bands is None else small_noise[r0:r1, s0:s1],
                                   chunks, c0, c1))
            elif grid is None:
                draw(k, None, None, chunks, c0, c1)
            else:
                draw(k, grid[:, :s1 - s0 + 1], None, chunks, c0, c1)
                grid[:, 0] = grid[:, s1 - s0]  # carried into the next block
        if sups is not None and sups.ends is not None:
            sups.ends[r0:r1] = grid[:, 0]  # X(1), carried out of the last block
        if kept is not None:
            placed[i] = _place(kept[:, r0:r1], blocks)

    _run_pieces(piece, len(row_cuts) - 1)
    if sups is not None:  # a batch of no paths, as when a capped draw keeps none
        batch = BatchPaths(times=times, values=np.empty((0, n_steps + 1)), drift_steps=drift)
        if bands is not None:
            batch = replace(batch, jump_path=np.empty(0, np.int64), jump_times=np.empty(0),
                            jump_sizes=np.empty(0), small_noise=np.empty((0, n_steps)))
        sups.batch = batch
        return batch, tilt_sums, proxy_sums
    batch = BatchPaths(times=times, values=values, small_noise=small_noise, drift_steps=drift)
    if bands is not None:
        t = _cat([p.pop(0) for p in placed])  # each piece's t dropped before x joins
        x = _cat([p.pop(0) for p in placed])
        batch = replace(batch, jump_path=np.repeat(np.arange(n_paths), kept.sum(axis=0)),
                        jump_times=t, jump_sizes=x)
    return batch, tilt_sums, proxy_sums


def _survivors(sups, live, held, times, drift, tilt_sums, proxy) -> BatchPaths:
    """The capped batch of the paths ``live`` still inside some ball at t = 1,
    from the ``held`` blocks that drew them, with their exact sups over the
    whole grid, taken afresh; every sup of ``sups`` is capped once they are
    in.

    A stable block holds (first step, paths, grid).  A jump block holds
    (first step, end step, paths, chunks, coarse sums, generators, records),
    and ``proxy`` is (sd, stride, bbar, proxy_sums), else None: each cell's
    generator draws its survivors' step deviations, and each piece's
    records, band by band and each band's sorted by row, give up a
    survivor's by ``searchsorted``.  Each block sums its survivors' rows
    from their values at its start (``_sum_block``), its records in draw
    order, as an uncapped batch sums them, and keeps its records sorted by
    (path, time) for ``_place``; proxy_sums, and ``tilt_sums`` if given,
    take the survivors' sums, the log-tilts one block at a time in draw
    order, as an uncapped batch adds them."""
    n_steps = times.size - 1
    values = np.empty((live.size, n_steps + 1))
    values[:, 0] = 0.0
    batch = BatchPaths(times=times, values=values, drift_steps=drift)
    records = noise = None
    if proxy is None:
        for s0, paths, grid in held:
            values[:, s0 + 1:s0 + grid.shape[1]] = grid[np.searchsorted(paths, live), 1:]
    else:
        sd, stride, bbar, proxy_sums = proxy
        noise = np.empty((live.size, n_steps))
        kept, blocks = np.empty((len(held), live.size), dtype=np.int64), []
        for k, (s0, s1, paths, chunks, sums, gens, piece_records) in enumerate(held):
            lens = np.diff(_coarse_cols(s1 - s0, stride))
            pos = np.searchsorted(paths, live)  # the survivors' rows in the block
            at = np.searchsorted(pos, chunks)  # cell c holds the survivors at[c]:at[c + 1]
            z = np.empty((live.size, s1 - s0))
            for gen, j0, j1 in zip(gens, at, at[1:]):
                gen.standard_normal(out=z[j0:j1])
            _bridge(z, sums[pos], sd, lens)
            noise[:, s0:s1] = z
            if proxy_sums is not None:
                for j0, j1 in zip(at, at[1:]):
                    proxy_sums[live[j0:j1]] += z[j0:j1] @ bbar[s0:s1]
            block = [_pick_rows(band, pos) for bands in piece_records for band in bands]
            row, t, x = (np.concatenate([rec[j] for rec in block]) for j in range(3))
            if tilt_sums is not None:  # each survivor's block sum, in draw order
                tilt_sums[live] += np.bincount(row, np.concatenate([rec[3] for rec in block]),
                                               live.size)
            step = _record_steps(t, times)[0]
            step -= s0
            _sum_block(values[:, s0:s1 + 1], z, row, step, x,
                       None if drift is None else drift[s0:s1])
            order = _jump_order(row, t)
            kept[k] = np.bincount(row, minlength=live.size)
            blocks.append([t[order], x[order]])
        t, x = _place(kept, blocks)
        path = np.repeat(np.arange(live.size), kept.sum(axis=0))
        records = (path, t, x, *_record_steps(t, times))
        batch = replace(batch, jump_path=path, jump_times=t, jump_sizes=x, small_noise=noise)
    run = np.zeros((len(sups.targets), live.size))
    sups.exact(run, values, 0, records, noise, drift)
    sups.out[:, live] = run
    np.minimum(sups.out, sups.cap, out=sups.out)
    return batch


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


def _jump_bands(params: AlphaStableParams, eps_cutoff: float) -> _Bands:
    """The one band of :func:`sample_jump_batch`: every jump |x| >= eps_cutoff."""
    if not 0.0 < eps_cutoff < np.inf:
        raise ValueError("eps_cutoff must be positive and finite")
    alpha = params.alpha
    return _Bands(alpha, [(_jump_rate(alpha, eps_cutoff), eps_cutoff, np.inf)])


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
    bands = _jump_bands(params, eps_cutoff)
    sd = np.sqrt(truncated_second_moment(params.alpha, eps_cutoff) * (1.0 / n_steps))
    return _cell_paths(_require_stream(rng), n_paths, n_steps, bands, sd)[0]


def _largest_jumps(params: AlphaStableParams, eps_cutoff: float, n_paths: int, n_steps: int,
                   stream: RngStream) -> np.ndarray:
    """Each path's largest |x| among the jumps that ``sample_jump_batch(params,
    eps_cutoff, n_paths, n_steps, stream)`` draws, 0.0 for a path without one.

    The same cells draw the same records, and nothing after them: no proxy,
    no grid."""
    _check_shape(n_paths, n_steps)
    bands = _jump_bands(params, eps_cutoff)
    stream = _require_stream(stream)
    edges, chunks = _block_edges(n_steps), _chunk_edges(n_paths)
    times = np.linspace(0.0, 1.0, n_steps + 1)
    out = np.zeros(n_paths)
    for k, (s0, s1) in enumerate(zip(edges, edges[1:])):
        cells = bands.cells(stream, k, chunks, 0, len(chunks) - 1, (s1 - s0) / n_steps)
        row, _, x, _ = bands.records(cells, times[s0], times[s1])
        np.maximum.at(out, row, np.abs(x))
    return out


def tilted_jump_rates(tilt: TiltSpec, eps_cutoff: float | None) -> tuple[float, float, float]:
    """(eps_cutoff, interior rate, exterior rate) of :func:`sample_tilted_batch`.

    ``eps_cutoff`` is resolved against jump_cut (:func:`_resolve_cutoff`).
    The interior rate is the Poisson rate per path of the envelope jumps
    eps_cutoff <= |x| < jump_cut, which the sampler draws before thinning;
    the exterior rate is that of the untilted jumps jump_cut <= |x| <
    ``tilt.exterior_cut``.  Their sum is the expected jump records per path,
    refused as :func:`_check_records` refuses it.
    """
    alpha = tilt.params.alpha
    cut = tilt.jump_cut
    scale = tilt.intensity_scale
    eps_cutoff = _resolve_cutoff(eps_cutoff, cut)
    rate_int = scale * (1.0 + tilt.amplitude_bound) * (2.0 / alpha) * (
        _cutoff_power(alpha, eps_cutoff) - cut**-alpha)
    rate_ext = scale * (2.0 / alpha) * (cut**-alpha - tilt.exterior_cut**-alpha)
    _check_records(rate_int + rate_ext)
    return eps_cutoff, rate_int, rate_ext


def sample_tilted_batch(tilt, n_paths: int, n_steps: int, rng: RngStream,
                        eps_cutoff: float | None = None) -> tuple[BatchPaths, np.ndarray]:
    """Paths under the tilted jump measure, with exact reweighting records.

    Jumps below the tilt cutoff are drawn by thinning from the envelope
    (1+B) times the untilted intensity, B the tilt amplitude bound, so no
    tilted inverse CDF is needed.  Above the cutoff the tilt is off: the
    jumps up to ``tilt.exterior_cut`` are kept untilted, in the middle
    regime those below the ball's diameter 2r, in the small regime all of
    them; in the middle regime the larger ones, which always leave the
    ball, are removed.  Jumps below ``eps_cutoff`` are replaced by their
    Gaussian proxy.  The drift compensates the tilt, so the path is a
    centered martingale, which is how the importance-sampling estimator
    consumes it; adding ``tilt.compensator_shift_curve`` gives the tilted
    path with its mean.  At zero tilt (amplitude bound 0) the paths follow
    the truncated law and every log-weight is 0, with no weight pass.  A
    batch drawn for capped sups (:func:`_streamed_sups`) gives no weight to
    a path that left every ball: its log-weight is NaN.  One drawn for
    uncapped sups holds no path, and the log-weights are every path's; so
    does one drawn for the sups of no target, ``_streamed_sups((),
    np.inf)``, the draw of a caller that keeps only the log-weights, with
    the plain draw's bits and no grid summed, or, with ``ends=True``, the
    end values (``_Sups.ends``) too.

    Returns (batch, log_weights).
    """
    _check_shape(n_paths, n_steps)
    _require_stream(rng)
    alpha = tilt.params.alpha
    cut = tilt.jump_cut
    scale = tilt.intensity_scale
    eps_cutoff, rate_int, rate_ext = tilted_jump_rates(tilt, eps_cutoff)
    b_bound = tilt.amplitude_bound
    dt = 1.0 / n_steps

    # interior jumps eps <= |x| < cut, thinned from the (1 + B)-inflated rate;
    # exterior jumps cut <= |x| < exterior_cut, untilted
    bands = [(rate_int, eps_cutoff, cut), (rate_ext, cut, tilt.exterior_cut)]
    bands = _Bands(alpha, bands, None if b_bound == 0.0 else (tilt, b_bound))

    # compensate the tilt of the interior band so the component is a martingale
    bbar = step_mean_amplitude(tilt, n_steps)
    v_band = truncated_second_moment(alpha, cut) - truncated_second_moment(alpha, eps_cutoff)
    drift = -scale * v_band * bbar * dt

    var = scale * truncated_second_moment(alpha, eps_cutoff) * dt  # of the proxy per step
    batch, tilt_sums, proxy_sums = _cell_paths(rng, n_paths, n_steps, bands, np.sqrt(var), drift,
                                               None if b_bound == 0.0 else bbar)
    if b_bound == 0.0:
        return batch, np.zeros(n_paths)
    return batch, log_weight_batch(tilt_sums, proxy_sums, bbar, var)


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
    return _cell_paths(_require_stream(rng), n_paths, n_steps, stable=(params.alpha, scale))[0]


def sup_distance_batch(batch: BatchPaths, f: ShiftFunction | None = None,
                       shift_scale: float = 0.0, path_scale: float = 1.0) -> np.ndarray:
    """sup_t |path_scale * X(t) - shift_scale * f(t)| for every path.

    The sup runs over the grid and, when jump records exist, over the left
    and right limits at each jump instant, so a jump that briefly exits the
    ball between grid points is not missed.  This is one row of the sup
    kernel (:class:`_Sups`) that :func:`sample_sups` runs for all of its
    targets at once, inside the sampler's pieces.
    """
    return _sup_matrix(batch, [(f, shift_scale)], path_scale)[0]


def _max_dev(block: np.ndarray, target, dev: np.ndarray, out: np.ndarray) -> None:
    """out[i] = max_j |block[i, j] - target[j]|, through the buffer ``dev``
    (which may be ``block``); a None target skips the subtraction."""
    if target is None:
        np.abs(block, out=dev)
    else:
        np.subtract(block, target, out=dev)
        np.abs(dev, out=dev)
    dev.max(axis=1, out=out)


# grid columns per column of the coarse grid that screens capped sups in each
# time block a capped sampler draws, where the screen also picks the paths
# drawn in the next block, so a finer grid drops more paths sooner.  It is
# also the jump samplers' coarse proxy interval (_coarse_cols): a capped jump
# block is drawn and summed at that resolution alone
_BLOCK_SCREEN_STRIDE = 8


class _Sups:
    """Refined sups of one batch's paths against every ``(f, shift_scale)`` target,
    capped: the ``(len(targets), n_paths)`` matrix ``np.minimum(sup, cap)``,
    raised one range of rows and grid columns at a time.

    :meth:`start` takes the batch's grid times, evaluates f once per
    distinct f object on them, and scales it per target.  :meth:`exact`
    then raises the running maxima of a range of paths with each target's
    max over those paths' values on a range of grid columns, one pass over
    the rows per target through one buffer, and over the left and right
    limits (:func:`_jump_limits`) of their jump records in those steps,
    reduced per path.  With a finite ``cap``, a sampler's time blocks take
    :meth:`screen`, which raises them with each target's max over a coarse
    grid only: every ``_BLOCK_SCREEN_STRIDE``-th column of a stable block,
    or a jump block's coarse grid (``_coarse_cols``).  That is a lower
    bound, and the sup itself once it reaches ``cap``, since both cap to
    ``cap``; a jump sampler's coarse grid is summed on its own, so it
    bounds the fine grid only up to rounding, and its survivors take their
    sups afresh (``_survivors``).  Only the paths the screen leaves below
    ``cap`` for some target take :meth:`exact`, and of the paths that take
    it only those whose grid max leaves them below ``cap`` for some target
    take their jump records.
    A None target skips the subtraction.  The max is exact, so every pair's
    sup is the same bits however the grid is cut into column ranges and
    rows, and whichever thread raises each, as the sup against its target
    alone over the whole batch.

    Two drivers run it: :func:`_sup_matrix` over a finished batch, in row
    blocks of about ``_PIECE_ELEMS`` grid values, and the samplers' own
    pieces, each right after its rows of a time block are summed
    (:func:`_streamed_sups`).  Asked with ``ends``, an uncapped sampler's
    pieces also write each path's X(1) into ``ends``, None until a sampler
    fills it.  With no targets, :meth:`exact` returns at once and the
    matrix has no rows: the draw of a caller that keeps only its
    log-weights or end values.
    """

    def __init__(self, targets, path_scale: float = 1.0, cap: float = np.inf,
                 ends: bool = False) -> None:
        self.targets, self.path_scale, self.cap = list(targets), path_scale, cap
        self.keep_ends = ends
        self.batch = self.ends = None

    def start(self, times: np.ndarray, n_paths: int) -> None:
        """Take the grid ``times`` of a batch of ``n_paths`` paths; every sup starts at 0."""
        self.shifts = {id(f): f for f, _ in self.targets if f is not None}
        grid_f = {key: np.asarray(f(times), dtype=float) for key, f in self.shifts.items()}
        self.grid_targets = [None if f is None else scale * grid_f[id(f)]
                             for f, scale in self.targets]
        self.out = np.zeros((len(self.targets), n_paths))

    def _block(self, grid: np.ndarray, s0: int):
        """``grid``, values at grid columns s0, s0 + 1, ..., times ``path_scale``,
        and each target on those columns."""
        block = grid if self.path_scale == 1.0 else np.multiply(grid, self.path_scale)
        cols = slice(s0, s0 + grid.shape[1])
        return block, [None if g is None else g[cols] for g in self.grid_targets]

    def screen(self, run: np.ndarray, coarse: np.ndarray, cols) -> None:
        """Raise ``run``, the sups so far of some paths (one column each), with
        each target's max over ``coarse``, their values at the grid columns
        ``cols`` (a slice or an index array); a lower bound of their sups,
        and the sup itself once it reaches ``cap``."""
        if self.path_scale != 1.0:
            coarse = np.multiply(coarse, self.path_scale)
        coarse = np.ascontiguousarray(coarse)  # read once per target
        dev, m = np.empty(coarse.shape), np.empty(coarse.shape[0])
        for k, target in enumerate(self.grid_targets):
            _max_dev(coarse, None if target is None else target[cols], dev, m)
            np.maximum(run[k], m, out=run[k])

    def exact(self, run: np.ndarray, grid: np.ndarray, s0: int, records=None,
              noise=None, drift=None) -> None:
        """Raise ``run`` with each target's max over ``grid``, as in
        :meth:`screen` but over every column, and over the left and right
        limits of ``records``, the paths' jump records in those steps,
        sorted by (row, time): ``(row, t, x, step, frac)`` as
        :func:`_record_steps` gives step and frac; ``noise`` and ``drift``
        are the rows' proxy and the drift on those steps (None for none)."""
        if not self.targets:
            return
        block, targets = self._block(grid, s0)
        dev, m = np.empty_like(block), np.empty(block.shape[0])
        for k, target in enumerate(targets):
            _max_dev(block, target, dev, m)
            np.maximum(run[k], m, out=run[k])
        if records is not None and self.cap < np.inf:  # decided on the grid: no limits
            keep = (run < self.cap).any(axis=0)[records[0]]
            records = tuple(a[keep] for a in records)
        if records is None or records[0].size == 0:
            return
        row, t, x, step, frac = records
        pre, post = _jump_limits(grid, s0, noise, drift, row, step, frac, x)
        if self.path_scale != 1.0:
            pre, post = self.path_scale * pre, self.path_scale * post
        starts = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
        owners = row[starts]
        jump_f = {key: np.asarray(f(t), dtype=float) for key, f in self.shifts.items()}
        cand, other = np.empty(t.size), np.empty(t.size)
        for k, (f, scale) in enumerate(self.targets):
            if f is None:
                np.abs(pre, out=cand)
                np.abs(post, out=other)
            else:
                t_target = scale * jump_f[id(f)]
                np.abs(np.subtract(pre, t_target, out=cand), out=cand)
                np.abs(np.subtract(post, t_target, out=other), out=other)
            np.maximum(cand, other, out=cand)
            seg_max = np.maximum.reduceat(cand, starts)
            run[k, owners] = np.maximum(run[k, owners], seg_max)

    def of(self, batch: BatchPaths) -> np.ndarray:
        """The sups of ``batch``: those its sampler's pieces took, else from
        a pass of their own (a sampler that streams no sups).  A sampler
        that took them keeps only the paths inside some ball when capped,
        chosen on its own values, and no path when uncapped, so the sups of
        any other batch built from its batch, say a rescaled one, cannot be
        taken: that raises ``ValueError``."""
        if self.batch is batch:
            return self.out
        if self.batch is not None:
            raise ValueError("a sampler drew these sups, so it kept only the paths inside "
                             "some ball, or none uncapped; the batch it returned must be "
                             "passed as is")
        return _sup_matrix(batch, self.targets, self.path_scale, self.cap)


def _pick_rows(records, pos: np.ndarray):
    """The ``records`` (row first, sorted by row) of the rows ``pos``, increasing,
    each row renumbered by its place in ``pos``."""
    lo, hi = np.searchsorted(records[0], pos), np.searchsorted(records[0], pos + 1)
    counts = hi - lo
    sel = np.repeat(lo - _excl(counts), counts)
    sel += np.arange(sel.size)
    return (np.repeat(np.arange(pos.size), counts),
            *(None if a is None else a[sel] for a in records[1:]))


def _sup_matrix(batch: BatchPaths, targets, path_scale: float = 1.0,
                cap: float = np.inf) -> np.ndarray:
    """The sups of :class:`_Sups` over a finished batch, in one pass.

    The row blocks, of about ``_PIECE_ELEMS`` grid values each, are the
    pieces of ``_run_pieces``: each block has its own buffers, builds its
    own limits and writes only its own columns of the result.
    """
    sups = _Sups(targets, path_scale, cap)
    sups.start(batch.times, batch.n_paths)
    first = None
    if batch.jump_times is not None and batch.jump_times.size > 0:
        # records are (path, time)-sorted: path i owns records first[i]:first[i + 1]
        first = np.searchsorted(batch.jump_path, np.arange(batch.n_paths + 1))
    rows = max(1, _PIECE_ELEMS // batch.values.shape[1])
    edges = [*range(0, batch.n_paths, rows), batch.n_paths]

    def block(b: int) -> None:
        r0, r1 = edges[b], edges[b + 1]
        records = None
        if first is not None:
            s = slice(first[r0], first[r1])
            t = batch.jump_times[s]
            records = (batch.jump_path[s] - r0, t, batch.jump_sizes[s],
                       *_record_steps(t, batch.times))
        noise = None if batch.small_noise is None else batch.small_noise[r0:r1]
        sups.exact(sups.out[:, r0:r1], batch.values[r0:r1], 0, records, noise, batch.drift_steps)

    _run_pieces(block, len(edges) - 1)
    np.minimum(sups.out, cap, out=sups.out)
    return sups.out


@contextmanager
def _streamed_sups(targets, cap: float, ends: bool = False):
    """Yields the :class:`_Sups` against ``targets``, capped at ``cap``, of the
    batch that the ``with`` body draws on this thread.

    The first sampler the body calls takes them (:func:`_take_sups`), and
    its pieces raise each range of rows as soon as the range is summed; a
    finite ``cap`` lets it stop drawing the paths that have left every
    ball.  ``_Sups.of`` gives them for the batch the sampler returned.
    Uncapped, the sampler keeps no path, and with ``ends`` it fills
    ``_Sups.ends`` with each path's X(1); ``targets`` empty asks for no sup
    at all, so such a draw gives only its end values, if asked, and, if
    tilted, its log-weights: a tilted draw asked for neither sums no grid.
    """
    sups = _Sups(targets, cap=cap, ends=ends)
    _threads.sups = sups
    try:
        yield sups
    finally:
        _threads.sups = None


def _take_sups() -> _Sups | None:
    """The sups this thread's sampler is asked to fill, if any; asked of it alone."""
    sups = getattr(_threads, "sups", None)
    _threads.sups = None
    return sups


def _jump_limits(grid, s0: int, noise, drift, row, step, frac, x):
    """Left and right limits of some paths at their jump records.

    ``grid`` holds the paths' values at grid columns s0, s0 + 1, ...; the
    records, each of its whole (row, step), in record order, are given by
    their row of ``grid``, their step and place in it (:func:`_record_steps`)
    and their sizes.  ``noise`` and ``drift`` are the rows' proxy and the
    drift on those steps, each None for none.  Within a step the continuous
    part (drift plus Gaussian proxy) is accrued linearly up to the jump, and
    earlier jumps within the same step are added in time order, a sum over
    that (path, step) alone, so a path's limits are the same bits in any
    batch and under any selection.  Returns (pre, post).
    """
    local = step - s0
    smooth = None if drift is None else drift[local]
    if noise is not None:
        nz = noise[row, local]
        smooth = nz if smooth is None else np.add(smooth, nz, out=smooth)

    # exclusive prefix of same-step earlier jumps, one rank of each group per
    # pass: excl[i] = excl[i - 1] + x[i - 1] within a group, 0 at its start
    flat = row * grid.shape[1]
    flat += local  # one key per (path, step)
    later = np.zeros(x.size + 1, dtype=bool)  # continues the group before it; False sentinel
    np.equal(flat[1:], flat[:-1], out=later[1:-1])
    excl = np.zeros(x.size)
    rank = np.flatnonzero(later[1:-1] & ~later[:-2]) + 1  # the second record of each group
    while rank.size:
        excl[rank] = excl[rank - 1] + x[rank - 1]
        rank = rank[later[rank + 1]] + 1

    pre = grid[row, local]
    if smooth is not None:
        smooth *= frac
        pre += smooth
    pre += excl
    return pre, pre + x


_BATCH_ELEMS = 1 << 22  # grid values per batch that batch_plan aims at: a 32 MiB values array
# expected jump records per batch: the plan's largest middle-regime tilted
# batch, 1520 x 2048 at the default cutoff, peaks near 81 MB drawn whole and
# 12 MB drawn capped, as the IS kernel draws it (tracemalloc)
_BATCH_RECORDS = 1 << 20


def batch_plan(n_total: int, n_steps: int, records: float = 0.0) -> list[tuple[int, int]]:
    """Deterministic split of n_total paths into (batch_index, size) pieces.

    A batch holds about ``_BATCH_ELEMS`` grid values, or 64 paths where
    fewer would; given the expected jump ``records`` per path, it also holds
    at most ``_BATCH_RECORDS`` expected records, or one path where a path
    alone expects more.  The 64-path floor never lifts a batch above the
    records bound.  ``records`` 0 leaves the grid bound alone.  The plan
    depends only on its arguments, never on worker count, so distributing
    batches over processes cannot change results.
    """
    _check_shape(n_total, n_steps)
    per = max(64, _BATCH_ELEMS // (n_steps + 1))
    if records > 0.0:
        per = min(per, max(1, int(_BATCH_RECORDS // records)))
    per = min(n_total, per)
    sizes = [per] * (n_total // per)
    if n_total % per:
        sizes.append(n_total % per)
    return list(enumerate(sizes))


def _run_batch(job):
    """One job of ``map_batches``: ``kernel(stream, size)``."""
    kernel, stream, size = job
    return kernel(stream, size)


def map_batches(kernel, n_paths: int, n_steps: int, stream: RngStream, pmap=map,
                records: float = 0.0) -> list:
    """``kernel(stream.child(b), size)`` for each ``(b, size)`` of
    ``batch_plan(n_paths, n_steps, records)``.

    A kernel that draws jump-resolved paths passes its expected jump
    ``records`` per path (``_jump_rate``, or the sum of the two rates of
    ``tilted_jump_rates``), so no batch holds more than ``_BATCH_RECORDS``
    expected records unless it is a single path.  Results come back as a
    list in plan order; callers reduce it in that order, so sums are
    bit-identical under any ``pmap``.  ``pmap(fn, jobs)`` may be ``map`` or
    an executor's ``map``; for a process pool, ``kernel`` must pickle, i.e.
    be a module-level function or a ``functools.partial`` of one.

    Each batch's arrays are its own and die with it, unless a kernel
    returns a view of one: that keeps the whole array alive with the
    result, so a kernel copies what it keeps.
    """
    _require_stream(stream)
    jobs = [(kernel, stream.child(b), size)
            for b, size in batch_plan(n_paths, n_steps, records)]
    return list(pmap(_run_batch, jobs))


def _sups_kernel(sample, targets, n_steps, cap, stream, size) -> np.ndarray:
    with _streamed_sups(targets, cap) as sups:
        batch = sample(size, n_steps, stream)
    return sups.of(batch)


def sample_sups(sample, targets, n_paths: int, n_steps: int, stream: RngStream,
                pmap=map, cap: float = np.inf, records: float = 0.0) -> np.ndarray:
    """Sup-norm distances of ``n_paths`` sampled paths to each target.

    ``sample(size, n_steps, rng)`` draws one batch, e.g. a sampler with its
    leading arguments bound: ``partial(sample_jump_batch, params, eps)``.
    ``records`` is its expected jump records per path, ``_jump_rate(alpha,
    eps)`` for that one, which bounds each batch's records
    (:func:`map_batches`); 0 for a sampler that draws no jumps.
    ``targets`` holds ``(f, shift_scale)`` pairs, f None for the centred sup.
    Row i of the ``(len(targets), n_paths)`` result is, in law,
    ``np.minimum(sup_distance_batch(batch, *targets[i]), cap)`` over the
    batches in plan order, so every target sees the same paths; each batch
    is read once for all targets.  Pass one f object for targets that share
    a shift, so it is evaluated once, and the radius as ``cap`` when only
    ``sup < r`` is counted: then a path stops being drawn once it has left
    every ball, pairs a coarse grid already puts outside the ball skip the
    full grid, and paths the grid puts outside every ball skip their jump
    records.  Uncapped, row i is exactly that minimum, and no batch keeps
    its grid: the sampler's pieces take the sups one block of their own
    rows at a time (:func:`_cell_paths`), so a 2047 x 2048 stable batch
    peaks at 4.3 MB, not 36.8 MB.
    """
    kernel = partial(_sups_kernel, sample, tuple(targets), n_steps, cap)
    return np.concatenate(map_batches(kernel, n_paths, n_steps, stream, pmap, records), axis=1)


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
