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
share ``_jump_paths``, which finishes, sorts and bins the records, adds
the drift and the Gaussian proxy, and sums each path; ``_record_steps``
puts a record in its step, there and in the sup kernel.  A batch holds its
grid once: the jump samplers sum each piece's jump sums, drift and proxy
straight into the ``values`` array the batch returns, and the stable
transform writes its variates over its exponential draws, which are then
summed into ``values``.  A jump batch with one band and no thinning writes
its sorted records over the band's draws.

A path is a :class:`BatchPaths`; one path is a batch of one
(``BatchPaths.extract``).  One kernel (``_Sups``) evaluates sup-norm
distances to scaled drifts, refining within each step by replaying the
recorded jump instants, so a jump that briefly exits the ball between grid
points is not missed.  It takes every target at once, one range of rows at
a time: the grid rows, then the jump records of the range's undecided
paths, against all targets in turn.  A caller that only tests ``sup < r``
passes ``cap=r`` and gets the sups capped at r: a (target, path) pair whose
max over every ``_SCREEN_STRIDE``-th grid column already reaches r is
decided there, only the other pairs take the full grid, and a path whose
grid sup reaches r for every target is decided without its jump records.
It has two drivers: ``_sup_matrix`` runs it over a finished batch in
cache-sized row blocks (``sup_distance_batch`` is its one-target form), and
a sampler asked for its batch's sups (``_streamed_sups``) runs it in each
of its own pieces, right after the piece sums its paths.
``map_batches`` is the one batch loop of every estimator: it runs a kernel
over the deterministic ``batch_plan``, each batch on its own child stream.
The plan bounds a batch's grid values and, given the expected jump records
per path, its jump records: every caller that maps jump-resolved draws
passes that count, from ``_jump_rate`` or ``tilted_jump_rates``, the one
owner of each rate.  Every estimator that counts sups draws through
``sample_sups``, which returns the sups of every path against every target
as one matrix, or, for importance sampling, asks its tilted sampler for
them; the estimator keeps only its own reduction (``< r`` or ``> x``).

Inside one batch, the calling thread shares the work with one helper
thread, made for the call (``with ThreadPoolExecutor(1)`` in
``_run_pieces``) and joined before it returns, so no thread outlives a call
and none is alive when a process pool forks.  Every sampler follows one
rule: count first, then draw each fixed-width chunk in its piece.

* The calling thread walks the batch's generator through the calls of a
  serial run in their order (``_BitStream``), drawing only the Poisson
  counts: their width varies, and they fix the offset of every word after
  them.  A ``random`` double takes one 64-bit word and an ``integers(0,
  2)`` sign half of one, so each fixed-width array (a band's instants,
  magnitudes and signs, the thinning uniforms, the stable transform's
  uniforms) starts at a known offset, and a piece draws its own chunk from
  a generator advanced to that chunk's offset (``_generator_at``, the one
  place every copy of the generator comes from).
* The last draw, whose width varies too, starts on the helper thread past
  every fixed-width word and runs in chunks and in order
  (``_StreamedDraw``) while the calling thread takes the first pieces: the
  Gaussian proxy of the jump samplers in row chunks, and the exponential
  variates of the stable transform in its element chunks.  Every generator
  call reads the same words as in a serial run, so the bits are those of
  one.
* Everything else runs as pieces that both threads take in order from a
  shared counter: the stable transform in element chunks, each of which
  draws its uniforms and waits for its own chunk of exponentials, and its
  sums in row chunks; the thinning test in path chunks; the jump draws,
  the (path, time) sort, the gathers, the per-step sums and the path sums
  in row chunks, each of which waits for its own chunk of the proxy and
  for nothing else; the sup kernel in row blocks, or inside the row chunks
  of a sampler asked for its sups.  The helper takes pieces once it has
  drawn.
* Each piece reads only its own slice of the draws and writes only its own
  slice of outputs allocated before the pieces run, and each element sees
  the same operations as in a serial pass, so the bits do not depend on
  which thread takes which piece.  A streamed draw that raises releases
  every piece waiting for it, and the call raises its error; a piece whose
  draw raises ends the call with that error.

``map_batches`` runs each kernel with an arena (``_Workspace``): one
private anonymous mapping from which the batch takes every array whose size
scales with the batch, the grid values, the proxy or the stable variates,
and the jump draws and records (``_batch_array``); a piece's temporaries,
its jumps' signs and its stable uniforms among them, stay with malloc.  The
arena is reset before each batch and not handed back, so its pages are not
faulted in again by the next batch.  Idle
arenas sit in one list for the whole process, so a call on a thread pool
reuses those of an earlier call, and a forked child starts without any.
A sampler called outside a kernel allocates fresh arrays.
"""

from __future__ import annotations

import math
import mmap
import os
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
_PIECE_ELEMS = 1 << 16  # variates, jump records or grid values per piece: 512 KiB of doubles


def _run_pieces(work, n_pieces: int, first=None) -> None:
    """Run ``first()``, when given, and ``work(i)`` once for each i in range(n_pieces).

    The calling thread and one helper thread take the pieces in order from a
    shared counter until none is left.  The helper first runs ``first``: the
    batch's last generator call, so no other generator call can overlap it.
    A piece may wait for part of what ``first`` makes (``_StreamedDraw.wait``),
    never for another piece.  The helper is made for the call and joined
    before it returns; an error it raised is raised here, ahead of the
    calling thread's.  With at most one piece, the calling thread runs
    ``first``, then the piece, and no helper is made.
    """
    if n_pieces <= 1:
        if first is not None:
            first()
        for i in range(n_pieces):
            work(i)
        return
    taken = iter(range(n_pieces))
    lock = threading.Lock()

    def take() -> None:
        while True:
            with lock:
                i = next(taken, None)
            if i is None:
                return
            work(i)

    def helper() -> None:
        if first is not None:
            first()
        take()

    with ThreadPoolExecutor(1) as pool:
        pending = pool.submit(helper)
        try:
            take()
        finally:
            pending.result()


_ALIGN = 64  # bytes: every array an arena hands out starts on a cache line


def _mapping(nbytes: int) -> np.ndarray:
    """A private anonymous mapping of ``nbytes`` (at least 1), as bytes.

    Private, so a forked process copies it on write and never shares it.
    """
    return np.frombuffer(mmap.mmap(-1, max(nbytes, 1), flags=mmap.MAP_PRIVATE), dtype=np.uint8)


class _Workspace:
    """An arena for the arrays of one running batch whose size scales with the batch.

    :meth:`take` hands out consecutive, cache-line aligned pieces of one
    private anonymous mapping; nothing is freed until :meth:`reset`, which
    ``_run_batch`` calls before each kernel, so every array of the last
    batch is dead by then.  A new arena maps what the plan lets a batch
    hold: two grid arrays of ``_BATCH_ELEMS`` values and 64 bytes for each
    of ``_BATCH_RECORDS`` records.  A page is resident only once written,
    so this costs a smaller batch no memory, and the first batch of a
    process faults its pages in once, not once in arrays of their own and
    again in the arena.  An array that no longer fits gets a mapping of its
    own (a spill), and the next reset replaces the arena's mapping with one
    of the high-water size.  Its pages are not handed back after a batch
    and faulted in again for the next, and being a mapping, not a malloc
    block, it keeps no part of malloc's heap from being trimmed.
    """

    def __init__(self) -> None:
        self._buf = _mapping(16 * _BATCH_ELEMS + 64 * _BATCH_RECORDS)
        self.used = 0  # bytes taken since the last reset, spills included
        self.high = 0  # the most bytes one batch has taken from this arena

    def reset(self) -> None:
        """Start a batch: every array taken so far is dead."""
        if self.high > self._buf.size:
            self._buf = np.empty(0, dtype=np.uint8)  # unmap the smaller mapping first
            self._buf = _mapping(self.high)
        self.used = 0

    def take(self, shape, dtype=float) -> np.ndarray:
        """An uninitialised array of ``shape`` and ``dtype`` from the arena."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        start = self.used
        self.used += -(-nbytes // _ALIGN) * _ALIGN
        self.high = max(self.high, self.used)
        if self.used <= self._buf.size:
            raw = self._buf[start:start + nbytes]
        else:
            raw = _mapping(nbytes)[:nbytes]
        return raw.view(dtype).reshape(shape)


_threads = threading.local()  # .active: the arena of the batch this thread runs, if any
_idle: list[_Workspace] = []  # the arenas no running batch holds
_idle_lock = threading.Lock()


def _forget_arenas() -> None:
    """In a forked child: no arena of the parent's, and a lock no thread holds."""
    global _idle, _idle_lock
    _idle, _idle_lock = [], threading.Lock()


os.register_at_fork(after_in_child=_forget_arenas)

# glibc's malloc maps each block above its mmap threshold (128 KiB at first)
# on its own and trims its heap once twice that lies free at the top; freeing
# a mapped block raises the threshold to that block's size.  One 8 MiB block
# freed here lets the pieces' temporaries, about 512 KiB each, reuse heap
# pages instead of faulting in fresh ones for every piece.
np.empty(1 << 20)


def _batch_array(shape, dtype=float) -> np.ndarray:
    """An uninitialised array whose size scales with the batch: from the arena
    of the batch that ``map_batches`` runs on this thread, else a fresh one.

    The arena outlives the batch, so its arrays are overwritten by the next
    batch that takes the arena: a kernel copies what it keeps.
    """
    ws = getattr(_threads, "active", None)
    return np.empty(shape, dtype) if ws is None else ws.take(shape, dtype)


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


def _generator_at(state: dict, words: int = 0, half: int | None = None) -> np.random.Generator:
    """This thread's generator, at the bit-generator ``state`` advanced by
    ``words`` 64-bit words; ``half``, when given, is then the buffered
    32-bit half that the next bounded-int call reads first.

    Every draw after a batch's counts comes from here, the fixed-width
    chunks and the streamed last draw alike.  The generator is made once
    per thread and only set and advanced after that: a new one seeds
    itself from the OS.  Advancing drops any buffered half, so a state
    taken mid-stream gives a generator at a whole word.
    """
    gen = getattr(_threads, "gen", None)
    if gen is None:
        gen = _threads.gen = np.random.default_rng()
    bits = gen.bit_generator
    bits.state = state
    bits.advance(words)
    if half is not None:
        bits.state = {**bits.state, "has_uint32": 1, "uinteger": half}
    return gen


class _BitStream:
    """One batch's generator, walked through the calls of a serial run in
    their order, drawing only the variable-width ones.

    :meth:`counts` draws Poisson counts here, on the calling thread: how
    many words they take depends on the words, so each offset after them
    waits for them.  :meth:`doubles` and :meth:`signs` draw nothing: each
    returns where its array starts and skips its words, so a piece can draw
    any chunk of it from its own offset (:func:`_draw_doubles`,
    :func:`_draw_signs`).  A ``random`` double takes one 64-bit word.  An
    ``integers(0, 2)`` sign takes half of one, low half first; an odd
    count leaves the high half buffered, and the next bounded-int call of
    the batch reads it first, whatever ``random`` calls come in between.
    :meth:`rest` is where the last, variable-width draw starts: past every
    fixed-width word.
    """

    def __init__(self, stream: RngStream) -> None:
        self._gen = stream.generator()
        self._held = None  # the half that the last signs left buffered, if any

    def counts(self, rate: float, n: int) -> np.ndarray:
        return self._gen.poisson(rate, n)

    def doubles(self, n: int) -> dict:
        """The start of ``random(n)``."""
        at = self._gen.bit_generator.state
        self._gen.bit_generator.advance(n)
        return at

    def signs(self, n: int) -> tuple[dict, int | None]:
        """The start of ``integers(0, 2, n)``: the state of its first new
        word, and the buffered half it reads before that word, if any."""
        at = (self._gen.bit_generator.state, self._held)
        if n:
            fresh = n - (self._held is not None)  # halves of new words
            self._held = None
            self._gen.bit_generator.advance(fresh // 2)
            if fresh % 2:
                self._gen.integers(0, 2, 1)  # the last sign's word: its high half stays buffered
                self._held = self._gen.bit_generator.state["uinteger"]
        return at

    def rest(self) -> dict:
        return self._gen.bit_generator.state


def _draw_doubles(at: dict, out: np.ndarray, start: int) -> None:
    """Elements ``start:start + out.size`` of ``random(n)`` from the start ``at``, into ``out``."""
    _generator_at(at, start).random(out=out)


def _draw_signs(at: tuple[dict, int | None], start: int, stop: int) -> np.ndarray:
    """Elements ``start:stop`` of ``integers(0, 2, n)`` from the start ``at``
    (:meth:`_BitStream.signs`), as int64."""
    state, held = at
    if held is not None:
        if start == 0:
            return _generator_at(state, 0, held).integers(0, 2, stop)
        start, stop = start - 1, stop - 1  # the held half was sign 0
    gen = _generator_at(state, start // 2)
    if start % 2:
        gen.integers(0, 2, 1)  # the word's low half, sign start - 1
    return gen.integers(0, 2, stop - start)


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
    batch.  In a ``map_batches`` kernel, ``values``, ``small_noise`` and the
    three record arrays are views of the batch's arena, which the next batch
    overwrites: copy what outlives the kernel (:meth:`extract` copies).
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
        outlives the batch's arrays (``map_batches`` reuses them)."""
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

    Inside a ``map_batches`` kernel they live in the batch's arena, as a
    batch's grid does."""
    bits = _BitStream(_require_stream(rng))
    e = _batch_array(size)
    flat_e = e.reshape(-1)
    u_at = bits.doubles(flat_e.size)  # the uniforms on [0, 1) that gen.uniform draws
    edges = [*range(0, flat_e.size, _PIECE_ELEMS), flat_e.size]
    exps = _StreamedDraw(_exponentials, flat_e, edges, bits.rest())
    inv_a = 1.0 / alpha

    def piece(i: int) -> None:
        # sin(alpha u) / cos(u)^(1/alpha) * (cos((1 - alpha) u) / e)^((1 - alpha)/alpha),
        # written over e, with the same operations in the same order as the plain expression
        s = slice(edges[i], edges[i + 1])
        v = np.empty(s.stop - s.start)
        _draw_doubles(u_at, v, s.start)
        v *= np.pi
        v += -np.pi / 2.0  # gen.uniform(-pi/2, pi/2) returns low + (high - low) * u
        o = np.multiply(alpha, v)
        np.sin(o, out=o)
        den = np.cos(v)
        den **= inv_a
        o /= den
        v *= 1.0 - alpha
        np.cos(v, out=v)
        v /= exps.wait(i)
        v **= (1.0 - alpha) * inv_a
        np.multiply(o, v, out=flat_e[s])

    _run_pieces(piece, len(edges) - 1, exps.draw)
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
    sups = _take_sups()
    incr = standard_symmetric_stable(alpha, (n_paths, n_steps), rng)
    values = _batch_array((n_paths, n_steps + 1))  # over the transform's spent uniforms
    batch = BatchPaths(times=np.linspace(0.0, 1.0, n_steps + 1), values=values)
    if sups is not None:
        sups.start(batch)
    edges = [*range(0, n_paths, max(1, _PIECE_ELEMS // n_steps)), n_paths]

    def piece(i: int) -> None:
        r0, r1 = edges[i], edges[i + 1]
        block = incr[r0:r1]
        block *= scale
        values[r0:r1, 0] = 0.0
        np.cumsum(block, axis=1, out=values[r0:r1, 1:])
        if sups is not None:
            sups.rows(r0, r1)

    _run_pieces(piece, len(edges) - 1)
    return batch


class _Band:
    """One band of jumps, lower <= |x| < upper, grouped by path.

    Path i owns records ``first[i]:first[i + 1]``, in draw order.  Only
    the counts are drawn with the band.  :meth:`finish` draws a range of
    records: the uniforms of their instants into ``t``, those of their
    magnitudes into ``x`` and their signs, each from its own offset in the
    batch's bit stream (``t_at``, ``x_at``, ``signs_at``), and turns them,
    in place, into instants and signed sizes.  A plain class: a frozen
    dataclass of ten fields takes half a millisecond to define at import.
    """

    def __init__(self, counts, first, t, x, t_at, x_at, signs_at, alpha, lower, upper) -> None:
        self.counts, self.first, self.t, self.x = counts, first, t, x
        self.t_at, self.x_at, self.signs_at = t_at, x_at, signs_at
        self.alpha, self.lower, self.upper = alpha, lower, upper

    @classmethod
    def draw(cls, bits: _BitStream, rate: float, n_paths: int, alpha: float, lower: float,
             upper: float) -> "_Band":
        """Poisson(rate) jumps per path; upper may be inf.  In the batch's bit
        stream, the counts come first, then uniforms for the instants, then
        for the magnitudes, then the signs."""
        counts = bits.counts(rate, n_paths)
        first = np.zeros(n_paths + 1, dtype=np.int64)
        np.cumsum(counts, out=first[1:])
        n = int(first[-1])
        t_at = bits.doubles(n)
        x_at = bits.doubles(n)
        return cls(counts, first, _batch_array(n), _batch_array(n), t_at, x_at, bits.signs(n),
                   alpha, lower, upper)

    def records(self, p0: int, p1: int) -> slice:
        return slice(int(self.first[p0]), int(self.first[p1]))

    def finish(self, s: slice) -> None:
        """Instants on (0, 1], and magnitudes with density alpha x^(-1-alpha)
        on [lower, upper) by inversion, with their signs, for the records ``s``."""
        t, x = self.t[s], self.x[s]
        _draw_doubles(self.t_at, t, s.start)
        _draw_doubles(self.x_at, x, s.start)
        up = _draw_signs(self.signs_at, s.start, s.stop)
        np.subtract(1.0, t, out=t)
        hi_pow = self.upper ** -self.alpha  # 0.0 for upper = inf, so the sum below is exact
        np.subtract(1.0, x, out=x)
        x *= self.lower ** -self.alpha - hi_pow
        x += hi_pow
        x **= -1.0 / self.alpha
        x *= 2.0 * up - 1.0


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


def _record_steps(t, dt: float, n_steps: int):
    """(step, t / dt) of each jump instant, step = min(floor(t / dt), n_steps - 1): the
    one step rule of the binning and the jump limits.  t * n_steps can round across
    an integer, and a batch restricted to [0, t*] has dt = t* / n_steps."""
    scaled = t / dt
    step = scaled.astype(np.int64)
    np.minimum(step, n_steps - 1, out=step)
    return step, scaled


class _StreamedDraw:
    """A sampler's last generator call, ``fill(gen, chunk)`` over the chunks of
    ``out`` that ``edges`` delimits along its first axis, in order, from
    the bit-generator state ``at``.

    Its width varies, so it starts past every fixed-width word of the
    batch (:meth:`_BitStream.rest`).  :meth:`draw` runs on the helper
    thread (``first`` of ``_run_pieces``) while the calling thread takes
    the first pieces; each piece then waits for its own chunk only
    (:meth:`wait`).  The jump samplers stream their Gaussian proxy in row
    chunks, the stable transform its exponential variates in element
    chunks; chunked draws are the same bits as one draw over ``out``.
    ``out`` is allocated on the calling thread, so the helper allocates
    nothing batch-sized: each thread allocates from its own malloc arena,
    and a grid-sized array freed in a helper's arena stayed resident in
    some runs.
    """

    def __init__(self, fill, out: np.ndarray, edges: list[int], at: dict) -> None:
        self.fill, self.out, self.edges, self.at = fill, out, edges, at
        self._drawn = 0  # chunks drawn so far
        self._failed = False
        self._changed = threading.Condition()

    def draw(self) -> None:
        """Draw every chunk in order; if a draw raises, release every waiter and re-raise."""
        try:
            gen = _generator_at(self.at)
            for k in range(len(self.edges) - 1):
                self.fill(gen, self.out[self.edges[k]:self.edges[k + 1]])
                with self._changed:
                    self._drawn = k + 1
                    self._changed.notify_all()
        except BaseException:
            with self._changed:
                self._failed = True
                self._changed.notify_all()
            raise

    def wait(self, k: int) -> np.ndarray:
        """Chunk k, once drawn; raises if the draw failed before it."""
        with self._changed:
            self._changed.wait_for(lambda: self._drawn > k or self._failed)
            if self._drawn <= k:
                raise RuntimeError("the streamed draw failed")
        return self.out[self.edges[k]:self.edges[k + 1]]


def _normals(sd: float, gen, rows: np.ndarray) -> None:
    """``gen.normal(0.0, sd, rows.shape)`` into ``rows``."""
    gen.standard_normal(out=rows)
    np.multiply(rows, sd, out=rows)
    np.add(rows, 0.0, out=rows)  # normal() returns loc + sd * z; adding loc = 0.0 keeps its bits


def _exponentials(gen, out: np.ndarray) -> None:
    gen.standard_exponential(out=out)


def _jump_paths(bands, rest: dict, sd: float, n_paths: int, n_steps: int, drift=None,
                thin=None):
    """The batch whose jump records are those of ``bands``, with the Gaussian proxy
    ``gen.normal(0.0, sd, (n_paths, n_steps))`` drawn from the bit-generator
    state ``rest`` and the per-step ``drift``, if given.

    Works in pieces of consecutive paths, each with at most
    ``_PIECE_ELEMS`` grid values and about as many records.  ``thin``, when
    given, is ``(tilt, u_at, bound)`` for ``bands[0]``, u_at the start of
    its uniforms ``random(n)`` (:meth:`_BitStream.doubles`): a first pass
    draws and finishes that band's records, draws their uniforms u and
    keeps record i when u[i] (1 + bound) < 1 + beta(t_i) x_i, overwriting u
    with log1p(beta(t) x).  The second pass, piece by piece: draws and
    finishes the other bands' records; orders the piece's records, its paths'
    records of each band in turn, by (path, time), which equals
    ``np.lexsort((t, path_idx))`` over the bands' records concatenated (see
    :func:`_jump_order`), so records, values and log-weights are
    bit-identical to a lexsort's; with ``thin``, sums each path's kept
    log1p(beta(t) x) in record order, as one ``bincount`` over the batch's
    records would; sums the records per step; adds the drift; waits
    for its rows of the proxy (:class:`_StreamedDraw`, drawn on the helper
    thread meanwhile) and adds them; sums each path into the grid; and,
    when the batch's sups were asked for (:func:`_streamed_sups`), takes
    its rows' sups.  With one band and no thinning, a piece's sorted
    records cover the slots of its draws, which it has copied, so they are
    written back over the band's instants and sizes.

    Returns (batch, tilt_sums): tilt_sums holds each path's sum of its kept
    log1p(beta(t) x), the other bands' records adding 0, and is None
    without ``thin``.
    """
    sups = _take_sups()
    counts = [band.counts for band in bands]  # records per path, after thinning
    n_records = sum(int(b.first[-1]) for b in bands)
    per = max(1, min(_PIECE_ELEMS // n_steps, _PIECE_ELEMS * n_paths // max(1, n_records)))
    edges = [*range(0, n_paths, per), n_paths]
    n_pieces = len(edges) - 1
    keep = None
    if thin is not None:
        tilt, u_at, bound = thin
        thinned = bands[0]
        u = _batch_array(thinned.t.size)
        keep = _batch_array(u.size, bool)
        counts[0] = np.empty(n_paths, dtype=np.int64)

        def thin_piece(i: int) -> None:
            p0, p1 = edges[i], edges[i + 1]
            s = thinned.records(p0, p1)
            thinned.finish(s)
            _draw_doubles(u_at, u[s], s.start)
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
    n_out = int(first[-1])
    path_out = _batch_array(n_out, np.int64)
    if keep is None and len(bands) == 1:
        t_out, x_out = bands[0].t, bands[0].x
    else:
        t_out, x_out = _batch_array(n_out), _batch_array(n_out)
    tilt_sums = None if keep is None else np.empty(n_paths)
    values = _batch_array((n_paths, n_steps + 1))
    proxy = _StreamedDraw(partial(_normals, sd), _batch_array((n_paths, n_steps)), edges, rest)
    batch = BatchPaths(times=np.linspace(0.0, 1.0, n_steps + 1), values=values,
                       jump_path=path_out, jump_times=t_out, jump_sizes=x_out,
                       small_noise=proxy.out, drift_steps=drift)
    if sups is not None:
        sups.start(batch, first)

    def piece(i: int) -> None:
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
                if keep is not None:
                    lt.append(np.zeros(s.stop - s.start))  # untilted: adds 0 to the sums
        owner = np.concatenate([np.repeat(np.arange(p1 - p0), c[p0:p1]) for c in counts])
        t, x = np.concatenate(t), np.concatenate(x)
        order = _jump_order(owner, t)
        o = slice(first[p0], first[p1])
        path_out[o] = np.repeat(np.arange(p0, p1), out_counts[p0:p1])
        t_out[o], x_out[o] = t[order], x[order]
        if tilt_sums is not None:
            tilt_sums[p0:p1] = np.bincount(path_out[o] - p0, weights=np.concatenate(lt)[order],
                                           minlength=p1 - p0)
        step = _record_steps(t_out[o], 1.0 / n_steps, n_steps)[0]
        step += (path_out[o] - p0) * n_steps
        incr = np.bincount(step, weights=x_out[o], minlength=(p1 - p0) * n_steps)
        incr = incr.astype(float, copy=False).reshape(p1 - p0, n_steps)  # int with no records
        if drift is not None:
            incr += drift
        incr += proxy.wait(i)
        values[p0:p1, 0] = 0.0
        np.cumsum(incr, axis=1, out=values[p0:p1, 1:])
        if sups is not None:
            del t, x, lt, owner, order, step, incr  # freed before the sups take theirs
            sups.rows(p0, p1)

    _run_pieces(piece, n_pieces, proxy.draw)
    return batch, tilt_sums


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
    bits = _BitStream(_require_stream(rng))
    band = _Band.draw(bits, rate, n_paths, alpha, eps_cutoff, np.inf)
    sd = np.sqrt(truncated_second_moment(alpha, eps_cutoff) * (1.0 / n_steps))
    return _jump_paths([band], bits.rest(), sd, n_paths, n_steps)[0]


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
    bits = _BitStream(_require_stream(rng))
    alpha = tilt.params.alpha
    cut = tilt.jump_cut
    scale = tilt.intensity_scale
    eps_cutoff, rate_int, rate_ext = tilted_jump_rates(tilt, eps_cutoff)
    b_bound = tilt.amplitude_bound
    dt = 1.0 / n_steps

    # interior jumps eps <= |x| < cut, thinned from the (1 + B)-inflated rate
    bands = [_Band.draw(bits, rate_int, n_paths, alpha, eps_cutoff, cut)]
    thin = None
    if b_bound != 0.0:
        thin = (tilt, bits.doubles(bands[0].t.size), b_bound)

    # exterior jumps |x| >= cut, untilted; only the small regime keeps them
    if tilt.keeps_exterior_jumps:
        bands.append(_Band.draw(bits, rate_ext, n_paths, alpha, cut, np.inf))

    # compensate the tilt of the interior band so the component is a martingale
    bbar = step_mean_amplitude(tilt, n_steps)
    v_band = truncated_second_moment(alpha, cut) - truncated_second_moment(alpha, eps_cutoff)
    drift = -scale * v_band * bbar * dt

    var = scale * truncated_second_moment(alpha, eps_cutoff) * dt  # of the proxy per step
    batch, tilt_sums = _jump_paths(bands, bits.rest(), np.sqrt(var), n_paths, n_steps, drift,
                                   thin)
    del bands, thin  # the raw draws die before the weights are computed
    if b_bound == 0.0:
        return batch, np.zeros(n_paths)
    return batch, log_weight_batch(batch, tilt_sums, bbar, var)


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


_SCREEN_STRIDE = 32  # grid columns per column of the coarse grid that screens capped sups


class _Sups:
    """Refined sups of one batch's paths against every ``(f, shift_scale)`` target,
    capped: the ``(len(targets), n_paths)`` matrix ``np.minimum(sup, cap)``,
    filled a row range at a time.

    :meth:`start` takes the batch, whose grid and records may still be
    filling, evaluates f once per distinct f object on the grid, and scales
    it per target.  :meth:`rows` then fills the columns of a range of
    paths whose grid, records and proxy are final, first with each
    target's grid max.  Uncapped, that is one pass over the rows per
    target, through one buffer.  With a finite ``cap`` a coarse grid
    screens the pairs first: each target's max over a copy of every
    ``_SCREEN_STRIDE``-th column; a (target, path) pair whose coarse max
    reaches ``cap`` keeps it, since its grid max is no smaller and both cap
    to ``cap``, and only the other pairs take the full grid, on a gather of
    their rows.  The range's paths whose grid sup is below ``cap`` for some
    target are still undecided (with ``cap`` = inf, every path); only their
    jump records are gathered, given their left and right limits
    (:func:`_jump_limits`) and reduced per path, again for every target.  A
    path whose grid sup reaches ``cap`` for every target keeps it: its
    refined sup is no smaller, so both cap to ``cap``.  A None target skips
    the subtraction.  Every element sees the same operations as a
    one-target pass over the whole batch would, and a range reads and
    writes only its own paths, so each row is bit-identical to the sup
    against its target alone, however the paths are split into ranges and
    whichever thread fills each.

    Two drivers run it: :func:`_sup_matrix` over a finished batch, in row
    blocks of about ``_PIECE_ELEMS`` grid values, and the samplers' own
    pieces, each right after its paths are summed (:func:`_streamed_sups`).
    """

    def __init__(self, targets, path_scale: float = 1.0, cap: float = np.inf) -> None:
        self.targets, self.path_scale, self.cap = list(targets), path_scale, cap
        self.batch = None

    def start(self, batch: BatchPaths, first=None) -> None:
        """Take ``batch``; path i owns its records ``first[i]:first[i + 1]``,
        found from ``batch.jump_path`` when ``first`` is None."""
        self.batch = batch
        self.shifts = {id(f): f for f, _ in self.targets if f is not None}
        grid_f = {key: np.asarray(f(batch.times), dtype=float) for key, f in self.shifts.items()}
        self.grid_targets = [None if f is None else scale * grid_f[id(f)]
                             for f, scale in self.targets]
        self.out = np.empty((len(self.targets), batch.n_paths))
        self.first = None
        if batch.jump_times is not None and batch.jump_times.size > 0:
            # records are (path, time)-sorted: path i owns records first[i]:first[i + 1]
            self.first = (np.searchsorted(batch.jump_path, np.arange(batch.n_paths + 1))
                          if first is None else first)

    def rows(self, r0: int, r1: int) -> None:
        """Fill the columns r0:r1."""
        batch, out, first, cap = self.batch, self.out[:, r0:r1], self.first, self.cap
        block = batch.values[r0:r1]
        if self.path_scale != 1.0:
            block = np.multiply(block, self.path_scale)
        if cap == np.inf:
            dev = np.empty_like(block)
            for k, target in enumerate(self.grid_targets):
                _max_dev(block, target, dev, out[k])
        else:
            coarse = block[:, ::_SCREEN_STRIDE].copy()  # contiguous: read once per target
            dev = np.empty(coarse.shape)
            for k, target in enumerate(self.grid_targets):
                _max_dev(coarse, None if target is None else target[::_SCREEN_STRIDE], dev, out[k])
                rest = np.flatnonzero(out[k] < cap)  # the pairs the coarse grid leaves open
                if rest.size:
                    part, sup = block[rest], np.empty(rest.size)
                    _max_dev(part, target, part, sup)
                    out[k, rest] = sup
        if first is not None:
            self._refine(r0, out, first)
        np.minimum(out, cap, out=out)

    def _refine(self, r0: int, out: np.ndarray, first: np.ndarray) -> None:
        # the undecided paths with records, and where their records start
        live = r0 + np.flatnonzero((out < self.cap).any(axis=0))
        counts = first[live + 1] - first[live]
        has = counts > 0
        live, counts = live[has], counts[has]
        if live.size == 0:
            return
        starts = np.cumsum(counts) - counts
        sel = np.repeat(first[live] - starts, counts) + np.arange(starts[-1] + counts[-1])
        t, pre, post = _jump_limits(self.batch, sel)
        if self.path_scale != 1.0:
            pre, post = self.path_scale * pre, self.path_scale * post
        owners = live - r0
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
            out[k, owners] = np.maximum(out[k, owners], seg_max)

    def of(self, batch: BatchPaths) -> np.ndarray:
        """The sups of ``batch``: those its sampler's pieces took, else from
        a pass of their own (a sampler that streams no sups)."""
        if self.batch is batch:
            return self.out
        return _sup_matrix(batch, self.targets, self.path_scale, self.cap)


def _sup_matrix(batch: BatchPaths, targets, path_scale: float = 1.0,
                cap: float = np.inf) -> np.ndarray:
    """The sups of :class:`_Sups` over a finished batch, in one pass.

    The row blocks, of about ``_PIECE_ELEMS`` grid values each, are the
    pieces of ``_run_pieces``: each block has its own buffers, builds its
    own limits and writes only its own columns of the result.
    """
    sups = _Sups(targets, path_scale, cap)
    sups.start(batch)
    rows = max(1, _PIECE_ELEMS // batch.values.shape[1])
    edges = [*range(0, batch.n_paths, rows), batch.n_paths]
    _run_pieces(lambda b: sups.rows(edges[b], edges[b + 1]), len(edges) - 1)
    return sups.out


@contextmanager
def _streamed_sups(targets, cap: float):
    """Yields the :class:`_Sups` against ``targets``, capped at ``cap``, of the
    batch that the ``with`` body draws on this thread.

    The first sampler the body calls takes them (:func:`_take_sups`), and
    its pieces fill each range of rows as soon as the range is summed,
    while the helper thread may still draw; ``_Sups.of`` gives them for the
    batch the sampler returned.
    """
    sups = _Sups(targets, cap=cap)
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
    """Run one job of ``map_batches`` on an arena of its own.

    The job takes an idle arena, or makes one, resets it and gives it back
    when its kernel returns, so the process holds as many arenas as batches
    have ever run at once, whichever threads ran them.  A batch drawn inside
    another job's kernel takes another arena, so it cannot overwrite the
    outer batch.
    """
    kernel, stream, size = job
    with _idle_lock:
        ws = _idle.pop() if _idle else _Workspace()
    ws.reset()
    outer = getattr(_threads, "active", None)
    _threads.active = ws
    try:
        return kernel(stream, size)
    finally:
        _threads.active = outer
        with _idle_lock:
            _idle.append(ws)


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

    Each kernel runs with an arena (``_Workspace``) that holds every array
    of its batch whose size scales with the batch: the grid values, the
    Gaussian proxy or the stable variates, and the jump draws and records.
    The next batch to take that arena, in this call or a later one and on
    any thread, writes over them, so a kernel returns nothing that views
    its batch (copy what it keeps).  An arena grows to the largest batch
    it has run, which the plan bounds.  Samplers called outside a kernel
    allocate fresh arrays.
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
    Row i of the ``(len(targets), n_paths)`` result is
    ``np.minimum(sup_distance_batch(batch, *targets[i]), cap)`` over the
    batches in plan order, so every target sees the same paths; each batch
    is read once for all targets.  Pass one f object for targets that share
    a shift, so it is evaluated once, and the radius as ``cap`` when only
    ``sup < r`` is counted, so pairs a coarse grid already puts outside the
    ball skip the full grid, and paths the grid puts outside every ball
    skip their jump records.
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
