"""In-memory span tracer installed around the library's public functions.

The tracer replaces every module attribute that binds a public function of
the package with a wrapper that records one span per call: name, start,
end, parent span, operation id and thread.  Aliases (a function imported
into another module, such as ``smallball.sample_jump_batch``) get the same
wrapper, so a call is traced whichever name it goes through.  Spans stay in
memory until the run ends; ``uninstall`` puts the original functions back.

A few spans also carry counts read from arguments and results (variates,
paths, jump records, batch bytes, matrix size, hits), taken after the span
has ended so they do not add to its duration.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from dataclasses import dataclass, field

PACKAGE = "stable_smallball"


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    thread: int
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _batch_info(fn, args, kwargs, result) -> dict:
    batch, lw = result if isinstance(result, tuple) else (result, None)
    arrays = [batch.values, batch.small_noise, batch.jump_path, batch.jump_times,
              batch.jump_sizes, lw]
    jumps = 0 if batch.jump_times is None else int(batch.jump_times.size)
    return {"paths": batch.n_paths, "steps": batch.n_steps, "jumps": jumps,
            "jump_resolved": batch.jump_times is not None,
            "bytes": sum(a.nbytes for a in arrays if a is not None)}


def _sup_info(fn, args, kwargs, result) -> dict:
    batch = _bound(fn, args, kwargs)["batch"]
    return {"path_steps": batch.n_paths * batch.n_steps}


def _eigen_info(fn, args, kwargs, result) -> dict:
    return {"matrix_n": int(_bound(fn, args, kwargs)["n_grid"]) - 1}


def _anderson_info(fn, args, kwargs, result) -> dict:
    rows = (result.baseline, *result.rows)
    return {"hits": sum(round(row.p_hat * result.n_paths) for row in rows),
            "attempts": len(rows) * result.n_paths}


def _bernoulli_info(fn, args, kwargs, result) -> dict:
    return {"hits": round(result.value * result.n), "attempts": result.n}


_DESCRIBE = {
    "simulate.standard_symmetric_stable": lambda fn, a, k, r: {"variates": int(r.size)},
    "simulate.sample_stable_batch": _batch_info,
    "simulate.sample_jump_batch": _batch_info,
    "simulate.sample_tilted_batch": _batch_info,
    "simulate.sample_time_changed_batch": _batch_info,
    "simulate.sup_distance_batch": _sup_info,
    "constants.dirichlet_eigenvalue": _eigen_info,
    "smallball.anderson_report": _anderson_info,
    "smallball.estimate_crude": _bernoulli_info,
    "smallball.estimate_given_no_big_jumps": _bernoulli_info,
    "smallball.estimate_is": lambda fn, a, k, r: {"ess": float(r.ess or 0.0)},
}


def span_name(fn) -> str:
    """``<module>.<function>`` of the defining module, e.g. ``simulate.sup_distance_batch``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str | None = None):
        name = name or span_name(fn)
        describe = _DESCRIBE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, self.op, stack[-1] if stack else None, threading.get_ident())
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if describe is not None:
                span.info = describe(fn, args, kwargs, result)
            return result

        return traced

    def install(self, modules) -> None:
        """Wrap every public package function bound as an attribute of ``modules``."""
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith(PACKAGE + ".")):
                    continue
                if value not in wrappers:
                    wrappers[value] = self.wrap(value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def to_records(self) -> list[dict]:
        threads = {self.main_thread: 0}
        out = []
        for s in self.spans:
            tid = threads.setdefault(s.thread, len(threads))
            out.append({"name": s.name, "op": s.op, "parent": s.parent, "thread": tid,
                        "start": s.start, "end": s.end, **({"info": s.info} if s.info else {})})
        return out


def span_cost_seconds(n_calls: int = 20_000) -> float:
    """Added cost of one traced call, from a wrapped no-op against a bare one."""
    def noop():
        return None

    traced = Tracer().wrap(noop, "bench.noop")
    t0 = time.perf_counter()
    for _ in range(n_calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n_calls):
        traced()
    return max(time.perf_counter() - t0 - bare, 0.0) / n_calls
