"""Finite-horizon harness for the iterated-logarithm scaling regimes.

Everything here works at desk scale under two explicit conventions:

* Horizon arithmetic stays in log-space.  Grid times T_k = exp(k (log k)^-3)
  or exp(k^gamma) overflow floats almost immediately, so only log T_k is
  ever materialized; the deterministic gap ratios of the grid are evaluated
  purely from logs.
* Paths at horizon T are simulated as fresh unit-horizon paths via
  self-similarity (X(T.)/T^(1/alpha) has the law of X(.)).  That preserves
  marginal laws but not the coupling across T, so every sampled trace is
  annotated as a diagnostic: an almost-sure liminf cannot be verified from
  finitely many independent draws.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import integrate

from .processes import ScalingFunction, ShiftFunction
from .simulate import BatchPaths, sup_distance_batch

MAX_LOG_T = 700.0  # beyond this exp(log T) overflows float64
DIAGNOSTIC_NOTE = "diagnostic only: an a.s. liminf is not verifiable from finite samples"


@dataclass(frozen=True)
class GridSpec:
    """Deterministic horizon grid, kept in log-space.

    kind="lower": log T_k = k (log k)^-3, defined for k >= 21 where it is
    increasing (k (log k)^-3 is monotone iff log k > 3).
    kind="upper": log T_k = k^gamma with gamma > 1, defined for k >= 1.
    """

    kind: str
    k_min: int
    k_max: int
    gamma: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("lower", "upper"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.k_max < self.k_min:
            raise ValueError("empty k range")
        if self.kind == "lower":
            if self.k_min < 21:
                raise ValueError("lower grid needs k >= 21 for monotonicity")
            if self.gamma is not None:
                raise ValueError("gamma applies to the upper grid only")
        else:
            if self.gamma is None or self.gamma <= 1.0:
                raise ValueError("upper grid needs gamma > 1")
            if self.k_min < 1:
                raise ValueError("upper grid needs k >= 1")

    def k_values(self) -> np.ndarray:
        return np.arange(self.k_min, self.k_max + 1, dtype=np.int64)

    def log_time(self, k):
        k_arr = np.asarray(k, dtype=float)
        if np.any(k_arr < (21 if self.kind == "lower" else 1)):
            raise ValueError("k below the grid domain")
        if self.kind == "lower":
            out = k_arr / np.log(k_arr) ** 3
        else:
            out = k_arr**self.gamma
        return float(out) if np.isscalar(k) else out

    def log_times(self) -> np.ndarray:
        return self.log_time(self.k_values())

    def times(self) -> np.ndarray:
        """Materialized T_k; refuses once exp would overflow."""
        logs = self.log_times()
        if np.any(logs > MAX_LOG_T):
            k_bad = int(self.k_values()[np.argmax(logs > MAX_LOG_T)])
            raise OverflowError(
                f"T_k overflows float64 from k={k_bad}; use log_times() instead")
        return np.exp(logs)


def grid_gap_ratios(k: int, delta: float, alpha: float, kind: str = "lower",
                    gamma: float | None = None) -> tuple[float, float, float]:
    """The three deterministic gap ratios of consecutive grid points.

    r1 measures the growth of the scaling numerator across one grid step,
    r2 the residual fluctuation scale of the frozen segment, r3 the raw
    horizon ratio T_k/T_{k+1}; the lower grid drives r1, r2 to 0 and r3 to 1
    as k grows.  All three are evaluated in log-space.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    spec = GridSpec(kind=kind, k_min=k, k_max=k + 1, gamma=gamma)
    lt_k, lt_k1 = spec.log_time(k), spec.log_time(k + 1)
    ll_k, ll_k1 = np.log(lt_k), np.log(lt_k1)
    if ll_k <= 0.0:
        raise ValueError("log log T must be positive; increase k")

    # a_k = log of T_k^(1/alpha) (log log T_k)^(delta-1/alpha); the common
    # denominator is (T_{k+1} / log log T_{k+1})^(1/alpha), log called d here
    inv_a = 1.0 / alpha
    a_k = inv_a * lt_k + (delta - inv_a) * np.log(ll_k)
    a_k1 = inv_a * lt_k1 + (delta - inv_a) * np.log(ll_k1)
    d = inv_a * (lt_k1 - np.log(ll_k1))

    r3 = float(np.exp(lt_k - lt_k1))
    r1 = float(np.exp(a_k1 - d) - np.exp(a_k - d))
    r2 = float(np.sqrt(max(1.0 - r3, 0.0)) * np.exp(a_k - d))
    return r1, r2, r3


@dataclass(frozen=True)
class IntegralTestResult:
    classification: str  # converges | diverges | inconclusive
    method: str          # analytic | numeric
    evidence: dict


def integral_test(h: ScalingFunction, alpha: float,
                  max_log_t: float = MAX_LOG_T, quad_tol: float = 1e-9) -> IntegralTestResult:
    """Classify int^inf dt / (t h(t)^alpha) as finite or infinite.

    Power-of-log scalings are classified analytically: with
    h = (log t)^p (log log t)^q the integral is finite iff p alpha > 1, or
    p alpha = 1 with q alpha > 1.  Custom scalings are probed numerically:
    partial integrals over doubling log-ranges either decay geometrically
    (converges), hold steady (diverges), or neither (inconclusive).
    """
    if h.kind == "power_loglog":
        pa = h.log_power * alpha
        qa = h.loglog_power * alpha
        if pa > 1.0 or (pa == 1.0 and qa > 1.0):
            cls = "converges"
        else:
            cls = "diverges"
        return IntegralTestResult(cls, "analytic",
                                  {"p_alpha": pa, "q_alpha": qa})

    # substitute t = e^u: integral becomes int du / h(e^u)^alpha
    u0 = max(np.log(h.t_min), 2.0) + 1.0
    edges = [u0]
    while edges[-1] * 2.0 <= max_log_t:
        edges.append(edges[-1] * 2.0)
    if len(edges) < 5:
        raise ValueError("not enough doubling headroom below the overflow cap")
    parts = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        val = integrate.quad(lambda u: h(np.exp(u)) ** -alpha, lo, hi,
                             epsabs=quad_tol, epsrel=quad_tol, limit=200)[0]
        if not np.isfinite(val) or val < 0.0:
            raise ValueError("nonpositive or non-finite scaling sample")
        parts.append(val)
    parts = np.asarray(parts)
    ratios = parts[1:] / np.maximum(parts[:-1], 1e-300)
    tail_ratio = float(np.mean(ratios[-3:]))
    evidence = {"partial_integrals": parts.tolist(), "ratios": ratios.tolist(),
                "tail_ratio": tail_ratio}
    if tail_ratio <= 0.90:
        cls = "converges"
    elif tail_ratio >= 0.99:
        cls = "diverges"
    else:
        cls = "inconclusive"
    return IntegralTestResult(cls, "numeric", evidence)


@dataclass(frozen=True)
class ScaledDistanceRecord:
    """One scaled sup-distance sample at horizon exp(log_t).

    distance = (log log T)^delta * sup_s |X(Ts)/(T^(1/alpha)(log log T)^(delta-1/alpha)) - f(s)|,
    evaluated on a unit-horizon path standing in for X(T.)/T^(1/alpha).
    """

    log_t: float
    delta: float
    distance: float
    k: int | None = None
    note: str = DIAGNOSTIC_NOTE

    def __post_init__(self) -> None:
        if self.log_t <= np.e:
            raise ValueError("need log T > e so that log log T > 1")


def scaled_distance(path: BatchPaths, log_t: float, delta: float, alpha: float,
                    f: ShiftFunction | None = None, k: int | None = None
                    ) -> ScaledDistanceRecord:
    """Scaled distance of a unit-horizon one-path batch at horizon exp(log_t).

    The path is treated as X(T.)/T^(1/alpha) via self-similarity, so the
    horizon enters only through log log T; nothing overflows for huge T.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    if log_t <= np.e:
        raise ValueError("need log T > e")
    if path.n_paths != 1:
        raise ValueError("scaled_distance takes a one-path batch (BatchPaths.extract)")
    loglog = float(np.log(log_t))
    dist = loglog**delta * float(sup_distance_batch(
        path, f, shift_scale=0.0 if f is None else 1.0,
        path_scale=loglog ** (1.0 / alpha - delta))[0])
    return ScaledDistanceRecord(log_t=float(log_t), delta=float(delta),
                                distance=float(dist), k=k)


def sample_scaled_distances(spec: GridSpec, delta: float, alpha: float,
                            f: ShiftFunction | None = None, n_steps: int = 2048,
                            rng=None) -> list[ScaledDistanceRecord]:
    """One fresh unit-horizon path per grid point, scaled per its horizon.

    Independent draws across k: marginally faithful, jointly not (see module
    note); each record carries the diagnostic annotation.
    """
    from .processes import AlphaStableParams
    from .simulate import RngStream, sample_stable_batch

    if not isinstance(rng, RngStream):
        raise ValueError("an RngStream is required for reproducible sweeps")
    params = AlphaStableParams(alpha)
    records = []
    for k in spec.k_values():
        path = sample_stable_batch(params, 1, n_steps, rng.child(int(k)))
        records.append(scaled_distance(path, spec.log_time(int(k)), delta, alpha, f, k=int(k)))
    return records


def split_at(path: BatchPaths, ratio: float) -> tuple[BatchPaths, BatchPaths]:
    """Split each path into (frozen-after, zero-before) parts at a time ratio.

    The split point snaps to the last grid time <= ratio, so on the grid the
    first part equals the path up to ratio and is constant after, the second
    is zero before and carries the remaining increments; their sum rebuilds
    the path to machine precision, grid point by grid point.  Jump records
    and the per-step refinement data (proxy noise, drift) are assigned to
    the side whose window contains them, so the frozen part's refined
    sup-norm equals the refined sup of the original path over [0, ratio].
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    times, values = path.times, path.values
    idx = int(np.searchsorted(times, ratio, side="right") - 1)
    t_star = times[idx]
    frozen_vals = np.where(times <= t_star, values, values[:, idx:idx + 1])

    def _steps(arr, before: bool):
        # step i covers (times[i], times[i+1]]; steps < idx feed the frozen part
        if arr is None:
            return None
        out = arr.copy()
        if before:
            out[..., idx:] = 0.0
        else:
            out[..., :idx] = 0.0
        return out

    def _part(vals, before: bool) -> BatchPaths:
        jp = jt = js = None
        if path.jump_times is not None:
            m = (path.jump_times <= t_star) == before
            jp, jt, js = path.jump_path[m], path.jump_times[m], path.jump_sizes[m]
        return replace(path, values=vals, jump_path=jp, jump_times=jt, jump_sizes=js,
                       small_noise=_steps(path.small_noise, before),
                       drift_steps=_steps(path.drift_steps, before))

    return _part(frozen_vals, True), _part(values - frozen_vals, False)


def running_min_trace(records: list[ScaledDistanceRecord]) -> list[tuple[ScaledDistanceRecord, float]]:
    """Running minimum of the scaled distances along increasing horizon.

    A finite-grid stand-in for the liminf; the pairing keeps each record next
    to the minimum so far, and the diagnostic annotation rides along.
    """
    if not records:
        return []
    logs = [rec.log_t for rec in records]
    if any(b <= a for a, b in zip(logs, logs[1:])):
        raise ValueError("records must be strictly increasing in horizon")
    out = []
    best = np.inf
    for rec in records:
        best = min(best, rec.distance)
        out.append((rec, float(best)))
    return out
