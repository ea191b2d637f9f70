"""The four benchmark workloads, each a list of checked operations.

Every workload runs at alpha = 1.5.  The seed reaches the library only as
children of ``RngStream(seed)``; the selftest uses the library's own pinned
seeds and ignores it.  An operation is one library call plus its check; it
fails if the call raises, if the check fails, or if its result digest
differs from the first run of the same operation in the process.

Gates are the tier-1 gates, or stderr-scaled gates where the tier-1 gate
was set for a much larger sample (the Monte Carlo constant fit).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from stable_smallball import cli, constants, girsanov, processes, simulate, smallball
from stable_smallball.simulate import RngStream

ALPHA = 1.5
WORKERS = 2
Z_GATE = 4.0  # stderr-scaled gates, and criterion 04's unit-mean gate
C_ALPHA_TOL = 1e-8

ANDERSON = {"r": 1.0, "n_paths": 6141, "n_steps": 2048, "eps_cutoff": 1.0 / 50.0}
IS = {"c": 0.2, "r": 0.8, "n_paths": 20470, "n_steps": 2048, "workers": WORKERS}
SMALL = {"lam": 0.2, "r": 0.6, "n_paths": 1000, "n_steps": 256}
SPECTRAL = {"alphas": (1.2, 1.5, 1.8), "n_grid": 2048}
MC_FIT = {"r_list": (0.6, 0.8, 1.0, 1.2), "n_paths": 6141, "n_steps": 2048}


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object, dict], tuple[bool, str, dict]]
    record: Callable[[object], object] = lambda result: result
    # seconds of the timed stages inside one call, where the library reports them
    parts: Callable[[object], dict[str, float]] = lambda result: {}


@dataclass
class Outcome:
    name: str
    seconds: float
    ok: bool
    detail: str
    digest: str | None = None
    stats: dict = field(default_factory=dict)
    parts: dict[str, float] = field(default_factory=dict)


@dataclass
class Context:
    params: processes.AlphaStableParams
    pool: ProcessPoolExecutor | None = None
    scratch: Path | None = None


def _plain(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _plain(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj).tobytes()
        return {"dtype": str(obj.dtype), "shape": list(obj.shape),
                "sha256": hashlib.sha256(data).hexdigest()}
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def digest(obj) -> str:
    """Hash of a result record; floats enter through their exact repr."""
    text = json.dumps(_plain(obj), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_op(op: Op, done: dict) -> Outcome:
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a crashed operation is a failed operation
        return Outcome(op.name, time.perf_counter() - t0, False,
                       f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    done[op.name] = result
    try:
        ok, detail, stats = op.check(result, done)
        return Outcome(op.name, seconds, bool(ok), detail, digest(op.record(result)), stats,
                       op.parts(result))
    except Exception as exc:
        return Outcome(op.name, seconds, False, f"check raised {type(exc).__name__}: {exc}")


# anderson ------------------------------------------------------------------

def _anderson_ops(ctx: Context, seed: int, serial: bool) -> list[Op]:
    a = ANDERSON

    def check(rep, done):
        worst = max(rep.rows, key=lambda row: row.p_hat)
        return rep.n_flagged == 0, (
            f"flagged {rep.n_flagged}/{len(rep.rows)} (gate == 0); baseline p "
            f"{rep.baseline.p_hat:.4f}, largest shifted p {worst.p_hat:.4f} ({worst.label})"), {}

    return [Op("anderson_report", lambda: smallball.anderson_report(
        ctx.params, a["r"], a["n_paths"], rng=RngStream(seed).child(0),
        n_steps=a["n_steps"], eps_cutoff=a["eps_cutoff"]), check)]


def _anderson_warmup(ctx: Context, seed: int) -> None:
    smallball.anderson_report(ctx.params, 1.0, 64, rng=RngStream(seed).child(9), n_steps=64)


# tilted --------------------------------------------------------------------

def is_op(ctx: Context, seed: int, pmap) -> Op:
    q = IS
    query = smallball.SmallBallQuery.middle(ctx.params, processes.identity_shift(),
                                            q["c"], q["r"])

    def check(est, done):
        return not est.flags, (
            f"p {est.value:.4e} +- {est.stderr:.1e}, ESS {est.ess:.1f}, "
            f"flags {list(est.flags) or 'none'} (gate: no flag)"), {}

    return Op("estimate_is", lambda: smallball.estimate_is(
        query, q["n_paths"], q["n_steps"], rng=RngStream(seed).child(1), pmap=pmap), check)


def _tilted_ops(ctx: Context, seed: int, serial: bool) -> list[Op]:
    s = SMALL
    tilt = girsanov.TiltSpec.small_shift(ctx.params, processes.identity_shift(), s["lam"],
                                         r=s["r"])

    def check(lw, done):
        w = np.exp(lw)
        se = w.std(ddof=1) / math.sqrt(w.size)
        dev = abs(w.mean() - 1.0) / se if se > 0.0 else 0.0
        ess_frac = float(w.sum() ** 2 / np.sum(w * w) / w.size)
        return dev < Z_GATE, (f"|mean w - 1|/se {dev:.2f} (gate {Z_GATE}), mean w "
                              f"{w.mean():.4f}, ESS/n {ess_frac:.3f}"), {
            "girsanov.weight_ess_frac": ess_frac}

    pmap = map if serial else ctx.pool.map
    return [is_op(ctx, seed, pmap),
            Op("small_regime_weights", lambda: simulate.sample_tilted_batch(
                tilt, s["n_paths"], s["n_steps"], RngStream(seed).child(2))[1], check)]


def _tilted_warmup(ctx: Context, seed: int) -> None:
    query = smallball.SmallBallQuery.middle(ctx.params, processes.identity_shift(), 0.2, 0.8)
    smallball.estimate_is(query, 128, 64, rng=RngStream(seed).child(9), pmap=ctx.pool.map)
    tilt = girsanov.TiltSpec.small_shift(ctx.params, processes.identity_shift(), 0.2, r=0.6)
    simulate.sample_tilted_batch(tilt, 4, 16, RngStream(seed).child(9))


# constants -----------------------------------------------------------------

def _reflection_c_alpha(alpha: float) -> float:
    return math.pi / (math.gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0))


def _constants_ops(ctx: Context, seed: int, serial: bool) -> list[Op]:
    alphas = SPECTRAL["alphas"]
    mc = MC_FIT

    def check_c_alpha(values, done):
        dev = max(abs(v - _reflection_c_alpha(a)) / _reflection_c_alpha(a)
                  for a, v in zip(alphas, values))
        return dev < C_ALPHA_TOL, f"max rel dev vs Gamma reflection {dev:.1e} (gate {C_ALPHA_TOL})", {}

    def check_spectral(k, done):
        raw = k.diagnostics["raw_eigenvalues"]
        gap = k.diagnostics["spectral_gap"]
        # shown, not gated: the Richardson step should continue the raw trend
        return gap > 0.0, (f"K {k.value:.5f}, gap {gap:.3f} (gate > 0); Richardson step "
                           f"{k.value - raw[-1]:+.5f} vs raw trend {raw[-1] - raw[-2]:+.5f}"), {}

    def check_mc(fit, done):
        k_spec = done[f"spectral_{ALPHA}"].value
        d = fit.diagnostics
        z_k = abs(fit.value - k_spec) / d["slope_stderr"]
        z_e = abs(d["exponent_slope"] + ALPHA) / d["exponent_slope_stderr"]
        return z_k <= Z_GATE and z_e <= Z_GATE, (
            f"K_mc {fit.value:.4f} vs K_spectral {k_spec:.4f}: |z| {z_k:.2f}; exponent slope "
            f"{d['exponent_slope']:.4f} vs -{ALPHA}: |z| {z_e:.2f} (gates {Z_GATE}); "
            f"dropped r {d['dropped_r']}"), {}

    ops = [Op("c_alpha", lambda: [processes.AlphaStableParams(a).c_alpha for a in alphas],
              check_c_alpha)]
    for a in alphas:
        ops.append(Op(f"spectral_{a}", lambda a=a: constants.smallball_constant_spectral(
            a, n_grid=SPECTRAL["n_grid"]), check_spectral))
    ops.append(Op("mc_fit", lambda: constants.smallball_constant_mc(
        ALPHA, r_list=mc["r_list"], n_paths=mc["n_paths"], n_steps=mc["n_steps"],
        rng=RngStream(seed).child(3)), check_mc))
    return ops


def _constants_warmup(ctx: Context, seed: int) -> None:
    constants.smallball_constant_spectral(ALPHA, n_grid=64)
    simulate.sample_stable_batch(ctx.params, 4, 16, RngStream(seed).child(9))


# selftest ------------------------------------------------------------------

_GAUSS = re.compile(r"eigenvalue ([0-9.]+)")


def _selftest_ops(ctx: Context, seed: int, serial: bool) -> list[Op]:
    def call():
        out = Path(tempfile.mkdtemp(dir=ctx.scratch))
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["selftest", "--out", str(out)])
            results = json.loads((out / "selftest.json").read_text())["results"]
        finally:
            shutil.rmtree(out)
        return code, results

    def record(result):
        code, results = result
        return code, [{k: r[k] for k in ("name", "passed", "detail")} for r in results]

    def check(result, done):
        code, results = result
        failed = [r["name"] for r in results if not r["passed"]]
        gauss = next(r["detail"] for r in results if r["name"] == "gaussian_eigenvalue")
        m = _GAUSS.search(gauss)
        raw = f"{float(m.group(1)) - math.pi ** 2 / 8.0:+.1e}" if m else "unparsed"
        stats = {f"diagnostics.{r['name']}_s": r["seconds"] for r in results}
        stats["diagnostics.checks_failed"] = len(failed)
        failing = f" (failing: {', '.join(failed)})" if failed else ""
        return code == 0, (f"exit {code} (gate 0), {len(results) - len(failed)}/{len(results)} "
                           f"checks passed{failing}; Gaussian eigenvalue raw error {raw} "
                           f"vs pi^2/8 under a rel 5e-3 gate"), stats

    def parts(result):
        return {r["name"]: r["seconds"] for r in result[1]}

    return [Op("selftest", call, check, record, parts)]


def _selftest_warmup(ctx: Context, seed: int) -> None:
    cli.build_parser()


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[Context, int, bool], list[Op]]
    warmup: Callable[[Context, int], None]
    params: dict
    pooled: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("anderson", _anderson_ops, _anderson_warmup, {"alpha": ALPHA, **ANDERSON}),
    Workload("tilted", _tilted_ops, _tilted_warmup,
             {"alpha": ALPHA, "is": IS, "small_regime": SMALL}, pooled=True),
    Workload("constants", _constants_ops, _constants_warmup,
             {"alpha": ALPHA, "spectral": SPECTRAL, "mc_fit": MC_FIT}),
    Workload("selftest", _selftest_ops, _selftest_warmup, {"argv": ["selftest", "--out", "<tmp>"]}),
)}


def setup(workload: Workload, seed: int, scratch: Path) -> Context:
    """Parameters and c_alpha, the worker pool if any, and one small warm-up call."""
    params = processes.AlphaStableParams(ALPHA)
    params.c_alpha
    # the pool ``stable-smallball ... --workers 2`` makes, with the platform's default
    # start method, so the benchmark times what a user of the CLI runs
    pool = ProcessPoolExecutor(max_workers=WORKERS) if workload.pooled else None
    # the environment override would redirect the selftest's --out
    os.environ.pop("STABLE_SMALLBALL_OUT", None)
    ctx = Context(params, pool, scratch)
    try:
        workload.warmup(ctx, seed)
    except BaseException:
        teardown(ctx)
        raise
    return ctx


def teardown(ctx: Context) -> None:
    if ctx.pool is not None:
        ctx.pool.shutdown(wait=True)
        ctx.pool = None
