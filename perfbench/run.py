"""Benchmark of the stable-smallball toolkit: four workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload anderson --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` repeats the workload untraced for about ``--seconds`` seconds
(at least twice), with fresh-process set-up probes spread over the window,
and reports the end-to-end metrics: ``wall_s`` (seconds of one run of the
workload: the sum over its operations of each operation's median),
``setup_s`` (median over the probes of the time from process start to the end
of warm-up) and ``peak_rss_mb`` (peak resident memory of this process plus its
pool workers).  ``--trace 1`` repeats it untraced, then runs it once with
every public library function wrapped in a span, all within about
``--seconds`` seconds, and reports the per-layer metrics.  Metric names and
units come from ``BENCHMARK.json`` at the repository root.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Provenance and spans go to ``.perfbench_out/``, apart from the
results.
"""

from __future__ import annotations

import os

# one BLAS thread per process, set before NumPy loads: 2 pool workers x 1 thread
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NAMES = ("anderson", "tilted", "constants", "selftest")
SETUP_PROBES = 3  # fresh-process set-up probes per workload
MIN_REPS = 2  # untraced runs per workload, even where one run fills most of the window


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, 0 where /proc is unavailable."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb() -> tuple[float, float]:
    """(this process, sum over live pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workers = sum(_vm_hwm_mb(p.pid) for p in multiprocessing.active_children())
    return own, workers


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to the end of its set-up and warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return elapsed


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env={**os.environ, "GIT_DIR": str(ROOT / ".git")})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() or "unknown"


def _blas(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except Exception:  # older builds have no dict form; provenance stays best-effort
        return "unknown"


def provenance(args, names) -> dict:
    import numpy
    import scipy

    from workloads import WORKLOADS

    cpu = platform.processor() or "unknown"
    try:
        cpu = next(line.split(":", 1)[1].strip()
                   for line in Path("/proc/cpuinfo").read_text().splitlines()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "pool": f"ProcessPoolExecutor(max_workers=2), start method "
                f"{multiprocessing.get_start_method()}",
        "commit": _git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {n: WORKLOADS[n].params for n in names},
    }


class Tally:
    """Outcomes of every operation in a workload, with the determinism guard:
    each operation's digest must equal the one from its first run."""

    def __init__(self) -> None:
        self.outcomes = []
        self.first_digest: dict[str, str] = {}

    def add(self, rep) -> float:
        for o in rep:
            if o.digest is not None:
                ref = self.first_digest.setdefault(o.name, o.digest)
                if o.digest != ref:
                    o.ok = False
                    o.detail += f"; digest {o.digest} differs from first run {ref}"
            self.outcomes.append(o)
        return sum(o.seconds for o in rep)

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)


def run_reps(workload, ctx, seed: int, seconds: float, serial: bool, tally: Tally,
             probe=None, min_reps: int = MIN_REPS, reserve: float = 0.0) -> list[float]:
    """Repeat the workload while another iteration (a ``probe`` call with the seconds
    elapsed, if given, then one run) is expected to end within ``seconds``, less
    ``reserve`` runs' worth of time; at least ``min_reps`` times.  Wall time of each run."""
    from workloads import run_op

    walls = []
    start = time.perf_counter()
    while True:
        if probe is not None:
            probe(time.perf_counter() - start)
        done = {}
        walls.append(tally.add([run_op(op, done) for op in workload.ops(ctx, seed, serial)]))
        elapsed = time.perf_counter() - start
        per_iteration = elapsed / len(walls)
        if len(walls) >= min_reps and (
                elapsed + per_iteration + reserve * statistics.median(walls) > seconds):
            return walls


def op_medians(tally: Tally) -> dict[str, float]:
    """Median seconds of each operation over its runs, in workload order.  Where an
    operation reports its stages (the selftest's checks), it is the sum of each stage's
    median and the median of the rest of the call."""
    runs: dict[str, list] = {}
    for o in tally.outcomes:
        runs.setdefault(o.name, []).append(o)
    medians = {}
    for op, outs in runs.items():
        stages = dict.fromkeys(k for o in outs for k in o.parts)
        rest = statistics.median(o.seconds - sum(o.parts.values()) for o in outs)
        medians[op] = rest + sum(statistics.median(o.parts.get(k, 0.0) for o in outs)
                                 for k in stages)
    return medians


def measure(name: str, args) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    import workloads

    workload = workloads.WORKLOADS[name]
    probes: list[float] = []

    def probe(elapsed: float) -> None:
        # probe i is due i/SETUP_PROBES of the way into the window, so the probes and the
        # runs sample the machine over the same stretch of time
        if elapsed >= len(probes) * args.seconds / SETUP_PROBES:
            probes.append(probe_setup(name, args.seed))

    tally = Tally()
    ctx = workloads.setup(workload, args.seed, OUT)
    try:
        walls = run_reps(workload, ctx, args.seed, args.seconds, False, tally, probe)
        while len(probes) < SETUP_PROBES:
            probes.append(probe_setup(name, args.seed))
        own, pool = peak_rss_mb()
    finally:
        workloads.teardown(ctx)
    per_op = op_medians(tally)
    wall = sum(per_op.values())
    setup = statistics.median(probes)
    q1, med, q3 = _quartiles(walls)
    lines = [
        f"wall_s       {wall:.4f} s  sum of per-operation (selftest: per-check) medians "
        f"over {len(walls)} runs; "
        f"whole runs: median {med:.4f}, quartiles {q1:.4f} .. {q3:.4f}; "
        f"runs: {', '.join(f'{w:.3f}' for w in walls)}",
        f"setup_s      {setup:.4f} s  median of {len(probes)} fresh "
        f"processes: {', '.join(f'{p:.4f}' for p in probes)}",
        f"peak_rss_mb  {own + pool:.1f} MB  process {own:.1f} + pool workers {pool:.1f}",
        "per operation, median s: " + ", ".join(f"{op} {v:.4f}" for op, v in per_op.items()),
    ]
    return {"values": {"wall_s": wall, "setup_s": setup, "peak_rss_mb": own + pool},
            "tally": tally, "lines": lines, "spans": None}


def measure_traced(name: str, args) -> dict:
    """Per-layer metrics of one workload from one traced run, plus its overhead."""
    import workloads
    from layers import layer_metrics
    from tracing import Tracer, span_cost_seconds

    import stable_smallball
    from stable_smallball import cli, constants, diagnostics, girsanov, lil, processes, \
        simulate, smallball

    workload = workloads.WORKLOADS[name]
    tally = Tally()
    values = {"smallball.pool_speedup": 0.0, "girsanov.weight_ess_frac": 0.0,
              "diagnostics.checks_failed": 0}
    ctx = workloads.setup(workload, args.seed, OUT)
    try:
        pooled_is_s = None
        if workload.pooled:
            # pooled once, untraced: its digest is the reference the serial runs must match
            pooled = workloads.run_op(workloads.is_op(ctx, args.seed, ctx.pool.map), {})
            tally.add([pooled])
            pooled_is_s = pooled.seconds
        # leave room in the window for the traced run, about 1.2 untraced runs long
        walls = run_reps(workload, ctx, args.seed, args.seconds - (pooled_is_s or 0.0), True,
                         tally, min_reps=1, reserve=1.2)
        cost = span_cost_seconds()
        tracer = Tracer()
        tracer.install([stable_smallball, cli, constants, diagnostics, girsanov, lil,
                        processes, simulate, smallball])
        try:
            done, rep = {}, []
            for i, op in enumerate(workload.ops(ctx, args.seed, True)):
                tracer.op = i
                rep.append(workloads.run_op(op, done))
        finally:
            tracer.uninstall()
        traced_wall = tally.add(rep)
    finally:
        workloads.teardown(ctx)

    spans = tracer.spans
    for o in rep:
        values.update(o.stats)
    metrics, acc = layer_metrics(spans, tracer.main_thread, traced_wall)
    values.update(metrics)
    untraced = statistics.median(walls)
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced
    values["trace.overhead_s"] = traced_wall - untraced
    values["trace.span_cost_us"] = cost * 1e6
    lines = []
    if pooled_is_s:
        is_span = next(i for i, s in enumerate(spans)
                       if s.name == "smallball.estimate_is" and s.parent is None)
        nested = sum(1 for s in spans if _has_ancestor(spans, s, is_span))
        serial_is_s = spans[is_span].seconds - nested * cost
        values["smallball.pool_speedup"] = serial_is_s / pooled_is_s
        lines.append(f"pool: serial IS {serial_is_s:.3f} s (traced {spans[is_span].seconds:.3f} s "
                     f"less {nested} nested spans x {cost * 1e6:.2f} us) / pooled "
                     f"{pooled_is_s:.3f} s = {values['smallball.pool_speedup']:.2f}x")
    lines.append(f"traced wall {traced_wall:.3f} s vs untraced {untraced:.3f} s (median of "
                 f"{len(walls)}): overhead {traced_wall - untraced:+.3f} s, {len(spans)} spans")
    lines.append("self time by layer: " + ", ".join(
        f"{k} {v:.3f}" for k, v in acc.items() if k not in ("remainder", "off_main_thread"))
        + f"; remainder (outside any span) {acc['remainder']:.3f} s"
        + (f"; on helper threads {acc['off_main_thread']:.3f} s (overlaps smallball waits)"
           if acc["off_main_thread"] else ""))
    lines.append("traced operations: " + ", ".join(f"{o.name} {o.seconds:.3f} s" for o in rep))
    lines.extend(_reconcile(values))
    return {"values": values, "tally": tally, "lines": lines, "spans": tracer.to_records()}


def _has_ancestor(spans, span, index: int) -> bool:
    parent = span.parent
    while parent is not None:
        if parent == index:
            return True
        parent = spans[parent].parent
    return False


def _reconcile(v: dict) -> list[str]:
    """Traced figures in the units of the baseline table the toolkit's roadmap keeps."""
    out = []
    if v["simulate.stable_ns_per_variate"]:
        out.append(f"CMS draws: {v['simulate.stable_ns_per_variate']:.1f} ns/variate")
    if v["simulate.sup_ns_per_path_step"]:
        out.append(f"sup: {v['simulate.sup_ns_per_path_step'] * 2000 * 2048 / 1e6:.1f} ms per "
                   f"2000x2048 batch ({v['simulate.sup_calls']} calls)")
    if v["simulate.jump_records"]:
        out.append(f"jump samplers: {v['simulate.ns_per_jump']:.1f} ns/jump record, "
                   f"{v['simulate.jumps_per_path']:.0f} jumps/path")
    return out


def _emit_metrics(spec: dict, values: dict, trace: bool, prefix: str = "") -> dict:
    listed = spec["per_layer" if trace else "end_to_end"]
    for key in sorted(set(values) - {m["name"] for m in listed}):
        print(f"note: metric {key} is not listed in BENCHMARK.json", file=sys.stderr)
    out = {}
    for m in listed:
        value = values.get(m["name"])
        if value is None and m["name"].startswith("diagnostics."):
            value = 0.0  # selftest checks, only run by the selftest workload
        if value is None:
            raise RuntimeError(f"metric {m['name']} was not computed")
        out[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure for about this long (whole workload runs, at least two)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "stable_smallball" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no stable_smallball source under {SRC} or no {spec_path.name}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stable_smallball
    import workloads

    if Path(stable_smallball.__file__).resolve().parent != SRC / "stable_smallball":
        print(f"error: imported stable_smallball from {stable_smallball.__file__}",
              file=sys.stderr)
        return 2

    if args.probe_setup:
        ctx = workloads.setup(workloads.WORKLOADS[args.workload], args.seed, OUT)
        print("ready", flush=True)
        workloads.teardown(ctx)
        return 0

    spec = json.loads(spec_path.read_text())
    names = NAMES if args.workload == "all" else (args.workload,)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"provenance-{tag}.json").write_text(
        json.dumps(provenance(args, names), indent=2) + "\n")

    metrics, attempted, failed, spans = {}, 0, 0, {}
    for name in names:
        res = (measure_traced if args.trace else measure)(name, args)
        tally = res["tally"]
        attempted += len(tally.outcomes)
        failed += tally.failed
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update(_emit_metrics(spec, res["values"], bool(args.trace), prefix))
        for line in res["lines"]:
            print(f"[{name}] {line}")
        print(f"[{name}] fail_share   {tally.failed / len(tally.outcomes):.4f}  "
              f"({tally.failed} failed / {len(tally.outcomes)} attempted operations)")
        shown = {}  # per operation: its first failure, else its last run
        for o in tally.outcomes:
            if shown.get(o.name) is None or shown[o.name].ok:
                shown[o.name] = o
        for o in shown.values():
            print(f"[{name}] {'ok  ' if o.ok else 'FAIL'} {o.name}: {o.detail}")
        if res["spans"] is not None:
            spans[name] = res["spans"]
    if spans:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
