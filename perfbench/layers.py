"""Per-layer metrics computed from the spans of one traced run.

A layer is a package module.  "Self" time is a span's duration minus the
durations of its child spans; child spans always nest inside their parent,
because each thread keeps its own span stack.  Busy times (``*_s`` that are
not ``self_s``) sum spans on every thread; the ``<layer>.self_s`` accounting
uses the main thread only, since spans on helper threads overlap the main
thread's waiting time.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("simulate", "girsanov", "smallball", "constants", "lil", "diagnostics", "cli",
          "processes")
SAMPLERS = ("simulate.sample_stable_batch", "simulate.sample_jump_batch",
            "simulate.sample_tilted_batch", "simulate.sample_time_changed_batch")
MB = float(1 << 20)


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_accounting(spans, main_thread: int, traced_wall: float) -> dict:
    """Main-thread self seconds per layer, plus what no span covers."""
    own = self_times(spans)
    acc = dict.fromkeys(LAYERS, 0.0)
    for s, sec in zip(spans, own):
        if s.thread == main_thread:
            acc[s.name.split(".", 1)[0]] += sec
    acc["remainder"] = traced_wall - sum(acc.values())
    acc["off_main_thread"] = sum(s.seconds for s in spans
                                 if s.thread != main_thread and s.parent is None)
    return acc


def layer_metrics(spans, main_thread: int, traced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics by ``BENCHMARK.json`` name, and the layer accounting."""
    by_name = defaultdict(list)
    own = self_times(spans)
    own_by_name = defaultdict(float)
    for s, sec in zip(spans, own):
        by_name[s.name].append(s)
        own_by_name[s.name] += sec

    def busy(name):
        return sum(s.seconds for s in by_name[name])

    def mean(name):
        return _ratio(busy(name), len(by_name[name]))

    def info_sum(names, key):
        return sum(s.info.get(key, 0) for n in names for s in by_name[n])

    m = {}
    variates = info_sum(["simulate.standard_symmetric_stable"], "variates")
    m["simulate.stable_draw_s"] = busy("simulate.standard_symmetric_stable")
    m["simulate.stable_ns_per_variate"] = _ratio(m["simulate.stable_draw_s"], variates, 1e9)
    m["simulate.stable_assemble_s"] = own_by_name["simulate.sample_stable_batch"]
    m["simulate.jump_batch_s"] = busy("simulate.sample_jump_batch")
    m["simulate.tilted_batch_s"] = own_by_name["simulate.sample_tilted_batch"]
    batches = [s for n in SAMPLERS for s in by_name[n]]
    jump_batches = [s for s in batches if s.info["jump_resolved"]]
    jumps = sum(s.info["jumps"] for s in jump_batches)
    m["simulate.ns_per_jump"] = _ratio(m["simulate.jump_batch_s"] + m["simulate.tilted_batch_s"],
                                       jumps, 1e9)
    m["simulate.sup_s"] = busy("simulate.sup_distance_batch")
    m["simulate.sup_ns_per_path_step"] = _ratio(
        m["simulate.sup_s"], info_sum(["simulate.sup_distance_batch"], "path_steps"), 1e9)
    m["simulate.sampler_calls"] = len(batches)
    m["simulate.sup_calls"] = len(by_name["simulate.sup_distance_batch"])
    m["simulate.paths"] = sum(s.info["paths"] for s in batches)
    m["simulate.path_steps"] = sum(s.info["paths"] * s.info["steps"] for s in batches)
    m["simulate.jump_records"] = jumps
    m["simulate.jumps_per_path"] = _ratio(jumps, sum(s.info["paths"] for s in jump_batches))
    m["simulate.peak_batch_mb"] = max((s.info["bytes"] for s in batches), default=0) / MB

    m["girsanov.log_weight_s"] = busy("girsanov.log_weight_batch")
    m["girsanov.log_weight_calls"] = len(by_name["girsanov.log_weight_batch"])
    m["girsanov.exponent_s"] = busy("girsanov.deterministic_exponent")

    m["smallball.anderson_s"] = mean("smallball.anderson_report")
    m["smallball.is_s"] = mean("smallball.estimate_is")
    m["smallball.crude_s"] = mean("smallball.estimate_crude")
    hit_names = ["smallball.anderson_report", "smallball.estimate_crude",
                 "smallball.estimate_given_no_big_jumps"]
    m["smallball.hit_frac"] = _ratio(info_sum(hit_names, "hits"), info_sum(hit_names, "attempts"))
    m["smallball.is_ess"] = _ratio(info_sum(["smallball.estimate_is"], "ess"),
                                   len(by_name["smallball.estimate_is"]))

    m["constants.eigen_s"] = busy("constants.dirichlet_eigenvalue")
    m["constants.eigen_calls"] = len(by_name["constants.dirichlet_eigenvalue"])
    m["constants.matrix_n_max"] = max(
        (s.info["matrix_n"] for s in by_name["constants.dirichlet_eigenvalue"]), default=0)
    m["constants.spectral_self_s"] = own_by_name["constants.smallball_constant_spectral"]
    m["constants.mc_fit_self_s"] = own_by_name["constants.smallball_constant_mc"]
    m["constants.c_alpha_s"] = busy("constants.char_exponent_scale")
    m["constants.c_alpha_calls"] = len(by_name["constants.char_exponent_scale"])

    m["lil.split_s"] = busy("lil.split_at")
    m["lil.sweep_s"] = sum(
        s.seconds for s in spans
        if s.name.startswith("lil.") and s.name != "lil.split_at"
        and (s.parent is None or not spans[s.parent].name.startswith("lil.")))
    m["cli.self_s"] = busy("cli.main") - busy("diagnostics.run_selftest")

    acc = layer_accounting(spans, main_thread, traced_wall)
    for layer in ("simulate", "girsanov", "constants", "lil", "diagnostics"):
        m[f"{layer}.self_s"] = acc[layer]
    m["smallball.driver_self_s"] = acc["smallball"]  # planning, job lists, reductions
    m["trace.remainder_s"] = acc["remainder"]
    m["trace.spans"] = len(spans)
    return m, acc
