"""Command-line interface: reproducible, config-driven experiment runs.

Layered settings resolution, lowest priority first: built-in defaults, the
``[common]`` section of the config file, the subcommand's own section, then
explicit command-line flags.  The ``STABLE_SMALLBALL_OUT`` environment
variable overrides the output directory and nothing else.  Every run writes
``run_config.json`` (the fully resolved settings) next to its artifacts, and
JSON artifacts embed the same record under a ``config`` key.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import constants, diagnostics, lil, processes, simulate, smallball

_COMMON_KEYS = {
    "alpha": float, "seed": int, "workers": int, "n": int, "steps": int, "out": str,
}
_SUB_KEYS = {
    "simulate": {"sampler": str, "eps": float},
    "smallball.crude": {"r": str, "c": float, "lam": float, "shift": str,
                        "sampler": str, "eps": float, "csv": bool},
    "smallball.is": {"r": str, "c": float, "shift": str, "eps": float, "csv": bool},
    "smallball.anderson": {"r": str, "eps": float},
    "smallball.tail": {"x": str, "csv": bool},
    "constants": {"alpha": str, "grid": int, "mc_n": int, "mc_r": str},
    "lil.grid": {"kind": str, "k_min": int, "k_max": int, "gamma": float},
    "lil.ratios": {"k": str, "delta": float, "kind": str, "gamma": float},
    "lil.distance-sweep": {"kind": str, "k_min": int, "k_max": int, "gamma": float,
                           "delta": float, "shift": str},
    "lil.integral-test": {"log_power": float, "loglog_power": float},
    "selftest": {"full": bool},
}
_DEFAULTS = {
    "alpha": 1.5, "seed": 0, "workers": 1, "n": 1000, "steps": 2048, "out": ".",
    "sampler": "jumps", "eps": None, "r": "1.0", "c": None, "lam": None,
    "shift": None, "csv": False, "x": "5,10,20,40", "grid": 1024, "mc_n": 0,
    "mc_r": "0.6,0.8,1.0,1.2", "kind": "lower", "k_min": 21, "k_max": 60,
    "gamma": None, "k": "1000000", "delta": 0.5, "log_power": None,
    "loglog_power": 0.0, "full": False,
}
# the scaled distance needs log log T > 1, i.e. k(log k)^-3 > e on the lower grid
_SUB_DEFAULTS = {"lil.distance-sweep": {"k_min": 1000, "k_max": 1050}}


class ConfigError(Exception):
    pass


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _dumps(obj, **kwargs) -> str:
    return json.dumps(obj, default=_json_default, **kwargs)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _coerce(key: str, raw: str, typ):
    try:
        if typ is bool:
            return _parse_bool(raw)
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': {exc}") from None


def _load_config(path: str, sub_name: str) -> dict:
    """Merge [common] and the subcommand section of an INI-style file."""
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    allowed = dict(_COMMON_KEYS)
    allowed.update(_SUB_KEYS.get(sub_name, {}))
    merged: dict = {}
    for section in ("common", sub_name):
        if not parser.has_section(section):
            continue
        keys = _COMMON_KEYS if section == "common" else allowed
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError(f"unknown config key '{key}' in section [{section}]")
            merged[key] = _coerce(key, raw, keys[key])
    for section in parser.sections():
        if section not in ("common", sub_name) and section not in _SUB_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
    return merged


def _resolve(args: argparse.Namespace, sub_name: str) -> dict:
    """defaults < config [common] < config [subcommand] < explicit flags."""
    keys = set(_COMMON_KEYS) | set(_SUB_KEYS.get(sub_name, {}))
    cfg = dict.fromkeys(keys)
    for key in keys:
        if key in _DEFAULTS:
            cfg[key] = _DEFAULTS[key]
    cfg.update(_SUB_DEFAULTS.get(sub_name, {}))
    if getattr(args, "config", None):
        cfg.update(_load_config(args.config, sub_name))
    for key in keys:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    if cfg["workers"] < 1:
        raise ConfigError(f"config key 'workers': must be at least 1, got {cfg['workers']}")
    env_out = os.environ.get("STABLE_SMALLBALL_OUT")
    if env_out:
        cfg["out"] = env_out
    cfg["subcommand"] = sub_name
    return cfg


def _float_list(text: str, key: str) -> list[float]:
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': {exc}") from None


def _int_list(text: str, key: str) -> list[int]:
    try:
        return [int(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': {exc}") from None


def _load_shift(path: str | None) -> processes.ShiftFunction:
    if path is None:
        return processes.zero_shift()
    try:
        return processes.ShiftFunction.from_json(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config key 'shift': file not found: {path}") from None
    except (json.JSONDecodeError, ValueError, TypeError, IndexError) as exc:
        raise ConfigError(f"config key 'shift': bad knot file: {exc}") from None


def _write_run_config(cfg: dict) -> Path:
    """Write the resolved settings to ``run_config.json``; return the output directory."""
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "run_config.json").write_text(_dumps(cfg, indent=2, sort_keys=True) + "\n")
    return out


def _emit(cfg: dict, records: list[dict], name: str) -> None:
    """Write records as JSON (one) or line-delimited JSON (sweep), echo to stdout."""
    out = _write_run_config(cfg)
    for rec in records:
        rec["config"] = cfg
    if len(records) == 1:
        text = _dumps(records[0], indent=2, sort_keys=True) + "\n"
        (out / f"{name}.json").write_text(text)
    else:
        text = "".join(_dumps(r, sort_keys=True) + "\n" for r in records)
        (out / f"{name}.jsonl").write_text(text)
    sys.stdout.write(text)


def _write_csv(cfg: dict, name: str, header: str, rows: np.ndarray) -> Path:
    target = _write_run_config(cfg) / name
    np.savetxt(target, np.atleast_2d(rows), fmt="%.17g", delimiter=",",
               header=header, comments="")
    return target


@contextmanager
def _pmap(cfg: dict):
    """Yield the batch map: a process pool's for ``workers > 1``, else the builtin."""
    if cfg["workers"] > 1:
        with ProcessPoolExecutor(max_workers=cfg["workers"]) as pool:
            yield pool.map
    else:
        yield map


def _estimate_record(query: smallball.SmallBallQuery, est: processes.Estimate) -> dict:
    return {
        "query": {
            "alpha": query.params.alpha, "r": query.r,
            "shift_scale": query.shift_scale, "c": query.c,
            "regime": query.regime_tag,
            "shift_knots": json.loads(query.f.to_json()),
        },
        "estimate": est.value, "stderr": est.stderr, "ci95": list(est.ci95),
        "n": est.n, "ess": est.ess, "flags": list(est.flags),
    }


def _make_query(cfg: dict, r: float) -> smallball.SmallBallQuery:
    params = processes.AlphaStableParams(cfg["alpha"])
    f = _load_shift(cfg.get("shift"))
    if cfg.get("c") is not None and cfg.get("lam") is not None:
        raise ConfigError("config key 'lam': give either 'c' or 'lam', not both")
    if cfg.get("c") is not None:
        return smallball.SmallBallQuery.middle(params, f, cfg["c"], r)
    if cfg.get("lam") is not None:
        return smallball.SmallBallQuery(params=params, f=f, shift_scale=cfg["lam"],
                                        r=r, regime_tag="small")
    return smallball.SmallBallQuery(params=params, f=f, shift_scale=0.0, r=r,
                                    regime_tag="middle")


def cmd_simulate(cfg: dict) -> int:
    params = processes.AlphaStableParams(cfg["alpha"])
    rng = simulate.RngStream(cfg["seed"])
    if cfg["sampler"] == "increments":
        batch = simulate.sample_stable_batch(params, cfg["n"], cfg["steps"], rng)
    elif cfg["sampler"] == "jumps":
        eps = cfg["eps"] if cfg["eps"] is not None else 0.02
        batch = simulate.sample_jump_batch(params, eps, cfg["n"], cfg["steps"], rng)
    else:
        raise ConfigError(f"config key 'sampler': unknown sampler {cfg['sampler']!r}")
    out = _write_run_config(cfg)
    for i in range(cfg["n"]):
        tag = "" if cfg["n"] == 1 else f"_{i:04d}"
        path = batch.extract(i)
        jumps_target = out / f"jumps{tag}.csv" if path.jump_times is not None else None
        simulate.write_path_csv(path, out / f"path{tag}.csv", jumps_target)
    sys.stdout.write(f"wrote {cfg['n']} path file(s) under {out}\n")
    return 0


def cmd_smallball(cfg: dict, mode: str) -> int:
    rng = simulate.RngStream(cfg["seed"])
    with _pmap(cfg) as pmap:
        if mode == "anderson":
            params = processes.AlphaStableParams(cfg["alpha"])
            r = _float_list(cfg["r"], "r")[0]
            rep = smallball.anderson_report(params, r, cfg["n"], rng=rng,
                                            n_steps=cfg["steps"], pmap=pmap,
                                            eps_cutoff=cfg["eps"])
            rows = [{"label": row.label, "shift_scale": row.shift_scale,
                     "p_hat": row.p_hat, "stderr": row.stderr, "flagged": row.flagged}
                    for row in (rep.baseline, *rep.rows)]
            rec = {"alpha": rep.alpha, "r": rep.r, "n": rep.n_paths,
                   "n_flagged": rep.n_flagged, "rows": rows}
            _emit(cfg, [rec], "anderson")
            return 0 if rep.n_flagged == 0 else 1
        if mode == "tail":
            x_list = _float_list(cfg["x"], "x")
            rep = smallball.tail_prob_check(cfg["alpha"], x_list, cfg["n"], rng=rng,
                                            n_steps=cfg["steps"], pmap=pmap)
            rec = {"alpha": cfg["alpha"], "x": list(rep.x_list),
                   "p_hat": list(rep.p_hat), "stderr": list(rep.stderr),
                   "slope": rep.slope, "slope_stderr": rep.slope_stderr,
                   "k_hat": rep.k_hat, "k_ratio": rep.k_ratio,
                   "monotone_within_2se": rep.monotone_within_2se, "n": rep.n_paths}
            _emit(cfg, [rec], "tail")
            if cfg["csv"]:
                rows = np.column_stack([rep.x_list, rep.p_hat, rep.stderr])
                _write_csv(cfg, "tail.csv", "x,p_hat,stderr", rows)
            return 0
        records = []
        for i, r in enumerate(_float_list(cfg["r"], "r")):
            query = _make_query(cfg, r)
            child = rng.child(i)
            if mode == "crude":
                est = smallball.estimate_crude(query, cfg["n"], n_steps=cfg["steps"],
                                               rng=child, pmap=pmap,
                                               sampler=cfg["sampler"],
                                               eps_cutoff=cfg["eps"])
            else:
                est = smallball.estimate_is(query, cfg["n"], n_steps=cfg["steps"],
                                            rng=child, pmap=pmap, eps_cutoff=cfg["eps"])
            records.append(_estimate_record(query, est))
        _emit(cfg, records, mode)
        if cfg["csv"] and len(records) > 1:
            rows = np.array([[rec["query"]["r"], rec["estimate"], rec["stderr"]]
                             for rec in records])
            _write_csv(cfg, f"{mode}_sweep.csv", "r,estimate,stderr", rows)
        return 0


def cmd_constants(cfg: dict) -> int:
    rng = simulate.RngStream(cfg["seed"])
    with _pmap(cfg) as pmap:
        records = []
        for i, alpha in enumerate(_float_list(cfg["alpha"], "alpha")):
            spectral = constants.smallball_constant_spectral(alpha, n_grid=cfg["grid"])
            if cfg["mc_n"] > 0:
                mc = constants.smallball_constant_mc(
                    alpha, r_list=_float_list(cfg["mc_r"], "mc_r"),
                    n_paths=cfg["mc_n"], n_steps=cfg["steps"], rng=rng.child(i),
                    pmap=pmap)
                k_mc = mc.value
            else:
                k_mc = None
            records.append({
                "alpha": alpha,
                "c_alpha": constants.char_exponent_scale(alpha),
                "K_spectral": spectral.value,
                "K_mc": k_mc,
                "C_alpha": constants.middle_shift_constant(alpha),
            })
        _emit(cfg, records, "constants")
        return 0


def cmd_lil(cfg: dict, mode: str) -> int:
    if mode == "integral-test":
        if cfg["log_power"] is None:
            raise ConfigError("config key 'log_power' is required for integral-test")
        h = processes.power_loglog_scaling(cfg["log_power"], cfg["loglog_power"])
        res = lil.integral_test(h, cfg["alpha"])
        rec = {"alpha": cfg["alpha"], "log_power": cfg["log_power"],
               "loglog_power": cfg["loglog_power"],
               "classification": res.classification, "method": res.method,
               "evidence": res.evidence}
        _emit(cfg, [rec], "integral_test")
        return 0
    if mode == "ratios":
        records = []
        for k in _int_list(cfg["k"], "k"):
            r1, r2, r3 = lil.grid_gap_ratios(k, cfg["delta"], cfg["alpha"],
                                             kind=cfg["kind"], gamma=cfg["gamma"])
            records.append({"k": k, "delta": cfg["delta"], "alpha": cfg["alpha"],
                            "kind": cfg["kind"], "r1": r1, "r2": r2, "r3": r3})
        _emit(cfg, records, "ratios")
        return 0
    spec = lil.GridSpec(kind=cfg["kind"], k_min=cfg["k_min"], k_max=cfg["k_max"],
                        gamma=cfg["gamma"])
    if mode == "grid":
        rows = np.column_stack([spec.k_values(), spec.log_times()])
        target = _write_csv(cfg, "grid.csv", "k,logT", rows)
        sys.stdout.write(f"wrote {target}\n")
        return 0
    # distance sweep: one fresh unit-horizon path per grid point (marginal-law
    # diagnostic; the coupling across horizons is out of scope and labeled so)
    f = _load_shift(cfg.get("shift"))
    rng = simulate.RngStream(cfg["seed"])
    records = lil.sample_scaled_distances(spec, cfg["delta"], cfg["alpha"],
                                          None if f.is_zero else f,
                                          n_steps=cfg["steps"], rng=rng)
    trace = lil.running_min_trace(records)
    rows = np.array([[rec.k, rec.log_t, rec.delta, rec.distance, best]
                     for rec, best in trace])
    target = _write_csv(cfg, "distances.csv", "k,logT,delta,distance,running_min", rows)
    sys.stdout.write(f"note: {lil.DIAGNOSTIC_NOTE}\nwrote {target}\n")
    return 0


def cmd_selftest(cfg: dict) -> int:
    results = diagnostics.run_selftest(full=cfg["full"])
    report = diagnostics.format_results(results)
    sys.stdout.write(report + "\n")
    out = _write_run_config(cfg)
    payload = [{"name": r.name, "passed": r.passed, "detail": r.detail,
                "seconds": r.seconds} for r in results]
    (out / "selftest.json").write_text(
        _dumps({"results": payload, "config": cfg}, indent=2, sort_keys=True) + "\n")
    return 0 if all(r.passed for r in results) else 1


def _add_common(parser: argparse.ArgumentParser, alpha_as_list: bool = False) -> None:
    parser.add_argument("--alpha", type=str if alpha_as_list else float, default=None,
                        help="stability index in (1, 2)" +
                             ("; comma list allowed" if alpha_as_list else ""))
    parser.add_argument("--seed", type=int, default=None, help="master RNG seed")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool size; 1 = run in-process")
    parser.add_argument("--n", type=int, default=None, help="number of sample paths")
    parser.add_argument("--steps", type=int, default=None, help="time-grid steps on [0,1]")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--config", type=str, default=None,
                        help="INI config file ([common] plus per-subcommand sections)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stable-smallball",
        description="Small-deviation toolkit for symmetric alpha-stable paths")
    top = parser.add_subparsers(dest="cmd", required=True)

    p_sim = top.add_parser("simulate", help="sample paths and dump CSV")
    _add_common(p_sim)
    p_sim.add_argument("--sampler", choices=("increments", "jumps"), default=None)
    p_sim.add_argument("--eps", type=float, default=None,
                       help="jump-resolution cutoff for the jumps sampler")

    p_sb = top.add_parser("smallball", help="shifted small-ball estimators")
    sb = p_sb.add_subparsers(dest="sub", required=True)
    for name in ("crude", "is", "anderson", "tail"):
        sp = sb.add_parser(name)
        _add_common(sp)
        if name in ("crude", "is"):
            sp.add_argument("--r", type=str, default=None, help="ball radius; comma list sweeps")
            sp.add_argument("--c", type=float, default=None,
                            help="middle-regime coupling c = shift_scale r^(alpha-1)")
            sp.add_argument("--shift", type=str, default=None,
                            help="JSON knot file [[t, value], ...]")
            sp.add_argument("--eps", type=float, default=None)
            sp.add_argument("--csv", action="store_true", default=None,
                            help="also write a CSV sweep table")
        if name == "crude":
            sp.add_argument("--lam", type=float, default=None,
                            help="direct shift scale (small regime)")
            sp.add_argument("--sampler", choices=("jumps", "increments"), default=None)
        if name == "anderson":
            sp.add_argument("--r", type=str, default=None)
            sp.add_argument("--eps", type=float, default=None)
        if name == "tail":
            sp.add_argument("--x", type=str, default=None, help="comma list of levels")
            sp.add_argument("--csv", action="store_true", default=None)

    p_const = top.add_parser("constants", help="numeric constants per alpha")
    _add_common(p_const, alpha_as_list=True)
    p_const.add_argument("--grid", type=int, default=None, help="spectral grid size")
    p_const.add_argument("--mc-n", dest="mc_n", type=int, default=None,
                         help="Monte Carlo paths for the fitted constant; 0 skips it")
    p_const.add_argument("--mc-r", dest="mc_r", type=str, default=None,
                         help="comma list of radii for the Monte Carlo fit")

    p_lil = top.add_parser("lil", help="iterated-logarithm harness")
    ll = p_lil.add_subparsers(dest="sub", required=True)
    for name in ("grid", "ratios", "distance-sweep", "integral-test"):
        sp = ll.add_parser(name)
        _add_common(sp)
        if name in ("grid", "distance-sweep"):
            sp.add_argument("--kind", choices=("lower", "upper"), default=None)
            sp.add_argument("--k-min", dest="k_min", type=int, default=None)
            sp.add_argument("--k-max", dest="k_max", type=int, default=None)
            sp.add_argument("--gamma", type=float, default=None,
                            help="upper-grid exponent, log T_k = k^gamma")
        if name == "ratios":
            sp.add_argument("--k", type=str, default=None, help="comma list of indices")
            sp.add_argument("--kind", choices=("lower", "upper"), default=None)
            sp.add_argument("--gamma", type=float, default=None)
        if name in ("ratios", "distance-sweep"):
            sp.add_argument("--delta", type=float, default=None,
                            help="loglog exponent delta in [0, 1]")
        if name == "distance-sweep":
            sp.add_argument("--shift", type=str, default=None,
                            help="JSON knot file [[t, value], ...]")
        if name == "integral-test":
            sp.add_argument("--log-power", dest="log_power", type=float, default=None)
            sp.add_argument("--loglog-power", dest="loglog_power", type=float, default=None)

    p_self = top.add_parser("selftest", help="run the invariant battery")
    _add_common(p_self)
    p_self.add_argument("--full", action="store_true", default=None,
                        help="acceptance-scale sample sizes")
    return parser


def main(argv=None) -> int:
    """Run one subcommand; exit 0 ok, 1 check flagged, 2 usage or config, 3 unresolved."""
    args = build_parser().parse_args(argv)
    sub_name = args.cmd if getattr(args, "sub", None) is None else f"{args.cmd}.{args.sub}"
    try:
        cfg = _resolve(args, sub_name)
        if cfg.get("alpha") is not None and sub_name != "constants":
            cfg["alpha"] = float(cfg["alpha"])
        if args.cmd == "simulate":
            return cmd_simulate(cfg)
        if args.cmd == "smallball":
            return cmd_smallball(cfg, args.sub)
        if args.cmd == "constants":
            return cmd_constants(cfg)
        if args.cmd == "lil":
            return cmd_lil(cfg, args.sub)
        return cmd_selftest(cfg)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except (ValueError, OverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RuntimeError as exc:  # numerically unresolved at these settings
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
