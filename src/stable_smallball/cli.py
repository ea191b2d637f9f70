"""Command-line interface: reproducible, config-driven experiment runs.

Every setting is declared once, in ``OPTIONS`` (type, default, help), and each
subcommand in ``_COMMANDS`` lists the settings it reads plus any default it
overrides; every subcommand also takes ``out``.  The parser's flags, the
config-file keys and the resolved defaults are all built from these two
tables, so a subcommand offers exactly the settings it reads.  Layered
settings resolution, lowest priority first: built-in defaults, the
``[common]`` section of the config file, the subcommand's own section, then
explicit command-line flags.  ``[common]`` may set any key of ``COMMON``; each
is applied only to a subcommand that takes it.  The ``STABLE_SMALLBALL_OUT``
environment variable overrides the output directory and nothing else.  Every
run writes ``run_config.json`` (the fully resolved settings) next to its
artifacts, and JSON artifacts embed the same record under a ``config`` key.
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
from typing import Callable, NamedTuple

import numpy as np

from . import constants, lil, processes, simulate, smallball


class Option(NamedTuple):
    type: type
    default: object
    help: str
    choices: tuple | None = None


OPTIONS = {
    "alpha": Option(float, 1.5, "stability index in (1, 2)"),
    "seed": Option(int, 0, "master RNG seed, nonnegative"),
    "workers": Option(int, 1, "process-pool size; 1 = run in-process"),
    "n": Option(int, 1000, "number of sample paths"),
    "steps": Option(int, 2048, "time-grid steps on [0,1]"),
    "out": Option(str, ".", "output directory"),
    "sampler": Option(str, "jumps", "path sampler", ("jumps", "increments")),
    "eps": Option(float, None, "jump-resolution cutoff for the jumps sampler"),
    "r": Option(str, "1.0", "ball radius; comma list sweeps"),
    "c": Option(float, None, "middle-regime coupling c = shift_scale r^(alpha-1)"),
    "lam": Option(float, None, "direct shift scale (small regime)"),
    "shift": Option(str, None, "JSON knot file [[t, value], ...]"),
    "csv": Option(bool, False, "also write a CSV table"),
    "x": Option(str, "5,10,20,40", "comma list of levels"),
    "grid": Option(int, 1024, "spectral grid size"),
    "mc_n": Option(int, 0, "Monte Carlo paths for the fitted constant; 0 skips it"),
    "mc_r": Option(str, "0.6,0.8,1.0,1.2", "comma list of radii for the Monte Carlo fit"),
    "kind": Option(str, "lower", "horizon grid", ("lower", "upper")),
    "k_min": Option(int, 21, "first grid index"),
    "k_max": Option(int, 60, "last grid index"),
    "gamma": Option(float, None, "upper-grid exponent, log T_k = k^gamma"),
    "k": Option(str, "1000000", "comma list of indices"),
    "delta": Option(float, 0.5, "loglog exponent delta in [0, 1]"),
    "log_power": Option(float, None, "exponent of log t in the scaling function"),
    "loglog_power": Option(float, 0.0, "exponent of log log t in the scaling function"),
    "full": Option(bool, False, "acceptance-scale sample sizes"),
}
COMMON = ("alpha", "seed", "workers", "n", "steps", "out")  # the keys [common] may set


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
    return json.dumps(obj, default=_json_default, allow_nan=False, **kwargs)


def _coerce(key: str, raw: str, typ):
    try:
        if typ is not bool:
            return typ(raw)
        value = configparser.ConfigParser.BOOLEAN_STATES.get(raw.strip().lower())
        if value is None:
            raise ValueError(f"not a boolean: {raw!r}")
        return value
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': {exc}") from None


def _options(sub_name: str) -> dict:
    """The settings the subcommand reads, then ``out``, overrides applied."""
    command = _COMMANDS[sub_name]
    return {key: OPTIONS[key]._replace(**command.overrides.get(key, {}))
            for key in command.keys + ("out",)}


def _load_config(path: str, sub_name: str) -> dict:
    """Merge [common] and the subcommand section of an INI-style file; a
    [common] key the subcommand does not take is skipped."""
    parser = configparser.ConfigParser(interpolation=None)
    if not parser.read(path):
        raise ConfigError(f"config file not found: {path}")
    merged: dict = {}
    options = _options(sub_name)
    common = {key: OPTIONS[key] for key in COMMON}  # [common] keeps the shared types
    for section, allowed in (("common", common), (sub_name, options)):
        if not parser.has_section(section):
            continue
        for key, raw in parser.items(section):
            if key not in allowed:
                raise ConfigError(f"unknown config key '{key}' in section [{section}]")
            if key not in options:
                continue
            opt = allowed[key]
            merged[key] = _coerce(key, raw, opt.type)
            if opt.choices and merged[key] not in opt.choices:
                raise ConfigError(f"config key '{key}': invalid choice {merged[key]!r} "
                                  f"(choose from {', '.join(map(repr, opt.choices))})")
    for section in parser.sections():
        if section not in ("common", sub_name) and section not in _COMMANDS:
            raise ConfigError(f"unknown config section [{section}]")
    return merged


def _resolve(args: argparse.Namespace, sub_name: str) -> dict:
    """defaults < config [common] < config [subcommand] < explicit flags."""
    options = _options(sub_name)
    cfg = {key: opt.default for key, opt in options.items()}
    if args.config:
        cfg.update(_load_config(args.config, sub_name))
    flags = {key: getattr(args, key) for key in options}
    cfg.update({key: val for key, val in flags.items() if val is not None})
    if "workers" in cfg and cfg["workers"] < 1:
        raise ConfigError(f"config key 'workers': must be at least 1, got {cfg['workers']}")
    if "seed" in cfg and cfg["seed"] < 0:
        raise ConfigError(f"config key 'seed': must be nonnegative, got {cfg['seed']}")
    cfg["out"] = os.environ.get("STABLE_SMALLBALL_OUT") or cfg["out"]
    cfg["subcommand"] = sub_name
    return cfg


def _split(text: str, key: str, typ=float) -> list:
    """A comma list of ``typ`` values; a bad token or no value is a config error."""
    values = [_coerce(key, tok, typ) for tok in str(text).split(",") if tok.strip()]
    if not values:
        raise ConfigError(f"config key '{key}': empty list")
    return values


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
    text = _dumps(cfg, indent=2, sort_keys=True) + "\n"  # before mkdir: a bad value leaves no dir
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "run_config.json").write_text(text)
    return out


def _emit(cfg: dict, records: list[dict], name: str, sweep: bool = False) -> None:
    """Write records as JSON (one, not of a sweep) or line-delimited JSON, echo to stdout.

    Every record is serialised before any file is written, so a record that
    cannot be dumped leaves no artifact behind."""
    for rec in records:
        rec["config"] = cfg
    if len(records) == 1 and not sweep:
        fname, text = f"{name}.json", _dumps(records[0], indent=2, sort_keys=True) + "\n"
    else:
        fname, text = f"{name}.jsonl", "".join(_dumps(r, sort_keys=True) + "\n" for r in records)
    (_write_run_config(cfg) / fname).write_text(text)
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
    else:
        batch = simulate.sample_jump_batch(params, cfg["eps"], cfg["n"], cfg["steps"], rng)
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
            r_list = _split(cfg["r"], "r")
            if len(r_list) != 1:
                raise ConfigError(f"config key 'r': anderson takes one radius, got {cfg['r']!r}")
            r = r_list[0]
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
            x_list = _split(cfg["x"], "x")
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
        for i, r in enumerate(_split(cfg["r"], "r")):
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
    alphas, records = _split(cfg["alpha"], "alpha"), []
    try:
        with _pmap(cfg) as pmap:
            for i, alpha in enumerate(alphas):
                spectral = constants.smallball_constant_spectral(alpha, n_grid=cfg["grid"])
                mc = None if cfg["mc_n"] <= 0 else constants.smallball_constant_mc(
                    alpha, r_list=_split(cfg["mc_r"], "mc_r"), n_paths=cfg["mc_n"],
                    n_steps=cfg["steps"], rng=rng.child(i), pmap=pmap)
                records.append({
                    "alpha": alpha, "c_alpha": constants.char_exponent_scale(alpha),
                    "K_spectral": spectral.value, "K_mc": None if mc is None else mc.value,
                    "C_alpha": constants.middle_shift_constant(alpha)})
    finally:
        if records:  # an alpha that fails leaves the finished ones written
            _emit(cfg, records, "constants", sweep=len(alphas) > 1)
    return 0


def cmd_lil(cfg: dict, mode: str) -> int:
    if mode == "integral-test":
        if cfg["log_power"] is None:
            raise ConfigError("config key 'log_power' is required for integral-test")
        res = lil.integral_test(cfg["log_power"], cfg["loglog_power"], cfg["alpha"])
        rec = {"alpha": cfg["alpha"], "log_power": cfg["log_power"],
               "loglog_power": cfg["loglog_power"],
               "classification": res.classification, "evidence": res.evidence}
        _emit(cfg, [rec], "integral_test")
        return 0
    if mode == "ratios":
        records = []
        for k in _split(cfg["k"], "k", int):
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
    from . import diagnostics
    results = diagnostics.run_selftest(full=cfg["full"])
    report = diagnostics.format_results(results)
    sys.stdout.write(report + "\n")
    out = _write_run_config(cfg)
    payload = [{"name": r.name, "passed": r.passed, "detail": r.detail,
                "seconds": r.seconds} for r in results]
    (out / "selftest.json").write_text(
        _dumps({"results": payload, "config": cfg}, indent=2, sort_keys=True) + "\n")
    return 0 if all(r.passed for r in results) else 1


class Command(NamedTuple):
    run: Callable[..., int]
    keys: tuple
    overrides: dict = {}


_DRAW = ("alpha", "seed", "workers", "n", "steps")  # what every smallball leaf reads
_COMMANDS = {
    "simulate": Command(cmd_simulate, ("alpha", "seed", "n", "steps", "sampler", "eps"),
                        {"eps": {"default": 0.02}}),
    "smallball.crude": Command(cmd_smallball, _DRAW + ("r", "c", "lam", "shift", "sampler",
                                                       "eps", "csv")),
    "smallball.is": Command(cmd_smallball, _DRAW + ("r", "c", "shift", "eps", "csv")),
    "smallball.anderson": Command(cmd_smallball, _DRAW + ("r", "eps")),
    "smallball.tail": Command(cmd_smallball, _DRAW + ("x", "csv")),
    "constants": Command(cmd_constants, ("alpha", "seed", "workers", "steps", "grid", "mc_n",
                                         "mc_r"), {"alpha": {
        "type": str, "help": "stability index in (1, 2); comma list allowed"}}),
    "lil.grid": Command(cmd_lil, ("kind", "k_min", "k_max", "gamma")),
    "lil.ratios": Command(cmd_lil, ("alpha", "k", "delta", "kind", "gamma")),
    # the scaled distance needs log log T > 1, i.e. k(log k)^-3 > e on the lower grid
    "lil.distance-sweep": Command(cmd_lil, ("alpha", "seed", "steps", "kind", "k_min",
                                            "k_max", "gamma", "delta", "shift"),
                                  {"k_min": {"default": 1000}, "k_max": {"default": 1050}}),
    "lil.integral-test": Command(cmd_lil, ("alpha", "log_power", "loglog_power")),
    "selftest": Command(cmd_selftest, ("full",)),
}
_HELP = {
    "simulate": "sample paths and dump CSV",
    "smallball": "shifted small-ball estimators",
    "constants": "numeric constants per alpha",
    "lil": "iterated-logarithm harness",
    "selftest": "run the invariant battery",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stable-smallball",
        description="Small-deviation toolkit for symmetric alpha-stable paths")
    top = parser.add_subparsers(dest="cmd", required=True)
    groups = {}
    for sub_name in _COMMANDS:
        cmd, _, leaf = sub_name.partition(".")
        if cmd not in groups:
            sp = top.add_parser(cmd, help=_HELP[cmd])
            groups[cmd] = sp.add_subparsers(dest="sub", required=True) if leaf else None
        if leaf:
            sp = groups[cmd].add_parser(leaf)
        for key, opt in _options(sub_name).items():
            spec = ({"action": "store_true"} if opt.type is bool
                    else {"type": opt.type, "choices": opt.choices})
            sp.add_argument("--" + key.replace("_", "-"), default=None, help=opt.help, **spec)
        sp.add_argument("--config", type=str, default=None,
                        help="INI config file ([common] plus per-subcommand sections)")
    return parser


def main(argv=None) -> int:
    """Run one subcommand; exit 0 ok, 1 check flagged, 2 usage or config, 3 unresolved."""
    args = build_parser().parse_args(argv)
    sub_name = args.cmd if getattr(args, "sub", None) is None else f"{args.cmd}.{args.sub}"
    _, *mode = sub_name.split(".")
    try:
        return _COMMANDS[sub_name].run(_resolve(args, sub_name), *mode)
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
