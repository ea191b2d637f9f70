"""End-to-end checks of the command-line interface and its artifacts."""

import contextlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import stable_smallball
from stable_smallball import DIAGNOSTIC_NOTE, GridSpec, diagnostics, grid_gap_ratios
from stable_smallball import cli
from stable_smallball.cli import COMMON, _options, _resolve, build_parser, main
from stable_smallball.simulate import batch_plan

SCRIPT = "stable-smallball"
SUBCOMMANDS = ("simulate", "smallball", "constants", "lil", "selftest")
LEAVES = ("simulate", "smallball.crude", "smallball.is", "smallball.anderson",
          "smallball.tail", "constants", "lil.grid", "lil.ratios", "lil.distance-sweep",
          "lil.integral-test", "selftest")
CONFIG_LAYERS = ("common", "section", "flag")  # lowest priority first, above the defaults


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("STABLE_SMALLBALL_OUT", raising=False)


def _read_json(path):
    return json.loads(path.read_text())


def _read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _records_without_run_specifics(path):
    """Result records of an artifact, with the workers and out settings dropped."""
    recs = _read_jsonl(path) if path.suffix == ".jsonl" else [_read_json(path)]
    for rec in recs:
        cfg = rec["config"]
        cfg.pop("workers"), cfg.pop("out")
    return recs


MC_FIT = "constants --alpha 1.5 --grid 64 --mc-n 400 --steps 64"
RADII = "error: radii, each positive, finite and distinct"
RECORDS = "error: expected jump records per path exceed"
KEY = "config error: config key"
UNKNOWN_KEY = "config error: unknown config key"


@pytest.mark.parametrize("argv, ini, code, line", [
    ("lil integral-test --log-power nan", None, 2, "error: powers must be finite"),
    ("lil integral-test --log-power 1 --loglog-power inf", None, 2,
     "error: powers must be finite"),
    ("lil integral-test --log-power 1 --alpha 5", None, 2, "error: alpha must lie"),
    ("lil ratios --alpha 5", None, 2, "error: alpha must lie"),
    ("lil ratios --kind upper --gamma nan --k 5", None, 2, "error: gamma > 1"),
    ("lil grid --kind upper --gamma nan", None, 2, "error: gamma > 1"),
    ("lil grid --kind upper --gamma inf", None, 2, "error: gamma > 1"),
    ("smallball crude --c nan", None, 2, "error: c must be nonnegative and finite"),
    ("smallball crude --lam nan", None, 2,
     "error: shift_scale must be nonnegative and finite"),
    ("smallball crude --r inf", None, 2, "error: r must be positive and finite"),
    ("smallball crude --r nan", None, 2, "error: r must be positive and finite"),
    ("smallball is --r nan --c 0.2", None, 2, "error: r must be positive and finite"),
    ("simulate --eps nan", None, 2, "error: eps_cutoff must be positive and finite"),
    (f"{MC_FIT} --mc-r inf,1.5,2.0", None, 2, RADII),
    (f"{MC_FIT} --mc-r nan,1.5,2.0", None, 2, RADII),
    (f"{MC_FIT} --mc-r=-1,1.5,2.0", None, 2, RADII),
    (f"{MC_FIT} --mc-r 1.5,1.5,2.0", None, 2, RADII),
    ("smallball tail --x nan,5,10 --n 200 --steps 64", None, 2,
     "error: levels, each positive, finite and distinct"),
    ("smallball tail --x 5,10,1e308 --n 200 --steps 64", None, 2,
     "error: keep x^alpha positive and finite"),
    ("smallball crude --steps=-1", None, 2, "error: n_steps must be at least 2"),
    ("smallball crude --r 1e-308", None, 2, "error: r^-alpha overflows"),
    ("smallball is --r 1e-308", None, 2, "error: r^-alpha overflows"),
    ("smallball crude --r 0 --c 0.2", None, 2, "error: r must be positive and finite"),
    ("smallball is --r 5e-324 --c 0.2 --alpha 1.99", None, 2, "error: r^-alpha overflows"),
    ("smallball anderson --r 1e-308", None, 2, "error: r^-alpha overflows"),
    ("smallball crude --eps 1e-308", None, 2, "error: eps_cutoff^-alpha overflows"),
    ("smallball is --r 0.8 --c 0.2 --eps 1e-308", None, 2,
     "error: eps_cutoff^-alpha overflows"),
    ("simulate --eps 1e-308", None, 2, "error: eps_cutoff^-alpha overflows"),
    ("smallball crude --r 1 --eps 1", None, 2, "error: eps_cutoff must lie in (0, 1.0)"),
    ("smallball anderson --eps 5", None, 2, "error: eps_cutoff must lie in (0, 1.0)"),
    ("simulate --eps 1e-12", None, 2, RECORDS),
    ("smallball crude --eps 1e-150", None, 2, RECORDS),
    ("smallball crude --r 1e-200", None, 2, RECORDS),
    ("smallball is --r 0.8 --c 0.2 --eps 1e-150", None, 2, RECORDS),
    ("constants --grid 8193", None, 2, "error: n_grid must lie in [64, 8192], got 8193"),
    ("constants --grid 66", None, 2, "error: n_grid must be a multiple of 4, got 66"),
    ("smallball crude --r 0.8 --c 0.2 --lam 0.3", None, 2,
     f"{KEY} 'lam': give either 'c' or 'lam', not both"),
    ("smallball anderson --r 2.0,0.5 --n 100 --steps 64", None, 2,
     f"{KEY} 'r': anderson takes one radius, got '2.0,0.5'"),
    ("smallball tail --x 1000,2000 --n 64 --steps 16", None, 3, "error: tail unresolved"),
    ("smallball crude --r 0.9 --c 0.2 --shift {file}", None, 2,
     f"{KEY} 'shift': file not found: {{file}}"),
    ("smallball crude --r 0.9 --c 0.2 --shift {file}", "{not json", 2,
     f"{KEY} 'shift': bad knot file"),
    ("constants --alpha 1.5 --grid 64 --mc-n 64 --mc-r 0.2,0.25 --steps 16", None, 3,
     "error: too few resolvable radii"),
    ("constants --alpha 1.5,abc", None, 2, f"{KEY} 'alpha': could not convert"),
    ("lil integral-test", None, 2, f"{KEY} 'log_power' is required for integral-test"),
    ("lil distance-sweep --k-min 10 --k-max 20 --steps 64", None, 2,
     "error: lower grid needs k >= 21"),
    ("smallball crude --config {file}", "[smallball.crude]\nradius = 1.0\n", 2,
     f"{UNKNOWN_KEY} 'radius' in section [smallball.crude]"),
    ("smallball crude --config {file}", "[common]\nr = 0.9\n", 2,
     f"{UNKNOWN_KEY} 'r' in section [common]"),
    ("smallball crude --config {file}", "[smallbal]\nr = 0.9\n", 2,
     "config error: unknown config section [smallbal]"),
    ("smallball crude --config {file}", None, 2,
     "config error: config file not found: {file}"),
    ("simulate --config {file} --n 1 --steps 16", "[common]\nseed = soon\n", 2,
     f"{KEY} 'seed': invalid literal"),
    ("simulate --config {file} --n 1 --steps 16", "[simulate]\nsampler = euler\n", 2,
     f"{KEY} 'sampler': invalid choice 'euler'"),
    ("constants --grid 64 --workers 0", None, 2, f"{KEY} 'workers': must be at least 1, got 0"),
    ("constants --grid 64 --workers -3", None, 2,
     f"{KEY} 'workers': must be at least 1, got -3"),
    ("smallball crude --r ,", None, 2, f"{KEY} 'r': empty list"),
    ("constants --alpha ,", None, 2, f"{KEY} 'alpha': empty list"),
    ("lil ratios --k ' '", None, 2, f"{KEY} 'k': empty list"),
    ("smallball crude --config {file}", "[smallball.crude]\nsampler = euler\n", 2,
     f"{KEY} 'sampler': invalid choice 'euler' (choose from 'jumps', 'increments')"),
    ("lil grid --config {file}", "[lil.grid]\nkind = middle\n", 2,
     f"{KEY} 'kind': invalid choice 'middle' (choose from 'lower', 'upper')"),
    ("constants --config {file}", "[common]\nworkers = 0\n", 2,
     f"{KEY} 'workers': must be at least 1, got 0"),
    ("simulate --seed=-1", None, 2, f"{KEY} 'seed': must be nonnegative, got -1"),
    ("lil grid --config {file}", "[lil.grid]\nalpha = 1.5\n", 2,
     f"{UNKNOWN_KEY} 'alpha' in section [lil.grid]"),
], ids=["log-power-nan", "loglog-power-inf", "integral-alpha", "ratios-alpha",
        "ratios-gamma-nan", "grid-gamma-nan", "grid-gamma-inf", "crude-c-nan",
        "crude-lam-nan", "crude-r-inf", "crude-r-nan", "is-r-nan", "simulate-eps-nan",
        "mc-r-inf", "mc-r-nan", "mc-r-negative", "mc-r-repeated", "tail-x-nan",
        "tail-x-overflow", "crude-steps-negative", "crude-r-tiny", "is-r-tiny",
        "crude-r-zero-with-c", "is-r-subnormal", "anderson-r-tiny", "crude-eps-tiny",
        "is-eps-tiny", "simulate-eps-tiny", "crude-eps-at-r", "anderson-eps-above-r",
        "simulate-eps-records", "crude-eps-records", "crude-r-records", "is-eps-records",
        "constants-grid-above-bound", "constants-grid-not-multiple-of-4", "crude-c-and-lam",
        "anderson-two-radii", "tail-unresolved", "shift-file-missing", "shift-file-malformed",
        "fit-unresolved", "constants-alpha-not-a-number", "integral-test-no-log-power",
        "sweep-k-below-21",
        "ini-unknown-key", "ini-leaf-key-in-common", "ini-unknown-section", "ini-missing",
        "ini-seed-not-int", "ini-simulate-sampler", "workers-zero", "workers-negative",
        "r-empty", "alpha-empty", "k-blank", "ini-crude-sampler", "ini-grid-kind",
        "ini-workers-zero", "seed-negative", "ini-key-leaf-does-not-read"])
def test_invalid_number_exits_2_without_artifact(tmp_path, capsys, argv, ini, code, line):
    """A refused run exits ``code`` with one stderr line, no traceback and no
    output directory; the line starts with the kind before the row's first
    ": " ("error" or "config error") and holds the text after it.  ``{file}``
    in the argv and the line is a file holding ``ini``, missing for None."""
    file = tmp_path / "run.ini"
    if ini is not None:
        file.write_text(ini)
    out = tmp_path / "out"
    rc = main([*(arg.format(file=file) for arg in shlex.split(argv)), "--out", str(out)])
    kind, text = line.format(file=file).split(": ", 1)
    err = capsys.readouterr().err
    assert rc == code
    assert err.startswith(kind + ": ") and text in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


FUZZ_TOKENS = ("nan", "inf", "-inf", "0", "-1", "1e308", "1e-308")
NUMBER_LISTS = ("alpha", "r", "x", "mc_r", "k")  # comma lists; constants' alpha is one
TINY = {"n": "64", "steps": "8", "grid": "64", "mc_n": "200"}
NUMERIC_OPTIONS = [(sub, key) for sub in LEAVES for key, opt in _options(sub).items()
                   if opt.type in (int, float) or key in NUMBER_LISTS]


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=st.sampled_from(NUMERIC_OPTIONS), token=st.sampled_from(FUZZ_TOKENS))
@example(case=("smallball.tail", "steps"), token="-1")
@example(case=("smallball.tail", "x"), token="nan")
def test_extreme_number_in_any_option(case, token):
    """One numeric option of one leaf set to an extreme token, at tiny sizes:
    the run exits 0-3, a refusal is one line and leaves no output directory,
    and every JSON artifact is strict JSON.  A list option gets the token in
    place of its first default value."""
    sub, key = case
    options = _options(sub)
    args = {k: v for k, v in TINY.items() if k in options}
    args[key] = ",".join([token, *str(options[key].default).split(",")[1:]])
    argv = [*sub.split("."), *(f"--{k.replace('_', '-')}={v}" for k, v in args.items())]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        # the battery reads no numeric option (it pins its own sizes and seeds),
        # so an empty one stands in for its seconds-long run
        mp.setattr(diagnostics, "run_selftest", lambda full: [])
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main([*argv, "--out", str(out)])
            except SystemExit as exc:  # argparse refuses a token its type cannot parse
                rc = exc.code
        assert rc in (0, 1, 2, 3), argv
        if rc == 2:
            lines = err.getvalue().splitlines()
            assert sum("error: " in line for line in lines) == 1, (argv, lines)
            assert "Traceback" not in err.getvalue() and not out.exists(), argv
        for path in out.glob("*.json*"):
            text = path.read_text()
            for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
                json.loads(doc, parse_constant=_refuse_constant)


class _ReadKeys(dict):
    """A resolved config that records every key a command looks up."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


# tiny runs that reach every branch reading a setting: the Monte Carlo fit
# runs (mc_n > 0) and the battery is stubbed as in the fuzz test
READ_RUNS = {
    "simulate": "--n 1 --steps 8",
    "smallball.crude": "--n 64 --steps 8 --r 1.0,2.0",
    "smallball.is": "--n 64 --steps 8 --r 1.0,2.0",
    "smallball.anderson": "--n 64 --steps 8 --r 2.0",
    "smallball.tail": "--n 200 --steps 8 --x 1,2",
    "constants": "--grid 64 --mc-n 400 --steps 16 --mc-r 1.5,2.0,2.5",
    "lil.grid": "",
    "lil.ratios": "",
    "lil.distance-sweep": "--k-max 1001 --steps 8",
    "lil.integral-test": "--log-power 1.4",
    "selftest": "",
}


@pytest.mark.parametrize("sub", LEAVES)
def test_every_offered_setting_is_read(tmp_path, monkeypatch, sub):
    configs = []

    def recorded(args, sub_name):
        configs.append(_ReadKeys(_resolve(args, sub_name)))
        return configs[-1]

    monkeypatch.setattr(cli, "_resolve", recorded)
    monkeypatch.setattr(diagnostics, "run_selftest", lambda full: [])
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main([*sub.split("."), *READ_RUNS[sub].split(), "--out", str(tmp_path)])
    assert rc in (0, 1)
    assert set(_options(sub)) - configs[0].read == set()


class TestSimulate:
    def test_single_path_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main(["simulate", "--n", "1", "--steps", "64", "--seed", "5",
                       "--out", str(out)])
            assert rc == 0
        assert (a / "path.csv").read_bytes() == (b / "path.csv").read_bytes()
        assert (a / "jumps.csv").read_bytes() == (b / "jumps.csv").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--n", "1", "--steps", "64", "--seed", "1", "--out", str(a)])
        main(["simulate", "--n", "1", "--steps", "64", "--seed", "2", "--out", str(b)])
        assert (a / "path.csv").read_bytes() != (b / "path.csv").read_bytes()

    def test_increment_sampler_has_no_jump_file(self, tmp_path):
        rc = main(["simulate", "--sampler", "increments", "--n", "1",
                   "--steps", "32", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "path.csv").exists()
        assert not (tmp_path / "jumps.csv").exists()

    def test_multi_path_naming(self, tmp_path):
        rc = main(["simulate", "--n", "3", "--steps", "32", "--out", str(tmp_path)])
        assert rc == 0
        for i in range(3):
            assert (tmp_path / f"path_{i:04d}.csv").exists()

    def test_eps_controls_jump_resolution(self, tmp_path):
        coarse, fine = tmp_path / "c", tmp_path / "f"
        main(["simulate", "--n", "1", "--steps", "64", "--eps", "0.5",
              "--out", str(coarse)])
        main(["simulate", "--n", "1", "--steps", "64", "--eps", "0.05",
              "--out", str(fine)])
        n_coarse = len((coarse / "jumps.csv").read_text().splitlines())
        n_fine = len((fine / "jumps.csv").read_text().splitlines())
        assert n_fine > n_coarse

    def test_run_config_written(self, tmp_path):
        main(["simulate", "--n", "1", "--steps", "32", "--out", str(tmp_path)])
        cfg = _read_json(tmp_path / "run_config.json")
        assert cfg["subcommand"] == "simulate"
        assert cfg["steps"] == 32

    def test_run_config_records_default_eps(self, tmp_path):
        main(["simulate", "--n", "1", "--steps", "32", "--out", str(tmp_path / "d")])
        main(["simulate", "--n", "1", "--steps", "32", "--eps", "0.02",
              "--out", str(tmp_path / "e")])
        assert _read_json(tmp_path / "d" / "run_config.json")["eps"] == 0.02
        for name in ("path.csv", "jumps.csv"):
            assert (tmp_path / "d" / name).read_bytes() == (tmp_path / "e" / name).read_bytes()


class TestSmallball:
    def test_crude_single_record(self, tmp_path):
        rc = main(["smallball", "crude", "--n", "400", "--steps", "128",
                   "--r", "1.0", "--c", "0.2", "--out", str(tmp_path)])
        assert rc == 0
        rec = _read_json(tmp_path / "crude.json")
        assert set(rec) >= {"query", "estimate", "stderr", "ci95", "n", "flags",
                            "config"}
        assert rec["query"]["regime"] == "middle"
        assert rec["n"] == 400

    def test_crude_sweep_ldjson_and_csv(self, tmp_path):
        rc = main(["smallball", "crude", "--n", "300", "--steps", "128",
                   "--r", "0.8,1.0", "--csv", "--out", str(tmp_path)])
        assert rc == 0
        recs = _read_jsonl(tmp_path / "crude.jsonl")
        assert [r["query"]["r"] for r in recs] == [0.8, 1.0]
        table = (tmp_path / "crude_sweep.csv").read_text().splitlines()
        assert table[0] == "r,estimate,stderr"
        assert len(table) == 3

    # 2100 paths of 2048 steps make two batches, so a pool of two splits the work
    @pytest.mark.parametrize("argv, artifact", [
        (["crude", "--sampler", "jumps", "--r", "0.9,1.2", "--c", "0.2"], "crude.jsonl"),
        (["crude", "--sampler", "increments", "--r", "0.9,1.2", "--c", "0.2"], "crude.jsonl"),
        (["is", "--r", "0.9", "--c", "0.2"], "is.json"),
        (["anderson", "--r", "1.0"], "anderson.json"),
        (["tail", "--x", "2,4,8"], "tail.json"),
    ], ids=["crude-jumps", "crude-increments", "is", "anderson", "tail"])
    def test_pooled_record_matches_serial(self, tmp_path, argv, artifact):
        recs = {}
        for w in ("1", "2"):
            out = tmp_path / f"w{w}"
            rc = main(["smallball", *argv, "--n", "2100", "--steps", "2048", "--seed", "7",
                       "--workers", w, "--out", str(out)])
            assert rc == 0
            recs[w] = _records_without_run_specifics(out / artifact)
        assert recs["1"] == recs["2"]

    def test_is_estimator_record(self, tmp_path):
        rc = main(["smallball", "is", "--n", "400", "--steps", "128",
                   "--r", "0.8", "--c", "0.2", "--out", str(tmp_path)])
        assert rc == 0
        rec = _read_json(tmp_path / "is.json")
        assert rec["ess"] <= rec["n"]
        assert rec["query"]["c"] == pytest.approx(0.2)

    def test_lam_sets_small_regime(self, tmp_path):
        rc = main(["smallball", "crude", "--n", "200", "--steps", "128",
                   "--r", "0.8", "--lam", "0.3", "--out", str(tmp_path)])
        assert rc == 0
        rec = _read_json(tmp_path / "crude.json")
        assert rec["query"]["regime"] == "small"
        assert rec["query"]["shift_scale"] == pytest.approx(0.3)

    def test_anderson_artifact(self, tmp_path):
        rc = main(["smallball", "anderson", "--n", "1500", "--steps", "512",
                   "--r", "1.0", "--out", str(tmp_path)])
        rec = _read_json(tmp_path / "anderson.json")
        assert rc == (0 if rec["n_flagged"] == 0 else 1)
        assert rec["rows"][0]["label"] == "zero"
        assert rec["rows"][0]["shift_scale"] == 0.0
        assert len(rec["rows"]) == 6
        assert rec["n_flagged"] == 0

    def test_tail_artifact(self, tmp_path):
        rc = main(["smallball", "tail", "--n", "2000", "--steps", "256",
                   "--x", "10,20", "--csv", "--out", str(tmp_path)])
        assert rc == 0
        rec = _read_json(tmp_path / "tail.json")
        assert rec["x"] == [10.0, 20.0]
        assert len(rec["p_hat"]) == 2 and len(rec["k_hat"]) == 2
        assert rec["slope"] < 0.0
        lines = (tmp_path / "tail.csv").read_text().splitlines()
        assert lines[0] == "x,p_hat,stderr"

    def test_shift_knot_file(self, tmp_path):
        knots = [[0.0, 0.0], [0.5, 0.2], [1.0, 0.0]]
        shift_file = tmp_path / "shift.json"
        shift_file.write_text(json.dumps(knots))
        rc = main(["smallball", "crude", "--n", "200", "--steps", "128",
                   "--r", "0.9", "--c", "0.2", "--shift", str(shift_file),
                   "--out", str(tmp_path)])
        assert rc == 0
        rec = _read_json(tmp_path / "crude.json")
        assert rec["query"]["shift_knots"] == knots

class TestConstants:
    def test_record_shape_without_mc(self, tmp_path):
        rc = main(["constants", "--alpha", "1.5", "--grid", "256",
                   "--out", str(tmp_path)])
        assert rc == 0
        rec = _read_json(tmp_path / "constants.json")
        assert set(rec) == {"alpha", "c_alpha", "K_spectral", "K_mc", "C_alpha",
                            "config"}
        assert rec["K_mc"] is None
        assert rec["c_alpha"] == pytest.approx(3.3421710328413340032, rel=1e-12)

    def test_alpha_list_gives_ldjson(self, tmp_path):
        rc = main(["constants", "--alpha", "1.2,1.8", "--grid", "128",
                   "--out", str(tmp_path)])
        assert rc == 0
        recs = _read_jsonl(tmp_path / "constants.jsonl")
        assert [r["alpha"] for r in recs] == [1.2, 1.8]

    def test_mc_fit_under_a_pool_matches_serial(self, tmp_path):
        assert len(batch_plan(2100, 2048)) == 2  # so the pool splits the one draw
        recs = {}
        for w in ("1", "2"):
            out = tmp_path / f"w{w}"
            rc = main(["constants", "--alpha", "1.5", "--grid", "64", "--mc-n", "2100",
                       "--mc-r", "1.2,1.6,2.0", "--steps", "2048", "--workers", w,
                       "--out", str(out)])
            assert rc == 0
            rec = _read_json(out / "constants.json")
            rec.pop("config")
            recs[w] = json.dumps(rec, sort_keys=True)
        assert json.loads(recs["1"])["K_mc"] is not None
        assert recs["1"] == recs["2"]

    def test_unresolved_last_alpha_keeps_the_finished_records(self, tmp_path, capsys):
        # at seed 0 these settings give 7 and 57 hits at alpha 1.2, but 0 and 0
        # at 1.8, where no radius resolves
        rc = main(["constants", "--alpha", "1.2,1.8", "--grid", "64", "--mc-n", "2000",
                   "--mc-r", "0.7,1.0", "--steps", "64", "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: too few resolvable radii for a slope fit; increase n_paths\n")
        [rec] = _read_jsonl(tmp_path / "constants.jsonl")  # a sweep's file, though one record
        assert rec["alpha"] == 1.2 and rec["K_mc"] > 0.0

class TestLil:
    def test_grid_csv(self, tmp_path):
        rc = main(["lil", "grid", "--k-min", "21", "--k-max", "30",
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "grid.csv").read_text().splitlines()
        assert lines[0] == "k,logT"
        rows = np.loadtxt(tmp_path / "grid.csv", delimiter=",", skiprows=1)
        spec = GridSpec(kind="lower", k_min=21, k_max=30)
        assert np.array_equal(rows[:, 0], spec.k_values())
        assert np.allclose(rows[:, 1], spec.log_times(), rtol=1e-15)

    def test_ratios_record(self, tmp_path):
        rc = main(["lil", "ratios", "--k", "1000000", "--delta", "0.5",
                   "--out", str(tmp_path)])
        assert rc == 0
        rec = _read_json(tmp_path / "ratios.json")
        r1, r2, r3 = grid_gap_ratios(10**6, 0.5, 1.5)
        assert rec["r1"] == pytest.approx(r1, rel=1e-15)
        assert rec["r2"] == pytest.approx(r2, rel=1e-15)
        assert rec["r3"] == pytest.approx(r3, rel=1e-15)

    def test_distance_sweep_csv(self, tmp_path, capsys):
        rc = main(["lil", "distance-sweep", "--k-min", "1000", "--k-max", "1020",
                   "--steps", "128", "--out", str(tmp_path)])
        assert rc == 0
        assert DIAGNOSTIC_NOTE in capsys.readouterr().out
        lines = (tmp_path / "distances.csv").read_text().splitlines()
        assert lines[0] == "k,logT,delta,distance,running_min"
        rows = np.loadtxt(tmp_path / "distances.csv", delimiter=",", skiprows=1)
        assert rows.shape[0] == 21
        assert np.all(np.diff(rows[:, 4]) <= 0.0)
        assert np.all(rows[:, 4] <= rows[:, 3])

    def test_integral_test_classification(self, tmp_path):
        rc = main(["lil", "integral-test", "--log-power", "1.4",
                   "--alpha", "1.5", "--out", str(tmp_path)])
        assert rc == 0
        rec = _read_json(tmp_path / "integral_test.json")
        assert rec["classification"] == "converges"
        assert "method" not in rec

    def test_grid_stays_in_log_space_past_float_horizon(self, tmp_path):
        # log T_40 = 1600 would overflow exp(); storing logT keeps it exact
        rc = main(["lil", "grid", "--kind", "upper", "--k-min", "1",
                   "--k-max", "40", "--gamma", "2.0", "--out", str(tmp_path)])
        assert rc == 0
        rows = np.loadtxt(tmp_path / "grid.csv", delimiter=",", skiprows=1)
        assert rows[-1, 1] == 1600.0

class TestConfigFile:
    def _write(self, tmp_path, text):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        return cfg

    def test_layering_and_flag_override(self, tmp_path):
        cfg = self._write(tmp_path, """
[common]
alpha = 1.8
seed = 7
n = 200

[smallball.crude]
r = 0.9
steps = 128
""")
        rc = main(["smallball", "crude", "--config", str(cfg), "--n", "150",
                   "--out", str(tmp_path)])
        assert rc == 0
        resolved = _read_json(tmp_path / "run_config.json")
        assert resolved["alpha"] == 1.8
        assert resolved["seed"] == 7
        assert resolved["r"] == "0.9"
        assert resolved["steps"] == 128
        assert resolved["n"] == 150  # explicit flag beats the config file

    @settings(max_examples=60, deadline=None)
    @given(sub=st.sampled_from(LEAVES), data=st.data())
    def test_highest_set_layer_wins(self, sub, data):
        # the leaf's own integer settings and its output directory; a key
        # outside COMMON has no [common] layer
        options = _options(sub)
        layers = {key: data.draw(st.dictionaries(
                      st.sampled_from(CONFIG_LAYERS if key in COMMON else CONFIG_LAYERS[1:]),
                      st.integers(1, 10**6)), label=key)
                  for key, opt in options.items() if opt.type is int or key == "out"}
        lines = {"common": [], "section": []}
        flags = []
        for key, values in layers.items():
            for layer, value in values.items():
                if layer == "flag":
                    flags += [f"--{key.replace('_', '-')}", str(value)]
                else:
                    lines[layer].append(f"{key} = {value}")
        with tempfile.TemporaryDirectory() as tmp:
            if lines["common"] or lines["section"]:
                ini = Path(tmp) / "run.ini"
                ini.write_text("\n".join(["[common]", *lines["common"],
                                          f"[{sub}]", *lines["section"]]) + "\n")
                flags += ["--config", str(ini)]
            cfg = _resolve(build_parser().parse_args([*sub.split("."), *flags]), sub)
        for key, values in layers.items():
            set_layers = [layer for layer in CONFIG_LAYERS if layer in values]
            expected = values[set_layers[-1]] if set_layers else options[key].default
            assert cfg[key] == options[key].type(expected)

    def test_common_key_applies_only_where_read(self, tmp_path):
        cfg = self._write(tmp_path, "[common]\nalpha = 1.8\nseed = 7\nn = 150\n")
        grid, crude = tmp_path / "grid", tmp_path / "crude"
        assert main(["lil", "grid", "--config", str(cfg), "--out", str(grid)]) == 0
        assert not {"alpha", "seed", "n"} & set(_read_json(grid / "run_config.json"))
        assert main(["smallball", "crude", "--config", str(cfg), "--steps", "64",
                     "--out", str(crude)]) == 0
        resolved = _read_json(crude / "run_config.json")
        assert (resolved["alpha"], resolved["seed"], resolved["n"]) == (1.8, 7, 150)

    @pytest.mark.parametrize("argv", ["lil grid --alpha nan", "selftest --alpha nan",
                                      "selftest --seed 3", "simulate --workers 2"])
    def test_flag_a_leaf_does_not_read_is_refused(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv.split(), "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_env_overrides_out_dir(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_dest"
        monkeypatch.setenv("STABLE_SMALLBALL_OUT", str(env_dir))
        rc = main(["simulate", "--n", "1", "--steps", "16",
                   "--out", str(tmp_path / "flag_dest")])
        assert rc == 0
        assert (env_dir / "path.csv").exists()
        assert not (tmp_path / "flag_dest").exists()


SELFTEST_RUN = """
import json, sys
from stable_smallball.cli import main
rc = main(["selftest", "--out", sys.argv[1]])
print(json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_selftest_passes_every_check(tmp_path):
    # a fresh interpreter, so no other test can have loaded a SciPy module first
    proc = subprocess.run([sys.executable, "-c", SELFTEST_RUN, str(tmp_path)],
                          capture_output=True, text=True, env=_package_env())
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    results = _read_json(tmp_path / "selftest.json")["results"]
    failed = [f"{r['name']}: {r['detail']}" for r in results if not r["passed"]]
    assert not failed, "; ".join(failed)
    assert rc == 0 and len(results) == 19
    # the spectral checks solve on NumPy, and no check's count is extreme
    # enough for an exact interval
    assert modules == []


def _package_env() -> dict:
    """The environment, with the directory that holds the imported package
    first on PYTHONPATH, so a fresh interpreter imports the same package
    from an uninstalled checkout."""
    package_root = str(Path(stable_smallball.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "stable_smallball", "lil", "ratios",
         "--k", "1000000", "--out", str(tmp_path)],
        capture_output=True, text=True, env=_package_env())
    assert proc.returncode == 0
    assert (tmp_path / "ratios.json").exists()


def _assert_cli_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"usage: {SCRIPT} ")
    for name in SUBCOMMANDS:
        assert name in proc.stdout


def _declared_script_target():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][SCRIPT]
    module, _, func = target.partition(":")
    return module.strip(), func.strip()


def test_console_script_help():
    # Run the [project.scripts] target the way the generated wrapper does, in
    # a fresh interpreter that imports the same package as this suite; the
    # wrapper itself exists only once the package is installed.
    module, func = _declared_script_target()
    code = f"import sys; from {module} import {func} as f; sys.exit(f())"
    proc = subprocess.run([sys.executable, "-c", code, "--help"],
                          capture_output=True, text=True, env=_package_env())
    _assert_cli_help(proc)


@pytest.mark.skipif(shutil.which(SCRIPT) is None, reason="package not installed")
def test_installed_console_script_help():
    proc = subprocess.run([SCRIPT, "--help"], capture_output=True, text=True)
    _assert_cli_help(proc)
