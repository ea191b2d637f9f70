"""End-to-end checks of the command-line interface and its artifacts."""

import contextlib
import io
import json
import os
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


def _assert_one_line_error(rc, code, capsys, text):
    err = capsys.readouterr().err
    assert rc == code
    assert err.startswith("error: ") and text in err
    assert err.count("\n") == 1 and "Traceback" not in err


MC_FIT = "constants --alpha 1.5 --grid 64 --mc-n 400 --steps 64"
RADII = "radii, each positive, finite and distinct"
RECORDS = "expected jump records per path exceed"


@pytest.mark.parametrize("argv, text", [
    ("lil integral-test --log-power nan", "powers must be finite"),
    ("lil integral-test --log-power 1 --loglog-power inf", "powers must be finite"),
    ("lil integral-test --log-power 1 --alpha 5", "alpha must lie"),
    ("lil ratios --alpha 5", "alpha must lie"),
    ("lil ratios --kind upper --gamma nan --k 5", "gamma > 1"),
    ("lil grid --kind upper --gamma nan", "gamma > 1"),
    ("lil grid --kind upper --gamma inf", "gamma > 1"),
    ("smallball crude --c nan", "c must be nonnegative and finite"),
    ("smallball crude --lam nan", "shift_scale must be nonnegative and finite"),
    ("smallball crude --r inf", "r must be positive and finite"),
    ("smallball crude --r nan", "r must be positive and finite"),
    ("smallball is --r nan --c 0.2", "r must be positive and finite"),
    ("simulate --eps nan", "eps_cutoff must be positive and finite"),
    (f"{MC_FIT} --mc-r inf,1.5,2.0", RADII),
    (f"{MC_FIT} --mc-r nan,1.5,2.0", RADII),
    (f"{MC_FIT} --mc-r=-1,1.5,2.0", RADII),
    (f"{MC_FIT} --mc-r 1.5,1.5,2.0", RADII),
    ("smallball tail --x nan,5,10 --n 200 --steps 64",
     "levels, each positive, finite and distinct"),
    ("smallball tail --x 5,10,1e308 --n 200 --steps 64", "keep x^alpha positive and finite"),
    ("smallball crude --steps=-1", "n_steps must be at least 2"),
    ("smallball crude --r 1e-308", "r^-alpha overflows"),
    ("smallball is --r 1e-308", "r^-alpha overflows"),
    ("smallball crude --r 0 --c 0.2", "r must be positive and finite"),
    ("smallball is --r 5e-324 --c 0.2 --alpha 1.99", "r^-alpha overflows"),
    ("smallball anderson --r 1e-308", "r^-alpha overflows"),
    ("smallball crude --eps 1e-308", "eps_cutoff^-alpha overflows"),
    ("smallball is --r 0.8 --c 0.2 --eps 1e-308", "eps_cutoff^-alpha overflows"),
    ("simulate --eps 1e-308", "eps_cutoff^-alpha overflows"),
    ("smallball crude --r 1 --eps 1", "eps_cutoff must lie in (0, 1.0)"),
    ("smallball anderson --eps 5", "eps_cutoff must lie in (0, 1.0)"),
    ("simulate --eps 1e-12", RECORDS),
    ("smallball crude --eps 1e-150", RECORDS),
    ("smallball crude --r 1e-200", RECORDS),
    ("smallball is --r 0.8 --c 0.2 --eps 1e-150", RECORDS),
    ("constants --grid 8193", "n_grid must lie in [64, 8192], got 8193"),
], ids=["log-power-nan", "loglog-power-inf", "integral-alpha", "ratios-alpha",
        "ratios-gamma-nan", "grid-gamma-nan", "grid-gamma-inf", "crude-c-nan",
        "crude-lam-nan", "crude-r-inf", "crude-r-nan", "is-r-nan", "simulate-eps-nan",
        "mc-r-inf", "mc-r-nan", "mc-r-negative", "mc-r-repeated", "tail-x-nan",
        "tail-x-overflow", "crude-steps-negative", "crude-r-tiny", "is-r-tiny",
        "crude-r-zero-with-c", "is-r-subnormal", "anderson-r-tiny", "crude-eps-tiny",
        "is-eps-tiny", "simulate-eps-tiny", "crude-eps-at-r", "anderson-eps-above-r",
        "simulate-eps-records", "crude-eps-records", "crude-r-records", "is-eps-records",
        "constants-grid-above-bound"])
def test_invalid_number_exits_2_without_artifact(tmp_path, capsys, argv, text):
    out = tmp_path / "out"
    _assert_one_line_error(main([*argv.split(), "--out", str(out)]), 2, capsys, text)
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

    def test_c_and_lam_conflict(self, tmp_path, capsys):
        rc = main(["smallball", "crude", "--r", "0.8", "--c", "0.2",
                   "--lam", "0.3", "--out", str(tmp_path)])
        assert rc == 2
        assert "either 'c' or 'lam'" in capsys.readouterr().err

    def test_anderson_artifact(self, tmp_path):
        rc = main(["smallball", "anderson", "--n", "1500", "--steps", "512",
                   "--r", "1.0", "--out", str(tmp_path)])
        rec = _read_json(tmp_path / "anderson.json")
        assert rc == (0 if rec["n_flagged"] == 0 else 1)
        assert rec["rows"][0]["label"] == "zero"
        assert rec["rows"][0]["shift_scale"] == 0.0
        assert len(rec["rows"]) == 6
        assert rec["n_flagged"] == 0

    def test_anderson_takes_one_radius(self, tmp_path, capsys):
        rc = main(["smallball", "anderson", "--r", "2.0,0.5", "--n", "100", "--steps", "64",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: config key 'r': anderson takes one radius, got '2.0,0.5'\n")
        assert not (tmp_path / "anderson.json").exists()

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

    def test_unresolved_tail_exits_3(self, tmp_path, capsys):
        rc = main(["smallball", "tail", "--x", "1000,2000", "--n", "64", "--steps", "16",
                   "--out", str(tmp_path)])
        _assert_one_line_error(rc, 3, capsys, "tail unresolved")

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

    def test_missing_shift_file(self, tmp_path, capsys):
        rc = main(["smallball", "crude", "--r", "0.9", "--c", "0.2",
                   "--shift", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 2
        assert "file not found" in capsys.readouterr().err

    def test_malformed_shift_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["smallball", "crude", "--r", "0.9", "--c", "0.2",
                   "--shift", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        assert "bad knot file" in capsys.readouterr().err


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

    def test_unresolved_fit_exits_3(self, tmp_path, capsys):
        rc = main(["constants", "--alpha", "1.5", "--grid", "64", "--mc-n", "64",
                   "--mc-r", "0.2,0.25", "--steps", "16", "--out", str(tmp_path)])
        _assert_one_line_error(rc, 3, capsys, "too few resolvable radii")

    def test_unresolved_last_alpha_keeps_the_finished_records(self, tmp_path, capsys):
        # at seed 0 these settings give 7 and 57 hits at alpha 1.2, but 0 and 0
        # at 1.8, where no radius resolves
        rc = main(["constants", "--alpha", "1.2,1.8", "--grid", "64", "--mc-n", "2000",
                   "--mc-r", "0.7,1.0", "--steps", "64", "--out", str(tmp_path)])
        _assert_one_line_error(rc, 3, capsys, "too few resolvable radii")
        [rec] = _read_jsonl(tmp_path / "constants.jsonl")  # a sweep's file, though one record
        assert rec["alpha"] == 1.2 and rec["K_mc"] > 0.0

    def test_bad_alpha_list(self, tmp_path, capsys):
        rc = main(["constants", "--alpha", "1.5,abc", "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err


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

    def test_integral_test_requires_log_power(self, tmp_path, capsys):
        rc = main(["lil", "integral-test", "--out", str(tmp_path)])
        assert rc == 2
        assert "log_power" in capsys.readouterr().err

    def test_grid_stays_in_log_space_past_float_horizon(self, tmp_path):
        # log T_40 = 1600 would overflow exp(); storing logT keeps it exact
        rc = main(["lil", "grid", "--kind", "upper", "--k-min", "1",
                   "--k-max", "40", "--gamma", "2.0", "--out", str(tmp_path)])
        assert rc == 0
        rows = np.loadtxt(tmp_path / "grid.csv", delimiter=",", skiprows=1)
        assert rows[-1, 1] == 1600.0

    def test_bad_grid_kind_reported(self, tmp_path, capsys):
        rc = main(["lil", "distance-sweep", "--k-min", "10", "--k-max", "20",
                   "--steps", "64", "--out", str(tmp_path)])
        assert rc == 2
        assert "k >= 21" in capsys.readouterr().err


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

    def test_unknown_key_is_named(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "[smallball.crude]\nradius = 1.0\n")
        rc = main(["smallball", "crude", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown config key 'radius' in section [smallball.crude]" in err

    def test_subcommand_key_rejected_in_common(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "[common]\nr = 0.9\n")
        rc = main(["smallball", "crude", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown config key 'r' in section [common]" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "[smallbal]\nr = 0.9\n")
        rc = main(["smallball", "crude", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown config section [smallbal]" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["smallball", "crude", "--config", str(tmp_path / "nope.ini"),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "config file not found" in capsys.readouterr().err

    def test_bad_value_type(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "[common]\nseed = soon\n")
        rc = main(["simulate", "--config", str(cfg), "--n", "1", "--steps", "16",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "config key 'seed'" in capsys.readouterr().err

    def test_bad_sampler_via_config(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "[simulate]\nsampler = euler\n")
        rc = main(["simulate", "--config", str(cfg), "--n", "1", "--steps", "16",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "sampler" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers):
        rc = main(["constants", "--grid", "64", "--workers", workers, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"config error: config key 'workers': must be at least 1, got {workers}\n"
        assert not (tmp_path / "run_config.json").exists()

    @pytest.mark.parametrize("argv, key", [
        (["smallball", "crude", "--r", ","], "r"),
        (["constants", "--alpha", ","], "alpha"),
        (["lil", "ratios", "--k", " "], "k"),
    ])
    def test_empty_list_rejected(self, tmp_path, capsys, argv, key):
        rc = main([*argv, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: config key '{key}': empty list\n"
        assert not (tmp_path / "run_config.json").exists()

    @pytest.mark.parametrize("sub, key, value, choices", [
        ("smallball.crude", "sampler", "euler", "'jumps', 'increments'"),
        ("lil.grid", "kind", "middle", "'lower', 'upper'"),
    ], ids=["sampler", "kind"])
    def test_bad_choice_via_config(self, tmp_path, capsys, sub, key, value, choices):
        cfg = self._write(tmp_path, f"[{sub}]\n{key} = {value}\n")
        out = tmp_path / "out"
        rc = main([*sub.split("."), "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (f"config error: config key '{key}': invalid "
                                           f"choice '{value}' (choose from {choices})\n")
        assert not out.exists()

    def test_workers_below_one_rejected_from_config(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "[common]\nworkers = 0\n")
        rc = main(["constants", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "config key 'workers'" in capsys.readouterr().err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--seed=-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("config error: config key 'seed': "
                                           "must be nonnegative, got -1\n")
        assert not out.exists()

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

    def test_section_key_a_leaf_does_not_read_is_refused(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "[lil.grid]\nalpha = 1.5\n")
        rc = main(["lil", "grid", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "unknown config key 'alpha' in section [lil.grid]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_env_overrides_out_dir(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_dest"
        monkeypatch.setenv("STABLE_SMALLBALL_OUT", str(env_dir))
        rc = main(["simulate", "--n", "1", "--steps", "16",
                   "--out", str(tmp_path / "flag_dest")])
        assert rc == 0
        assert (env_dir / "path.csv").exists()
        assert not (tmp_path / "flag_dest").exists()


def test_selftest_passes_every_check(tmp_path):
    rc = main(["selftest", "--out", str(tmp_path)])
    results = _read_json(tmp_path / "selftest.json")["results"]
    failed = [f"{r['name']}: {r['detail']}" for r in results if not r["passed"]]
    assert not failed, "; ".join(failed)
    assert rc == 0 and len(results) == 19


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
