"""Each demo script's ``main`` runs at small sizes, so an API change cannot break it unseen."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

SMALL = {
    "constants_table.py": {"mc_paths": 2000, "mc_steps": 64},
    "lil_sweep.py": {},
    "simulate_paths.py": {"n_paths": 200, "n_steps": 64},
    "smallball_estimators.py": {"n_paths": 300, "n_steps": 64},
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(SMALL)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_demo_main_runs(name, capsys):
    runpy.run_path(str(DEMOS / name))["main"](**SMALL[name])
    assert capsys.readouterr().out.strip()
