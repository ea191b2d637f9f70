"""The public API: every exported function and class has a consumer in the
package, every defaulted parameter a caller outside the self-checks that sets
it, no ``rng`` a default, and runs that need no SciPy routine do not load SciPy."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import stable_smallball

# defaulted parameters that no call outside the self-checks sets, with the reason they stay
UNSET_ALLOWED = {
    "anderson_report(battery)": "tests pass their own batteries",
}


def _package_trees(skip=("__init__.py",)):
    """The parsed modules of the package, those named in ``skip`` excluded."""
    return [ast.parse(path.read_text())
            for path in Path(stable_smallball.__file__).parent.glob("*.py")
            if path.name not in skip]


def _name_of(node) -> str | None:
    """The identifier of a ``Name`` or ``Attribute`` node, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _names_used_in_package() -> set[str]:
    """Every ``Name`` and ``Attribute`` in the package's modules but ``__init__``."""
    return {_name_of(node) for tree in _package_trees() for node in ast.walk(tree)} - {None}


def _arguments_set_in_package() -> dict[str, tuple[int, set[str]]]:
    """For each callee name, the most leading positional arguments any call
    outside the self-checks passes and every keyword passed, counting
    ``partial(fn, ...)`` as a call of fn.  A ``*args`` ends the positional count."""
    seen: dict[str, tuple[int, set[str]]] = {}
    for tree in _package_trees(("__init__.py", "diagnostics.py")):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name, args = _name_of(node.func), node.args
            if name == "partial" and args:
                name, args = _name_of(args[0]), args[1:]
            if name is None:
                continue
            n_pos = next((i for i, a in enumerate(args) if isinstance(a, ast.Starred)),
                         len(args))
            most, keys = seen.get(name, (0, set()))
            seen[name] = (max(most, n_pos), keys | {k.arg for k in node.keywords if k.arg})
    return seen


def _exported_callables():
    """(label, callable) for every exported function and every classmethod
    of an exported class."""
    for name in stable_smallball.__all__:
        obj = getattr(stable_smallball, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if isinstance(raw, classmethod):
                    yield attr, getattr(obj, attr)


def test_every_exported_function_and_class_has_a_consumer():
    # a definition is no use and tests do not count, so an export that only
    # its own unit test reaches fails here
    exported = {name for name in stable_smallball.__all__
                if inspect.isfunction(getattr(stable_smallball, name))
                or inspect.isclass(getattr(stable_smallball, name))}
    unused = sorted(exported - _names_used_in_package())
    assert not unused, f"exported but used nowhere in the package: {unused}"


def test_every_defaulted_parameter_is_set_in_the_package():
    # a default that no caller overrides is a constant with extra steps
    seen = _arguments_set_in_package()
    unset = []
    for label, fn in _exported_callables():
        most, keys = seen.get(label, (0, set()))
        for i, p in enumerate(inspect.signature(fn).parameters.values()):
            if p.default is p.empty:
                continue
            by_position = i < most and p.kind is not p.KEYWORD_ONLY
            if not by_position and p.name not in keys:
                unset.append(f"{label}({p.name})")
    assert sorted(unset) == sorted(UNSET_ALLOWED), (
        f"defaulted parameters that no call in the package sets: {sorted(unset)}")


def test_no_exported_callable_defaults_rng():
    # a random stream must be passed: a default could only be refused
    defaulted = [label for label, fn in _exported_callables()
                 if "rng" in (params := inspect.signature(fn).parameters)
                 and params["rng"].default is not inspect.Parameter.empty]
    assert not defaulted, f"callables that give rng a default: {sorted(defaulted)}"


NO_SCIPY_RUN = """
import sys
import stable_smallball
import stable_smallball.cli
from stable_smallball import AlphaStableParams, RngStream, SmallBallQuery, anderson_report, \
    estimate_is, identity_shift
params = AlphaStableParams(1.5)
params.c_alpha
anderson_report(params, 1.0, 64, rng=RngStream(0), n_steps=64)
estimate_is(SmallBallQuery.middle(params, identity_shift(), c=0.2, r=1.0), 64, n_steps=64,
            rng=RngStream(0))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_package_and_anderson_run_load_no_scipy():
    # a fresh interpreter, so no other test has imported SciPy already
    package_root = str(Path(stable_smallball.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
