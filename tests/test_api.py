"""The public API: every exported function and class has a consumer in the package."""

import ast
import inspect
from pathlib import Path

import stable_smallball


def _names_used_in_package() -> set[str]:
    """Every ``Name`` and ``Attribute`` in the package's modules but ``__init__``."""
    used = set()
    for path in Path(stable_smallball.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_exported_function_and_class_has_a_consumer():
    # a definition is no use and tests do not count, so an export that only
    # its own unit test reaches fails here
    exported = {name for name in stable_smallball.__all__
                if inspect.isfunction(getattr(stable_smallball, name))
                or inspect.isclass(getattr(stable_smallball, name))}
    unused = sorted(exported - _names_used_in_package())
    assert not unused, f"exported but used nowhere in the package: {unused}"
