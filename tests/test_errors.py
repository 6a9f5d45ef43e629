"""Every exception class in vocalnet.errors is raised somewhere in the package.

A class that no code raises, and that is no base of one that is, guards
nothing; this scan keeps such a class from coming back.
"""

import ast
from pathlib import Path

import vocalnet
from vocalnet import errors

PACKAGE = Path(vocalnet.__file__).parent


def raised_names() -> set[str]:
    """Names in `raise Name` and `raise Name(...)` statements of the package."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_class_is_raised_or_a_base_of_one():
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, Exception)
               and cls.__module__ == errors.__name__}
    raised = [classes[name] for name in raised_names() & classes.keys()]
    unused = sorted(name for name, cls in classes.items()
                    if not any(issubclass(r, cls) for r in raised))
    assert unused == []
