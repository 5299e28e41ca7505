"""The error classes: each exported one is defined in zpint.errors and raised in zpint."""

import ast
from pathlib import Path

import zpint.errors as errors

SRC = Path(errors.__file__).parent


def raised_names() -> set[str]:
    """Names of the classes a raise statement of a zpint module names."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_is_defined_and_raised():
    """errors.__all__ lists exactly the exception classes errors.py defines,
    and each is raised somewhere in src/zpint, itself or through a subclass."""
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, Exception)
               and value.__module__ == errors.__name__}
    assert set(errors.__all__) == defined
    raised = [getattr(errors, name) for name in raised_names() & defined]
    for name in errors.__all__:
        cls = getattr(errors, name)
        assert any(issubclass(r, cls) for r in raised), f"{name} is never raised"
