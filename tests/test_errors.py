"""Every error class in ``distcode.errors`` is raised by the package and
exported by it, so none is dead surface."""

import ast
import inspect
import pathlib

import pytest

import distcode
from distcode import errors

SRC = pathlib.Path(distcode.__file__).parent
ERRORS = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.DistcodeError) and cls is not errors.DistcodeError
]


def _raised_names() -> set[str]:
    """Names X of every ``raise X(...)`` in the package's source."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)):
                names.add(node.exc.func.id)
    return names


RAISED = _raised_names()


def test_the_error_list_is_not_empty():
    assert len(ERRORS) >= 10


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_is_raised_and_exported(cls):
    assert cls.__name__ in RAISED
    assert getattr(distcode, cls.__name__, None) is cls
