"""Every script under ``examples/`` imports cleanly.

The examples do their work under ``if __name__ == "__main__":``, so
importing one runs nothing; it only resolves the names it pulls from
the package.  This catches an example left behind when a name moves.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(
        "example_" + path.stem, str(path)
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None)), path.name
