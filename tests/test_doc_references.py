"""The documents point only at tests that exist.

DESIGN.md, ARCHITECTURE.md and README.md name the tests that pin their
invariants as ``tests/<file>.py`` or ``tests/<file>.py::Name[::name]``.
Each name is resolved by walking the file's syntax tree (nothing is
imported), so a renamed or deleted test turns this red instead of
leaving a document pointing at nothing.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = ("DESIGN.md", "ARCHITECTURE.md", "README.md")
REFERENCE = re.compile(r"tests/[\w/]+\.py(?:::\w+)*")


def references():
    return sorted(
        {
            (document, match.group())
            for document in DOCUMENTS
            for match in REFERENCE.finditer(
                (ROOT / document).read_text(encoding="utf-8")
            )
        }
    )


def defines(body, name):
    """The function or class ``name`` defined directly in ``body``."""
    for node in body:
        if (
            isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
            and node.name == name
        ):
            return node
    return None


def test_the_documents_name_tests():
    """The pattern still finds what the documents cite."""
    assert len(references()) >= 20


@pytest.mark.parametrize(
    "document,reference", references(), ids=lambda value: value
)
def test_a_named_test_exists(document, reference):
    path, *names = reference.split("::")
    source = ROOT / path
    assert source.is_file(), f"{document} names missing {path}"
    scope = ast.parse(source.read_text(encoding="utf-8")).body
    for name in names:
        node = defines(scope, name)
        assert node is not None, f"{document} names missing {reference}"
        scope = node.body
