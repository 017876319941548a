"""README.md, docs/*.md and module docstrings may only name things that exist.

Three kinds of reference are checked, each the way a reader would use
it: a backticked repo-rooted path must be a file or directory (and a
``::test_id`` after it a ``def``/``class`` in that file), a
``repro.<dotted.name>`` must resolve by import + ``getattr``, and a name
imported ``from repro`` in a fenced code block must be in
``repro.__all__``.  Module docstrings under ``src/`` are held to the
first rule for the ``benchmarks/`` and ``tests/`` files they cite.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

_PATH = re.compile(r"`((?:src|tests|benchmarks|docs|examples)/[^`\s]*)`")
#: in a docstring a bench is also cited by bare file name
_DOCSTRING_PATH = re.compile(
    r"``((?:src|tests|benchmarks|docs|examples)/[^`\s]*|bench_\w+\.py)``"
)
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
_FENCE = re.compile(r"```.*?```", re.DOTALL)
_FROM_REPRO = re.compile(r"^from repro import (\([^)]*\)|[^\n]*)", re.MULTILINE)


def _doc_id(path: Path) -> str:
    return str(path.relative_to(ROOT))


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def test_there_are_docs_to_check():
    assert len(DOCS) >= 5


def _stale(refs) -> list[str]:
    stale = []
    for ref in refs:
        path, *test_id = ref.split("::")
        if "<" in path:  # a placeholder such as benchmarks/<file>
            continue
        if path.startswith("bench_"):
            path = f"benchmarks/{path}"
        target = ROOT / path
        if "*" in path:
            found = any(ROOT.glob(path))
        elif test_id:
            source = target.read_text() if target.is_file() else ""
            found = all(
                re.search(rf"\b(?:def|class) {re.escape(name)}\b", source)
                for name in test_id
            )
        else:
            found = target.exists()
        if not found:
            stale.append(ref)
    return stale


@pytest.mark.parametrize("doc", DOCS, ids=_doc_id)
def test_backticked_paths_exist(doc):
    stale = _stale(_PATH.findall(doc.read_text()))
    assert not stale, f"{_doc_id(doc)} names missing paths: {stale}"


def test_module_docstrings_cite_existing_files():
    stale = {}
    for module in sorted((ROOT / "src").rglob("*.py")):
        docstring = ast.get_docstring(ast.parse(module.read_text())) or ""
        missing = _stale(_DOCSTRING_PATH.findall(docstring))
        if missing:
            stale[_doc_id(module)] = missing
    assert not stale, f"module docstrings name missing paths: {stale}"


@pytest.mark.parametrize("doc", DOCS, ids=_doc_id)
def test_dotted_names_resolve(doc):
    names = sorted(set(_DOTTED.findall(doc.read_text())))
    stale = [name for name in names if not _resolves(name)]
    assert not stale, f"{_doc_id(doc)} names unresolvable objects: {stale}"


@pytest.mark.parametrize("doc", DOCS, ids=_doc_id)
def test_fenced_top_level_imports_are_exported(doc):
    stale = []
    for block in _FENCE.findall(doc.read_text()):
        for names in _FROM_REPRO.findall(block):
            names = re.sub(r"#[^\n]*|\bas\s+\w+", "", names)
            stale += [
                name
                for name in re.findall(r"[A-Za-z_]\w*", names)
                if name not in repro.__all__
            ]
    assert not stale, f"{_doc_id(doc)} imports from repro: {stale} not in __all__"
