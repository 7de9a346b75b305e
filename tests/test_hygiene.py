"""Source hygiene: no module imports a name that it never uses, only the
package's LAPACK loader imports scipy, and only its top-level package, and
every module-level function or class of the package is used in it or public.

The package's __init__.py is exempt from the unused-import scan: its imports
are the public re-exports.  An import on a line marked `# noqa: F401` is kept
for its side effect, such as the benchmark's timed first import of the
package.
"""

import ast
from pathlib import Path

import pytest

import invoc

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    [p for p in (ROOT / "src" / "invoc").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "bench").glob("*.py"))
)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = "import os\nfrom math import pi, tau\nimport sys  # noqa: F401\nprint(pi)\n"
    assert _unused_imports(source) == ["line 1: os", "line 2: tau"]


def _scipy_imports(source: str) -> list[str]:
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            modules.append(node.module)
    return [m for m in modules if m.split(".")[0] == "scipy"]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "invoc").glob("*.py")), ids=lambda p: p.name)
def test_package_calls_scipy_only_through_lapack(path):
    # solves go straight to LAPACK routines, which _lapack.py loads without
    # scipy.linalg's package init; no other scipy code sits beside them
    assert _scipy_imports(path.read_text()) == (["scipy"] if path.name == "_lapack.py" else [])


def test_scipy_scan_flags_every_other_import():
    source = "import scipy.fft\nfrom scipy.linalg import cholesky_banded\nfrom scipy.linalg.lapack import dpttrs\n"
    assert _scipy_imports(source) == ["scipy.fft", "scipy.linalg", "scipy.linalg.lapack"]


def _unreferenced(sources: list[str], public) -> list[str]:
    """Module-level functions and classes that no source names and that are
    not public; a reference is any name or attribute with that identifier."""
    defined, named = [], set()
    for source in sources:
        tree = ast.parse(source)
        defined += [node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return [name for name in defined if name not in named and name not in public]


def test_every_package_definition_is_used_or_public():
    sources = [p.read_text() for p in sorted((ROOT / "src" / "invoc").glob("*.py"))]
    assert _unreferenced(sources, invoc.__all__) == []


def test_definition_scan_flags_unused_names():
    a = "def used():\n    pass\ndef dead():\n    pass\nclass Public:\n    pass\n"
    b = "from a import used\nused()\nimport a\na.Dead\n"
    assert _unreferenced([a, b, "class Dead:\n    pass\n"], ["Public"]) == ["dead"]
