"""Source hygiene: no module imports a name that it never uses, no module
of the package imports scipy (the LAPACK loader reaches scipy's extension
through importlib), only model's writer writes files or encodes JSON, and
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
    # running scipy's package inits; no other scipy code sits beside them
    assert _scipy_imports(path.read_text()) == []


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


_WRITER = {"write_file", "write_json"}  # model.py's one writer
_WRITE_MODE = set("wax+")


def _file_writes(source: str) -> list[str]:
    """Every place that writes a file or encodes JSON, as "function: call":
    open() in a writing mode, Path.write_text/write_bytes, os.open, os.fdopen,
    os.replace, os.rename, json.dump, json.dumps, and any use of tempfile."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        what = None
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                dotted = f"{f.value.id}.{f.attr}"
                if dotted in {"os.open", "os.fdopen", "os.replace", "os.rename",
                              "json.dump", "json.dumps"}:
                    what = dotted
            if isinstance(f, ast.Attribute) and f.attr in {"write_text", "write_bytes"}:
                what = f".{f.attr}"
            is_open = isinstance(f, ast.Name) and f.id == "open"
            is_path_open = isinstance(f, ast.Attribute) and f.attr == "open" and what is None
            if is_open or is_path_open:
                modes = [k.value for k in node.keywords if k.arg == "mode"]
                modes += node.args[1 if is_open else 0:][:1]
                if any(not isinstance(m, ast.Constant) or _WRITE_MODE & set(str(m.value))
                       for m in modes):
                    what = "open"
        elif isinstance(node, ast.Name) and node.id == "tempfile":
            what = "tempfile"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = node.module if isinstance(node, ast.ImportFrom) else None
            for alias in node.names:
                if alias.name == "tempfile" or module == "tempfile":
                    what = "tempfile"
                elif module in ("os", "json") and alias.name in {"open", "fdopen", "replace",
                                                                  "rename", "dump", "dumps"}:
                    what = f"{module}.{alias.name}"
        if what is not None:
            found.append(f"{where}: {what}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "invoc").glob("*.py")), ids=lambda p: p.name)
def test_package_writes_files_only_through_the_writer(path):
    # one atomic writer, so every file gets the same durability and mode rule
    writes = _file_writes(path.read_text())
    if path.name == "model.py":
        writes = [w for w in writes if w.split(":")[0] not in _WRITER]
    assert writes == []


def test_write_scan_flags_every_writing_call():
    source = (
        "import tempfile\nfrom os import replace\n"
        "def f(p, q):\n"
        "    open(p, 'w'); open(p, mode='ab'); open(p); open(p, 'rb'); p.open('x'); p.open()\n"
        "    open(p, q); p.write_text('a'); p.write_bytes(b'a'); os.open(p, 0)\n"
        "    os.fdopen(3); os.replace(p, q); os.rename(p, q); json.dump(1, p); json.dumps(1)\n"
        "    json.loads('1')\n"
    )
    assert _file_writes(source) == [
        "<module>: tempfile", "<module>: os.replace",
        "f: open", "f: open", "f: open", "f: open", "f: .write_text", "f: .write_bytes",
        "f: os.open", "f: os.fdopen", "f: os.replace", "f: os.rename",
        "f: json.dump", "f: json.dumps",
    ]
