"""The LAPACK loader: `import invoc` does not run scipy.linalg's init, and
its routines are the objects scipy.linalg.lapack exports, whichever of the
two a process imports first."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy
import scipy.linalg.lapack

import invoc
from invoc import _lapack

ROUTINES = ("dgbtrf", "dgbtrs", "dpttrf", "dpttrs")


def _run(code: str) -> str:
    """stdout of a fresh interpreter that imports the invoc this test imported."""
    env = dict(os.environ)
    src = str(Path(invoc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_scipy_linalg_unloaded():
    assert _run("import sys, invoc; print('scipy.linalg' in sys.modules)") == "False"


def test_routines_are_scipy_lapacks_with_invoc_imported_first():
    # the test session imported invoc (conftest.py) before this module
    # imported scipy.linalg
    for name in ROUTINES:
        assert getattr(_lapack, name) is getattr(scipy.linalg.lapack, name), name


def test_routines_are_scipy_lapacks_with_scipy_linalg_imported_first():
    code = (
        "import scipy.linalg.lapack as lapack\n"
        "from invoc import _lapack\n"
        f"print(all(getattr(_lapack, n) is getattr(lapack, n) for n in {ROUTINES!r}))\n"
    )
    assert _run(code) == "True"


def test_missing_extension_names_folder_and_suffixes(monkeypatch, tmp_path):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match="suffixes tried") as err:
        _lapack._load()
    assert str(tmp_path / "linalg") in str(err.value)
