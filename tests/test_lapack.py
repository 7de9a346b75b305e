"""The LAPACK loader: `import invoc` runs none of scipy's Python code, and
its routines are the objects scipy.linalg.lapack exports, whichever of the
two a process imports first.  Nor does it load numpy.fft, which the sine
transform loads on first use.  Each import costs one fresh interpreter."""

import importlib
import importlib.machinery
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


@pytest.fixture(scope="module")
def invoc_first() -> dict:
    """A fresh interpreter that imports invoc, then scipy.linalg.lapack, and
    solves with scipy.linalg as bench/hostspeed.py does."""
    code = (
        "import json, sys, invoc\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import scipy.linalg, scipy.linalg.lapack as lapack\n"
        "from invoc import _lapack\n"
        f"same = all(getattr(_lapack, n) is getattr(lapack, n) for n in {ROUTINES!r})\n"
        "x = scipy.linalg.cho_solve_banded(([[0.0, 1.0], [2.0, 2.0]], False), [1.0, 1.0])\n"
        "print(json.dumps({'loaded': loaded, 'same': same, 'x': x.tolist()}))\n"
    )
    return json.loads(_run(code))


def test_import_leaves_scipy_linalg_unloaded(invoc_first):
    assert "scipy.linalg" not in invoc_first["loaded"]
    # nor scipy's top-level package, where the wheel links the extension to
    # its libraries itself; Windows wheels add their DLL folder to the search
    # path in scipy/__init__.py, so there the loader's retry imports scipy
    if sys.platform != "win32":
        assert invoc_first["loaded"] == ["scipy.linalg._flapack"]


def test_import_leaves_numpy_fft_unloaded():
    # numpy 2 loads numpy.fft on first use, numpy 1 with numpy itself
    code = ("import sys, numpy\n"
            "before = 'numpy.fft' in sys.modules\n"
            "import invoc\n"
            "print(numpy.__version__.split('.')[0], before, 'numpy.fft' in sys.modules)\n")
    major, before, after = _run(code).split()
    assert after == before == ("False" if int(major) >= 2 else "True")


def test_routines_are_scipy_lapacks_with_invoc_imported_first(invoc_first):
    assert invoc_first["same"]
    # the banded Cholesky factor [[2, 1], [0, 2]] of [[4, 2], [2, 5]]
    np.testing.assert_allclose(invoc_first["x"], np.linalg.solve([[4.0, 2.0], [2.0, 5.0]], [1.0, 1.0]))


def test_routines_are_scipy_lapacks_with_scipy_linalg_imported_first():
    code = (
        "import scipy.linalg.lapack as lapack\n"
        "from invoc import _lapack\n"
        f"print(all(getattr(_lapack, n) is getattr(lapack, n) for n in {ROUTINES!r}))\n"
    )
    assert _run(code) == "True"


@pytest.fixture
def scipy_at(monkeypatch):
    """Point the loader's lookup of scipy at a folder (None: not installed),
    with the extension not loaded yet; returns the list of modules the
    loader then imports."""
    monkeypatch.delitem(sys.modules, _lapack._NAME)
    find_spec, import_module = importlib.util.find_spec, importlib.import_module
    imported = []

    def place(folder):
        def fake(name, *args):
            if name != "scipy":
                return find_spec(name, *args)
            if folder is None:
                return None
            spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
            spec.submodule_search_locations.append(str(folder))
            return spec

        monkeypatch.setattr(importlib.util, "find_spec", fake)
        monkeypatch.setattr(importlib, "import_module",
                            lambda name: imported.append(name) or import_module(name))
        return imported

    return place


def test_missing_extension_names_folder_and_suffixes(scipy_at, tmp_path):
    imported = scipy_at(tmp_path)
    with pytest.raises(ImportError, match="suffixes tried") as err:
        _lapack._load()
    assert str(tmp_path / "linalg") in str(err.value)
    assert imported == ["scipy"]  # the retry ran, and failed the same way
    assert _lapack._NAME not in sys.modules


def test_missing_scipy_names_it(scipy_at):
    imported = scipy_at(None)
    with pytest.raises(ImportError, match="scipy") as err:
        _lapack._load()
    assert err.value.name == "scipy"
    assert imported == []


def test_failed_load_imports_scipy_and_loads_again(scipy_at, monkeypatch, tmp_path):
    imported = scipy_at(tmp_path)
    calls, module = [], object()

    def load_from(folder):
        calls.append((folder, list(imported)))
        if len(calls) == 1:
            raise ImportError("DLL load failed")
        return module

    monkeypatch.setattr(_lapack, "_load_from", load_from)
    assert _lapack._load() is module
    assert calls == [(tmp_path / "linalg", []), (tmp_path / "linalg", ["scipy"])]
