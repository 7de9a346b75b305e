"""The LAPACK routines the package calls, from scipy's Fortran wrappers.

The routines live in the extension module scipy.linalg._flapack.  Importing
it through scipy runs scipy's package init and, through scipy.linalg, that
package's too, which together cost more than the rest of `import invoc`.
The package needs none of that Python code, so this module only asks the
import system where scipy is installed (importlib.util.find_spec, which
runs nothing) and loads the extension file straight from there.  The
module is registered under its own name in sys.modules (or taken from
there if scipy.linalg got it first), so these are the very routines that
scipy.linalg.lapack exports.

Where the wheel links the extension to its bundled libraries itself (an
RPATH on Linux, @loader_path on macOS) the load needs nothing else.  Some
wheels, such as delvewheel-repaired Windows ones, put their library folder
on the search path only in scipy/__init__.py; so if the load fails, scipy
is imported and the load tried once more.
"""

import importlib
import importlib.machinery
import importlib.util
import sys
from pathlib import Path

_NAME = "scipy.linalg._flapack"


def _load_from(folder: Path):
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_flapack{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(_NAME, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_NAME] = module  # only once loaded, so a failed load leaves no entry
            return module
    raise ImportError(
        f"no LAPACK extension _flapack in {folder} "
        f"(suffixes tried: {', '.join(importlib.machinery.EXTENSION_SUFFIXES)})"
    )


def _load():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    found = importlib.util.find_spec("scipy")
    if found is None or not found.submodule_search_locations:
        raise ModuleNotFoundError("invoc needs scipy, which is not installed", name="scipy")
    folder = Path(found.submodule_search_locations[0]) / "linalg"
    try:
        return _load_from(folder)
    except ImportError:
        importlib.import_module("scipy")
        return _load_from(folder)


_flapack = _load()
dgbtrf, dgbtrs = _flapack.dgbtrf, _flapack.dgbtrs
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs
