"""The LAPACK routines the package calls, from scipy's Fortran wrappers.

The routines live in the extension module scipy.linalg._flapack, but
importing it through scipy.linalg runs that package's whole init, which
costs more than the rest of `import invoc` together.  The top-level scipy
package is cheap and does scipy's own set-up of its bundled LAPACK, so this
module imports it and then loads the extension file straight from scipy's
directory.  The module is registered under its own name in sys.modules (or
taken from there if scipy.linalg got it first), so these are the very
routines that scipy.linalg.lapack exports.
"""

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import scipy

_NAME = "scipy.linalg._flapack"


def _load():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    folder = Path(scipy.__path__[0]) / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_flapack{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(_NAME, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[_NAME] = module
            spec.loader.exec_module(module)
            return module
    raise ImportError(
        f"no LAPACK extension _flapack in {folder} "
        f"(suffixes tried: {', '.join(importlib.machinery.EXTENSION_SUFFIXES)})"
    )


_flapack = _load()
dgbtrf, dgbtrs = _flapack.dgbtrf, _flapack.dgbtrs
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs
