"""The two ``scipy.special`` ufuncs ``multisum`` calls, without the package's init.

``multisum`` calls only ``gammaln`` and ``eval_laguerre``, two compiled
ufuncs of ``scipy.special._ufuncs``.  Importing ``scipy.special``
itself costs about 0.25 s of the 0.45 s of a cold ``import multisum.cli``
(SciPy 1.17.1, NumPy 2.4, ``python -X importtime`` on a 2-vCPU VM), of which
``_ufuncs`` takes 11 ms: about 0.22 s goes to
``_support_alternative_backends``, whose array-API layer clones NumPy's
namespace and so loads ``numpy.f2py`` and ``numpy.testing``.

So the extension module is loaded under a bare stand-in package, a
``types.ModuleType("scipy.special")`` whose ``__path__`` is SciPy's
``special`` directory, and the stand-in is removed at once.  A later
``import scipy.special`` (``scipy.integrate`` makes one) runs the real init,
which finds ``_ufuncs`` loaded and reuses it, so these are the very objects
``scipy.special`` exports and every value is the same.  When
``scipy.special`` is already loaded, or another SciPy layout refuses the
private import, the public names are used.

There is no lock: the stand-in exists only while ``multisum`` itself is
imported, and the CLI starts no thread before then.
"""

import importlib.util
import sys
import types

__all__ = ["gammaln", "eval_laguerre"]

try:
    if "scipy.special" in sys.modules:
        raise ImportError("scipy.special is loaded")
    _stand_in = types.ModuleType("scipy.special")
    _stand_in.__path__ = list(importlib.util.find_spec("scipy.special").submodule_search_locations)
    sys.modules["scipy.special"] = _stand_in
    try:
        from scipy.special._ufuncs import eval_laguerre, gammaln
    finally:
        del sys.modules["scipy.special"]
        del _stand_in
except ImportError:
    from scipy.special import eval_laguerre, gammaln
