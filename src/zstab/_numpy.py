"""numpy, loaded on first use.

Root finding, the root condition, the consistency check and Table 8 run on
Python numbers, so ``zstab analyze`` and ``zstab table-verify`` need no
numpy; importing it costs more than the rest of a run.  Every module of
the package takes numpy from here, ``from ._numpy import np``, and this
module alone decides when it loads, following the lazy-import recipe of
the ``importlib`` documentation:

- if numpy is already in ``sys.modules``, ``np`` is that module;
- otherwise ``np`` is a ``LazyLoader`` module, registered in
  ``sys.modules`` as ``numpy``, that runs numpy's ``__init__`` at its first
  attribute read and from then on is the numpy module object itself;
- if numpy is not installed, importing this module raises
  ``ModuleNotFoundError``, as ``import numpy`` would.

So a caller who imports numpy before zstab gets no lazy module at all.

Threads: on Python 3.10 and 3.11, ``LazyLoader`` loads the module without
a lock, so the first attribute read of the lazy module must not race
between threads; a second thread could see numpy half initialised.  The
CLI is single-threaded.  A threaded caller imports numpy first, or reads
one attribute of ``np`` before it starts its threads.
"""

from __future__ import annotations

import importlib.util
import sys

__all__ = ["np"]


def _lazy(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy("numpy")
