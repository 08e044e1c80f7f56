"""Modules loaded on first use: numpy, and the modules ``zstab.cli`` runs.

Root finding, the root condition, the consistency check and Table 8 run on
Python numbers, so ``zstab analyze`` and ``zstab table-verify`` need no
numpy; importing it costs more than the rest of a run.  Every module of
the package takes numpy from here, ``from ._lazy import np``.  Likewise
``zstab.cli`` takes each module that runs a command from ``lazy``, so that
building its parser runs the body of none of them.  ``lazy`` follows the
lazy-import recipe of the ``importlib`` documentation:

- if the module is already in ``sys.modules``, it returns that module;
- otherwise it returns a ``LazyLoader`` module, registered in
  ``sys.modules`` under its name and, for a submodule, bound on its
  package as the import system binds it; the module runs its body at its
  first attribute read and is from then on the module object itself;
- if the module is not installed, it raises ``ModuleNotFoundError``, as an
  import would.

So a caller who imports numpy before zstab gets no lazy module at all.

Threads: on Python 3.10 and 3.11, ``LazyLoader`` loads the module without
a lock, so the first attribute read of a lazy module must not race
between threads; a second thread could see the module half initialised.
That holds for numpy and for every module that ``zstab.cli`` made lazy
(``polyroots``, ``schemes``, ``zerosnet``, ``ivp``, ``propagation``,
``table8`` and ``_table``).  The CLI is single-threaded.  A threaded caller
imports numpy and those modules before it starts its threads; an import
statement loads a lazy module that is already registered.
"""

from __future__ import annotations

import importlib.util
import sys

__all__ = ["lazy", "np"]


def lazy(name: str):
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
    package, _, child = name.rpartition(".")
    if package:
        setattr(sys.modules[package], child, module)
    return module


np = lazy("numpy")
