"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports its submodules' names with
``from .sub import name`` loads every one of those submodules whenever
anything under the package is imported: ``import repro.sim.engine`` would
also load the whole scheduler zoo through ``repro/__init__``.  Instead,
each such package hands :func:`lazy_exports` a table of its public names
and the submodule defining each, and the submodule is imported the first
time one of its names is read.  ``from repro import WF2QPlusScheduler``
then loads ``repro.core.wf2qplus`` and what it imports, nothing else.
"""

from importlib import import_module

__all__ = ["lazy_exports"]


def lazy_exports(namespace, exports):
    """The module ``__getattr__`` and ``__dir__`` of a lazily exporting
    package.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    lazily exported name to the absolute name of the module defining it.
    ``__getattr__`` imports that module on the first read of a name and
    stores the value in ``namespace``, so every later read is a plain
    attribute lookup; any other name raises :class:`AttributeError`.
    ``__dir__`` lists the lazy names next to the loaded ones.

    A name that is also the name of its defining submodule cannot be lazy:
    importing the submodule binds the module object to the package
    attribute, and ``__getattr__`` is never consulted again.  Import such a
    name eagerly in the package ``__init__``.
    """
    package = namespace["__name__"]

    def __getattr__(name):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
