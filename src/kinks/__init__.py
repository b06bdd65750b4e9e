"""Exact counting and enumeration of chain flip histories by kink number.

A chain of n spin sites flips from all minus to all plus one site at a
time; the order of flips is a history.  Flips that open a new plus block
are kinks, and histories are counted by chain length n and kink number d
through five routes that must agree: exhaustive scanning, pruned
backtracking, generating-tree recurrences, closed-form series expansion,
and an explicit formula, a sum of powers i^n with polynomial weights,
which shares its binomial and power helpers with the series route.
"""

__version__ = "0.1.0"

#: The package surface is each library module's __all__, declared there
#: only, in this order.
_LIBRARY = ("algebra", "core", "genfunc", "oracle", "recurrence", "treedp", "verify")


def __getattr__(name: str) -> object:
    # The first read of a name the package lacks (PEP 562): `kinks.X`, `from
    # kinks import X` or `*`.  Import every library module and bind its
    # __all__ here, so that `import kinks` and a CLI request load only what
    # they run, and the names never come through here again.
    from importlib import import_module

    modules = [import_module(f"{__name__}.{stem}") for stem in _LIBRARY]
    surface = [(attr, getattr(module, attr)) for module in modules for attr in module.__all__]
    globals().update(surface)
    globals()["__all__"] = [*(attr for attr, _ in surface), "__version__"]
    if name in globals():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
