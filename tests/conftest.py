"""Shared test helper: one reset for every cache of the package.

The caches are collected once, when pytest imports this file and before any
test module runs or patches anything.  Every module of the package is
imported, and each attribute's `__wrapped__` chain is followed, so a cache
behind a decorator is found, and a test that monkeypatches a cached
function's module attribute still has the real cache emptied.
"""

import importlib
import pkgutil

import vtknot


def _package_caches():
    found = {}
    for info in pkgutil.iter_modules(vtknot.__path__):
        module = importlib.import_module(f"vtknot.{info.name}")
        for obj in vars(module).values():
            while obj is not None:
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
                obj = getattr(obj, "__wrapped__", None)
    return tuple(found.values())


_CACHES = _package_caches()


def clear_caches():
    """Empty every functools cache of the package, as a cold run starts."""
    for cached in _CACHES:
        cached.cache_clear()
