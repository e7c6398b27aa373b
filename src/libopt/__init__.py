"""Benchmarking toolchain: run solvers on problems from heterogeneous
collections, gather their standardized result lines into a portable
store, and compare solvers with performance profiles."""

__version__ = "0.1.0"

__all__ = [
    "LiboptRecord",
    "TokenConfig",
    "TokenPair",
    "parse_line",
    "serialize",
    "Store",
    "__version__",
]


def __getattr__(name: str):
    """A re-export, imported on first use (PEP 562): a call that needs no
    store, such as ``libopt --version``, does not load one."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    home = import_module(".store" if name == "Store" else ".record", __name__)
    value = globals()[name] = getattr(home, name)
    return value
