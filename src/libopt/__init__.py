"""Benchmarking toolchain: run solvers on problems from heterogeneous
collections, gather their standardized result lines into a portable
store, and compare solvers with performance profiles."""

__version__ = "0.1.0"
