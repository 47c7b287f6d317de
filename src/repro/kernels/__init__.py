"""Pluggable compiled kernels for the raster-join hot loops.

The three hot loops of every raster join — point scatter into canvases,
scanline fragment expansion, and the gather join — are pure array
kernels.  This package puts them behind a tiny registry so an optional
compiled implementation (numba) can replace the NumPy one without any
call-site changes:

* ``numpy`` — always available, the reference implementation (moved
  here from ``repro.raster.canvas``).
* ``numba`` — ``@njit`` sequential loops, registered only when numba
  imports.  Every loop applies contributions in the same element order
  as its NumPy counterpart (``np.bincount`` / ``np.add.at`` are
  element-sequential C loops), so switching kernels never changes a
  single output bit.

Selection is **process-global**: every engine in the process runs the
same kernel.  ``select()`` is explicit; ``active()`` lazily resolves the
``REPRO_KERNEL`` environment variable (default ``auto``) on first use.
The resolved choice is surfaced per query in ``stats["plan"]["kernel"]``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from ..errors import ExecutionError

VALID_REQUESTS = ("auto", "numpy", "numba")


@dataclass(frozen=True)
class Kernel:
    """One implementation of the raster-join hot loops.

    All callables share the NumPy implementations' signatures and
    must be bitwise output-compatible with them (see module docstring).
    """

    name: str
    # Point scatter (blending) into canvases.
    scatter_count: Callable
    scatter_sum: Callable
    # In-place element-ordered accumulate (the point pipeline's fold,
    # chained across chunks; must match ``np.add.at`` bit for bit).
    scatter_add_at: Callable
    # Gather join (canvas -> per-polygon aggregates over fragments).
    gather_sum: Callable
    gather_min: Callable
    gather_max: Callable
    # Ragged (start, length) run expansion — scanline span fill and
    # pixel-bucket candidate fetch both reduce to this.
    expand_ranges: Callable


_KERNELS: dict[str, Kernel] = {}
_requested: str | None = None
_active: Kernel | None = None


def register(kernel: Kernel) -> Kernel:
    _KERNELS[kernel.name] = kernel
    return kernel


def numba_available() -> bool:
    """Whether the numba kernel registered (numba importable)."""
    return "numba" in _KERNELS


def available_kernels() -> dict[str, bool]:
    return {name: True for name in sorted(_KERNELS)}


def select(name: str = "auto") -> Kernel:
    """Select the process-global kernel.

    ``auto`` prefers numba when importable and falls back to NumPy.
    Requesting ``numba`` explicitly when it is not importable raises
    loud rather than silently degrading.
    """
    global _requested, _active
    if name not in VALID_REQUESTS:
        raise ExecutionError(
            f"unknown kernel {name!r}; valid: {', '.join(VALID_REQUESTS)}")
    if name == "auto":
        chosen = _KERNELS.get("numba") or _KERNELS["numpy"]
    elif name not in _KERNELS:
        raise ExecutionError(
            f"kernel {name!r} requested but not available "
            f"(is numba installed?); use kernel='numpy' or 'auto'")
    else:
        chosen = _KERNELS[name]
    _requested = name
    _active = chosen
    return chosen


def active() -> Kernel:
    """The selected kernel, resolving ``REPRO_KERNEL`` on first use."""
    if _active is None:
        select(os.environ.get("REPRO_KERNEL", "auto"))
    return _active


def info() -> dict:
    """What was asked for and what actually runs — recorded per query
    in ``stats["plan"]["kernel"]``."""
    kernel = active()
    return {
        "requested": _requested,
        "selected": kernel.name,
        "numba_available": numba_available(),
    }


# -- registration ----------------------------------------------------------

from . import numpy_impl as _numpy_impl  # noqa: E402

register(Kernel(name="numpy", **_numpy_impl.functions()))

from . import numba_impl as _numba_impl  # noqa: E402

if _numba_impl.NUMBA_AVAILABLE:
    register(Kernel(name="numba", **_numba_impl.functions()))
