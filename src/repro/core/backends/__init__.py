"""Backend registry: every execution strategy behind one interface.

Importing this package registers the seven built-in backends —
``bounded``, ``accurate``, ``tiled`` (raster family), ``naive``,
``grid`` (exact baselines), ``cube`` and ``tcube-raster``
(pre-aggregation).  Third-party and test backends plug in with the same
:func:`register_backend` decorator; the executor resolves every method
name through :func:`get_backend`, so there is no dispatch ladder to
extend.
"""

from .base import Backend, BackendCapabilities, ExecutionPlan
from .registry import (
    backend_names,
    get_backend,
    has_backend,
    register_backend,
    unregister_backend,
)

# Importing the adapter modules triggers their registration.
from . import raster as _raster  # noqa: F401,E402
from . import baseline as _baseline  # noqa: F401,E402
from . import cube as _cube  # noqa: F401,E402
from . import tcube as _tcube  # noqa: F401,E402

__all__ = [
    "Backend",
    "BackendCapabilities",
    "ExecutionPlan",
    "backend_names",
    "get_backend",
    "has_backend",
    "register_backend",
    "unregister_backend",
]
