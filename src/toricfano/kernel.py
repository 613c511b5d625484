"""Kernel selection: compiled fast path when available, pure Python otherwise.

Only :func:`det` has a compiled version.  The fast kernel raises
OverflowError whenever 64-bit arithmetic could lose exactness; the wrapper
here retries in the pure kernel, so every result is exact regardless of
which backend is active.  Set TORICFANO_PURE_KERNEL=1 (or call
:func:`set_backend`) to force the pure kernel.  ``inverse`` is the pure
kernel's, whichever backend is active.
"""

import os

from . import _kernel_pure as _pure

try:
    from . import _kernel_fast as _fast
except ImportError:
    _fast = None

_active = _pure if (_fast is None or os.environ.get("TORICFANO_PURE_KERNEL")) else _fast


def backend_name():
    return "pure" if _active is _pure else "fast"


def available_backends():
    return ("pure",) if _fast is None else ("pure", "fast")


def set_backend(name):
    """Select 'pure' or 'fast' at runtime (used by tests and benchmarks)."""
    global _active
    if name == "pure":
        _active = _pure
    elif name == "fast":
        if _fast is None:
            raise ValueError("fast kernel is not built")
        _active = _fast
    else:
        raise ValueError(f"unknown kernel backend {name!r}")


def det(rows):
    try:
        return _active.det(rows)
    except OverflowError:
        return _pure.det(rows)


inverse = _pure.inverse
