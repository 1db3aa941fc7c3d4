"""Kernel backend selection: the compiled extension when it is importable,
else the pure-Python fallback."""

try:
    from . import _kernel as kernel  # type: ignore[attr-defined]
except ImportError:
    from . import _kernel_py as kernel

BACKEND_NAME = kernel.BACKEND
