"""The non-private centralized pub-sub baseline (paper §6.2)."""

from .system import BaselineSystem

__all__ = ["BaselineSystem"]
