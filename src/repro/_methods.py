"""Solver method names shared by the CLI, the ``/v1`` parser and the solvers.

Kept free of numpy/scipy imports so argument parsing (``--help``
included) can validate ``--method`` without loading the numeric stack.
"""

from __future__ import annotations

__all__ = ["TRANSIENT_METHODS"]

#: The accepted transient ``method=`` names, default first.
TRANSIENT_METHODS = ("uniformisation", "adaptive", "auto")
