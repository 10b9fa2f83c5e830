"""x86-TSO: the store-buffer backend behind ``resolve_model("tso")``."""

from .backend import (
    FlushAgent,
    FlushOp,
    TsoExecutionState,
    TsoExecutor,
)

__all__ = [
    "FlushAgent",
    "FlushOp",
    "TsoExecutionState",
    "TsoExecutor",
]
