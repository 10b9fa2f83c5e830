"""Record/replay: make any randomized bug-finding run reproducible."""

from .minimize import (
    MinimalConfig,
    greedy_ddmin,
    minimize_configuration,
    minimize_trace,
)
from .recording import (
    ReplayScheduler,
    find_and_record,
    record_run,
    replay_run,
)
from .trace import Trace

__all__ = [
    "MinimalConfig",
    "ReplayScheduler",
    "Trace",
    "find_and_record",
    "greedy_ddmin",
    "minimize_configuration",
    "minimize_trace",
    "record_run",
    "replay_run",
]
