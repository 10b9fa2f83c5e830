"""Campaign-as-a-service: a supervised job daemon over the harness.

``python -m repro serve`` runs :class:`~repro.service.daemon
.CampaignDaemon`; ``python -m repro job ...`` talks to it through
:class:`~repro.service.client.ServiceClient`.  Specs, queueing, and the
HTTP surface live in :mod:`~repro.service.jobs`,
:mod:`~repro.service.queue`, and :mod:`~repro.service.api`.

Each name loads its submodule on first use: the CLI's flags need
:mod:`~repro.service.jobs`, not the HTTP client and daemon.
"""

import importlib

#: Public name -> the submodule defining it.
_EXPORTS = {name: module for module, names in {
    "client": ("DEFAULT_URL", "ServiceClient", "ServiceError"),
    "daemon": ("DEFAULT_PORT", "CampaignDaemon", "IdempotencyConflict"),
    "jobs": ("JobSpec", "result_summary", "run_job"),
    "queue": ("Job", "JobQueue", "TokenBucket"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                   name)
