"""Campaign-as-a-service: a supervised job daemon over the harness.

``python -m repro serve`` runs :class:`~repro.service.daemon
.CampaignDaemon`; ``python -m repro job ...`` talks to it through
:class:`~repro.service.client.ServiceClient`.  Specs, queueing, and the
HTTP surface live in :mod:`~repro.service.jobs`,
:mod:`~repro.service.queue`, and :mod:`~repro.service.api`.
"""

from .client import DEFAULT_URL, ServiceClient, ServiceError
from .daemon import DEFAULT_PORT, CampaignDaemon, IdempotencyConflict
from .jobs import JobSpec, result_summary, run_job
from .queue import Job, JobQueue, TokenBucket

__all__ = [
    "CampaignDaemon",
    "DEFAULT_PORT",
    "DEFAULT_URL",
    "IdempotencyConflict",
    "Job",
    "JobQueue",
    "JobSpec",
    "ServiceClient",
    "ServiceError",
    "TokenBucket",
    "result_summary",
    "run_job",
]
