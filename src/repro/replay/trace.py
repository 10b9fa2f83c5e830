"""Serializable decision traces.

A randomized test run is fully determined by the sequence of scheduler
decisions: which thread stepped, and which visible write each read
observed (recorded as an index into the candidate list, which is itself a
deterministic function of the prior decisions).  Recording that sequence
makes any found bug replayable and shareable as JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Tuple

from ..runtime.scheduler import READ, THREAD


@dataclass
class Trace:
    """An ordered list of scheduler decisions plus provenance metadata."""

    program: str = ""
    scheduler: str = ""
    seed: int = 0
    #: The spin threshold the recording ran under.  Replaying with a
    #: different threshold changes when the livelock heuristic promotes
    #: reads to global visibility, which silently changes the candidate
    #: lists the recorded indices point into — so replay defaults to this.
    spin_threshold: int = 8
    decisions: List[Tuple[str, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.decisions)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "program": self.program,
            "scheduler": self.scheduler,
            "seed": self.seed,
            "spin_threshold": self.spin_threshold,
            "decisions": self.decisions,
        })

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        raw = json.loads(text)
        return cls.from_obj(raw)

    @classmethod
    def from_obj(cls, raw: dict) -> "Trace":
        """Build a trace from an already-decoded JSON object."""
        decisions = [(kind, int(value)) for kind, value in raw["decisions"]]
        for kind, _value in decisions:
            if kind not in (THREAD, READ):
                raise ValueError(f"unknown decision kind {kind!r}")
        return cls(
            program=raw.get("program", ""),
            scheduler=raw.get("scheduler", ""),
            seed=int(raw.get("seed", 0)),
            spin_threshold=int(raw.get("spin_threshold", 8)),
            decisions=decisions,
        )

    def to_obj(self) -> dict:
        """JSON-ready dict form (the inverse of :meth:`from_obj`)."""
        return {
            "program": self.program,
            "scheduler": self.scheduler,
            "seed": self.seed,
            "spin_threshold": self.spin_threshold,
            "decisions": [list(d) for d in self.decisions],
        }
