"""Append-only trial journal: checkpoint/resume for long campaigns.

Paper-scale campaigns (500-1000 trials per cell, many cells) can run for
hours; losing a half-finished campaign to a crash or an operator SIGINT
wastes all completed work.  The journal makes campaigns durable:

* **Append-only JSONL.**  The first line is a header describing the
  campaign (program, scheduler, base seed, trial count, step budget);
  every subsequent line is one completed :class:`TrialRecord`.  Records
  are flushed *and fsynced* per append, so a SIGKILL loses at most the
  in-flight shard.
* **Torn lines are tolerated and detected.**  A process killed
  mid-write leaves a partial last line; :func:`load_journal` skips
  unparseable lines instead of refusing the whole file.  Every line is
  additionally CRC-stamped (``crc32`` of its canonical serialization),
  so a tear that happens to still parse — or silent bit rot — is caught
  and the affected trial simply re-runs on resume.  Lines written
  before stamping existed carry no checksum and stay loadable.
* **Interrupts are journaled too.**  A campaign stopped by SIGINT or
  SIGTERM appends a structured ``interrupt`` event (signal name, trials
  completed) before closing, so operators and the campaign service can
  tell a drained journal from one whose writer was killed outright.
  Event lines are ignored by resume — only ``trial`` records fold.
* **Resume is exact.**  Trial seeds depend only on ``(base_seed,
  index)``, and the journal stores per-trial elapsed times verbatim
  (JSON floats round-trip exactly), so a resumed campaign folds to
  aggregates bit-identical to an uninterrupted run.
* **Resume is validated.**  A journal written for a different campaign
  (other program, scheduler, base seed, trial count, or step budget)
  is rejected with a clear error rather than silently merged.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields
from typing import Dict, IO, Iterable, Optional, Tuple

from . import faultrig
from .campaign import TrialRecord
from .fsutil import fsync_dir, stamp_crc, verify_crc

__all__ = [
    "JOURNAL_VERSION",
    "TrialJournal",
    "load_journal",
]

JOURNAL_VERSION = 1

#: Header fields that must match between a journal and the campaign
#: resuming from it.  ``sanitize`` is included because resuming a
#: sanitized campaign without the sanitizer (or vice versa) would fold
#: trials audited under different rules into one aggregate; journals
#: from before the field existed simply lack it and stay compatible.
#: ``model`` likewise: trials executed under different memory models
#: must never fold into one aggregate, and pre-model journals resume as
#: implicit c11.
_COMPAT_FIELDS = ("program", "scheduler", "base_seed", "trials", "max_steps",
                  "sanitize", "model")


#: ``TrialRecord``'s field names, in declaration order.
_RECORD_FIELDS = tuple(f.name for f in fields(TrialRecord))


def _record_to_obj(record: TrialRecord) -> dict:
    """The record as a journal object: what ``asdict`` gives, cheaper.

    Every field but ``violations`` is a scalar, so a shallow copy of that
    list is all the deep copy ``asdict`` would make.
    """
    obj = {name: getattr(record, name) for name in _RECORD_FIELDS}
    obj["violations"] = list(record.violations)
    obj["kind"] = "trial"
    return obj


def _record_from_obj(obj: dict) -> TrialRecord:
    """Rebuild a record, picking its keys by name: keys it does not know,
    like the ``operations`` count older journals carry, are ignored."""
    fields = {k: obj[k] for k in ("index", "bug_found", "limit_exceeded",
                                  "steps", "k", "elapsed_s")}
    fields["timed_out"] = obj.get("timed_out", False)
    fields["error"] = obj.get("error")
    fields["inconsistent"] = obj.get("inconsistent", False)
    fields["violations"] = list(obj.get("violations") or [])
    fields["artifact"] = obj.get("artifact")
    return TrialRecord(**fields)


def load_journal(path: str) -> Tuple[Optional[dict],
                                     Dict[int, TrialRecord]]:
    """Read a journal back: ``(header, {trial_index: record})``.

    Missing file -> ``(None, {})``.  Unparseable (torn) lines are
    skipped; duplicate indices keep the last occurrence.
    """
    header: Optional[dict] = None
    records: Dict[int, TrialRecord] = {}
    if not os.path.exists(path):
        return None, records
    with open(path, "r") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn line from a killed writer
            if not isinstance(obj, dict):
                continue
            if not verify_crc(obj):
                continue  # stamped line whose content no longer matches
            kind = obj.get("kind")
            if kind == "campaign-journal" and header is None:
                header = obj
            elif kind == "trial":
                try:
                    record = _record_from_obj(obj)
                except (KeyError, TypeError):
                    continue
                records[record.index] = record
    return header, records


def _ends_mid_line(path: str) -> bool:
    """Whether a non-empty file's last byte is not a newline."""
    with open(path, "rb") as fh:
        if fh.seek(0, os.SEEK_END) == 0:
            return False
        fh.seek(-1, os.SEEK_END)
        return fh.read(1) != b"\n"


def check_compatible(header: dict, meta: dict) -> None:
    """Reject resuming a journal written for a different campaign."""
    mismatches = [
        f"{name}: journal={header.get(name)!r} campaign={meta.get(name)!r}"
        for name in _COMPAT_FIELDS
        if name in header and header.get(name) != meta.get(name)
    ]
    if mismatches:
        raise ValueError(
            "checkpoint journal does not match this campaign ("
            + "; ".join(mismatches) + ")"
        )


class TrialJournal:
    """Durable append-only writer for completed campaign trials.

    Usage::

        journal = TrialJournal(path)
        done = journal.start(meta, resume=True)   # {} on a fresh run
        ...
        journal.append(shard.records)             # after each shard
        journal.close()
    """

    def __init__(self, path: str):
        self.path = path
        self._fh: Optional[IO[str]] = None
        #: Whether the file ends mid-line (a torn append); the next write
        #: then starts a new line instead of gluing onto the torn tail.
        self._torn_tail = False

    def start(self, meta: dict, resume: bool = False,
              ) -> Dict[int, TrialRecord]:
        """Open the journal and return already-completed records.

        Without ``resume`` any existing file is truncated and a fresh
        header written.  With ``resume``, the existing journal is
        validated against ``meta`` and its records returned so the
        campaign can skip them.
        """
        done: Dict[int, TrialRecord] = {}
        header: Optional[dict] = None
        if resume:
            header, done = load_journal(self.path)
            if header is not None:
                check_compatible(header, meta)
        existed = os.path.exists(self.path)
        mode = "a" if resume and existed else "w"
        self._torn_tail = mode == "a" and _ends_mid_line(self.path)
        self._fh = open(self.path, mode)
        if not existed:
            # A freshly created journal only durably *exists* once its
            # directory entry is flushed; without this, a crash right
            # after the first fsynced append could still lose the file.
            fsync_dir(os.path.dirname(os.path.abspath(self.path)) or ".")
        if header is None:
            self._write_line(dict(meta, kind="campaign-journal",
                                  version=JOURNAL_VERSION))
            self._sync()
        return done

    def append_event(self, kind: str, **fields) -> None:
        """Durably append one structured non-trial event line.

        Events share the journal's durability contract (single write,
        flush, fsync) but are invisible to :func:`load_journal`'s record
        map — resume semantics never depend on them.  Used for interrupt
        marks (``kind="interrupt"``) and free for future lifecycle
        events; ``kind`` must not collide with the reserved line kinds.
        """
        if self._fh is None:
            raise ValueError("journal is not open; call start() first")
        if kind in ("trial", "campaign-journal"):
            raise ValueError(f"reserved journal line kind {kind!r}")
        self._write_line(dict(fields, kind=kind))
        self._sync()

    def append(self, records: Iterable[TrialRecord]) -> None:
        """Journal completed trials durably (flush + fsync).

        The shard's lines are serialized into one buffer and written with
        a single write/flush/fsync, so journal cost is per *shard*, not
        per trial, and never re-serializes previously appended state.
        """
        if self._fh is None:
            raise ValueError("journal is not open; call start() first")
        lines = [json.dumps(stamp_crc(_record_to_obj(record)),
                            sort_keys=True)
                 for record in records]
        if not lines:
            return
        payload = "\n".join(lines) + "\n"
        if faultrig.should_fire("torn-write") is not None:
            # Chaos mode: persist only half the buffer, exactly what a
            # crash or ENOSPC mid-append leaves behind.  The CRC stamps
            # make the tear detectable and resume re-runs those trials.
            payload = payload[:max(1, len(payload) // 2)]
        self._write(payload)
        self._sync()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TrialJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _write_line(self, obj: dict) -> None:
        self._write(json.dumps(stamp_crc(obj), sort_keys=True) + "\n")

    def _write(self, text: str) -> None:
        assert self._fh is not None
        if self._torn_tail:
            text = "\n" + text
        self._fh.write(text)
        self._torn_tail = not text.endswith("\n")

    def _sync(self) -> None:
        assert self._fh is not None
        self._fh.flush()
        os.fsync(self._fh.fileno())
