"""Unit tests for the append-only trial journal (checkpoint/resume)."""

import json

import pytest

from repro.harness import TrialJournal, TrialRecord, load_journal
from repro.harness.checkpoint import JOURNAL_VERSION, check_compatible

META = {"program": "SB", "scheduler": "naive", "base_seed": 3,
        "trials": 20, "max_steps": 20000}


def make_record(index, **kwargs):
    defaults = dict(bug_found=False, limit_exceeded=False, steps=4, k=4,
                    elapsed_s=0.001 * (index + 1))
    defaults.update(kwargs)
    return TrialRecord(index=index, **defaults)


class TestJournalRoundtrip:
    def test_records_roundtrip_exactly(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        records = [
            make_record(0, bug_found=True, elapsed_s=0.123456789012345),
            make_record(1, limit_exceeded=True, operations=7),
            make_record(2, timed_out=True),
            make_record(3, error="RuntimeError: boom @ wl.py:9"),
        ]
        journal = TrialJournal(path)
        assert journal.start(META) == {}
        journal.append(records)
        journal.close()

        header, loaded = load_journal(path)
        assert header["version"] == JOURNAL_VERSION
        assert header["program"] == "SB"
        assert sorted(loaded) == [0, 1, 2, 3]
        for record in records:
            assert loaded[record.index] == record  # exact, floats included

    def test_record_lines_are_pinned(self, tmp_path):
        """The bytes of a trial line, violations, artifact and error
        included, are a resume contract: journals written by one version
        must load in the next."""
        path = str(tmp_path / "j.jsonl")
        records = [
            make_record(0, bug_found=True, steps=12, k=9,
                        elapsed_s=0.123456789012345, operations=3,
                        inconsistent=True,
                        violations=["read-coherence: <e7 t2 R.X.r=1@rlx>",
                                    "SC: hb ∪ rf ∪ SC has a cycle"],
                        artifact="artifacts/trial-000000.json"),
            make_record(1, steps=0, k=0, elapsed_s=0.5,
                        error="RuntimeError: boom @ wl.py:9"),
        ]
        journal = TrialJournal(path)
        journal.start(META)
        journal.append(records)
        journal.close()
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()[1:]
        assert lines == [
            '{"artifact": "artifacts/trial-000000.json", "bug_found": true, '
            '"crc32": 1787181580, "elapsed_s": 0.123456789012345, '
            '"error": null, "inconsistent": true, "index": 0, "k": 9, '
            '"kind": "trial", "limit_exceeded": false, "operations": 3, '
            '"steps": 12, "timed_out": false, "violations": '
            '["read-coherence: <e7 t2 R.X.r=1@rlx>", '
            '"SC: hb \\u222a rf \\u222a SC has a cycle"]}',
            '{"artifact": null, "bug_found": false, "crc32": 2268965434, '
            '"elapsed_s": 0.5, "error": "RuntimeError: boom @ wl.py:9", '
            '"inconsistent": false, "index": 1, "k": 0, "kind": "trial", '
            '"limit_exceeded": false, "operations": 0, "steps": 0, '
            '"timed_out": false, "violations": []}',
        ]
        _, loaded = load_journal(path)
        assert [loaded[0], loaded[1]] == records

    def test_start_truncates_without_resume(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = TrialJournal(path)
        journal.start(META)
        journal.append([make_record(0)])
        journal.close()
        journal = TrialJournal(path)
        assert journal.start(META) == {}  # fresh run: old records dropped
        journal.close()
        _, loaded = load_journal(path)
        assert loaded == {}

    def test_start_resume_returns_done_records(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = TrialJournal(path)
        journal.start(META)
        journal.append([make_record(0), make_record(5)])
        journal.close()
        journal = TrialJournal(path)
        done = journal.start(META, resume=True)
        assert sorted(done) == [0, 5]
        journal.append([make_record(7)])
        journal.close()
        _, loaded = load_journal(path)
        assert sorted(loaded) == [0, 5, 7]

    def test_resume_missing_file_starts_fresh(self, tmp_path):
        journal = TrialJournal(str(tmp_path / "absent.jsonl"))
        assert journal.start(META, resume=True) == {}
        journal.close()

    def test_append_before_start_raises(self, tmp_path):
        journal = TrialJournal(str(tmp_path / "j.jsonl"))
        with pytest.raises(ValueError):
            journal.append([make_record(0)])


class TestJournalRobustness:
    def test_torn_last_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = TrialJournal(path)
        journal.start(META)
        journal.append([make_record(0), make_record(1)])
        journal.close()
        with open(path, "a") as fh:
            fh.write('{"kind": "trial", "index": 2, "bug_fo')  # SIGKILL tear
        header, loaded = load_journal(path)
        assert header is not None
        assert sorted(loaded) == [0, 1]

    def test_garbage_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as fh:
            fh.write("not json at all\n")
            fh.write(json.dumps({"kind": "trial", "index": 0,
                                 "bug_found": True, "limit_exceeded": False,
                                 "steps": 4, "k": 4,
                                 "elapsed_s": 0.5}) + "\n")
            fh.write("[1, 2, 3]\n")
        header, loaded = load_journal(path)
        assert header is None
        assert list(loaded) == [0]
        assert loaded[0].bug_found

    def test_duplicate_index_keeps_last(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = TrialJournal(path)
        journal.start(META)
        journal.append([make_record(0, steps=4), make_record(0, steps=9)])
        journal.close()
        _, loaded = load_journal(path)
        assert loaded[0].steps == 9

    def test_missing_file_load(self, tmp_path):
        header, loaded = load_journal(str(tmp_path / "absent.jsonl"))
        assert header is None
        assert loaded == {}


class TestCompatibility:
    def test_matching_meta_passes(self):
        check_compatible(dict(META), dict(META))

    @pytest.mark.parametrize("field,value", [
        ("program", "seqlock"),
        ("scheduler", "pctwm"),
        ("base_seed", 99),
        ("trials", 21),
        ("max_steps", 1),
    ])
    def test_each_field_is_checked(self, field, value):
        header = dict(META)
        header[field] = value
        with pytest.raises(ValueError, match=field):
            check_compatible(header, dict(META))

    def test_header_missing_field_is_tolerated(self):
        header = dict(META)
        del header["max_steps"]  # older journal: absent fields not compared
        check_compatible(header, dict(META))
