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


PINNED_RECORDS = [
    make_record(0, bug_found=True, steps=12, k=9,
                elapsed_s=0.123456789012345, inconsistent=True,
                violations=["read-coherence: <e7 t2 R.X.r=1@rlx>",
                            "SC: hb ∪ rf ∪ SC has a cycle"],
                artifact="artifacts/trial-000000.json"),
    make_record(1, steps=0, k=0, elapsed_s=0.5,
                error="RuntimeError: boom @ wl.py:9"),
]

#: :data:`PINNED_RECORDS` as journals wrote them while records carried an
#: ``operations`` count (here 3 and 0), CRCs included.
OPERATIONS_LINES = [
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


class TestJournalRoundtrip:
    def test_records_roundtrip_exactly(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        records = [
            make_record(0, bug_found=True, elapsed_s=0.123456789012345),
            make_record(1, limit_exceeded=True),
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
        journal = TrialJournal(path)
        journal.start(META)
        journal.append(PINNED_RECORDS)
        journal.close()
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()[1:]
        assert lines == [
            '{"artifact": "artifacts/trial-000000.json", "bug_found": true, '
            '"crc32": 3909879069, "elapsed_s": 0.123456789012345, '
            '"error": null, "inconsistent": true, "index": 0, "k": 9, '
            '"kind": "trial", "limit_exceeded": false, '
            '"steps": 12, "timed_out": false, "violations": '
            '["read-coherence: <e7 t2 R.X.r=1@rlx>", '
            '"SC: hb \\u222a rf \\u222a SC has a cycle"]}',
            '{"artifact": null, "bug_found": false, "crc32": 1651946258, '
            '"elapsed_s": 0.5, "error": "RuntimeError: boom @ wl.py:9", '
            '"inconsistent": false, "index": 1, "k": 0, "kind": "trial", '
            '"limit_exceeded": false, "steps": 0, '
            '"timed_out": false, "violations": []}',
        ]
        _, loaded = load_journal(path)
        assert [loaded[0], loaded[1]] == PINNED_RECORDS

    def test_lines_with_operations_still_load(self, tmp_path):
        """Lines written while trial records carried an ``operations``
        count load to the same records: the reader picks keys by name and
        the CRC covers each line as it was written."""
        path = tmp_path / "j.jsonl"
        path.write_text("\n".join(OPERATIONS_LINES) + "\n",
                        encoding="utf-8")
        _, loaded = load_journal(str(path))
        assert [loaded[0], loaded[1]] == PINNED_RECORDS

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

    @pytest.mark.parametrize("tail", [
        '{"kind": "trial", "index": 2, "bug_fo',  # cut mid-line
        None,  # cut right before a complete line's newline
    ], ids=["mid-line", "before-newline"])
    def test_resume_after_tear_keeps_every_appended_line(self, tmp_path,
                                                         tail):
        """A resumed writer starts a new line after a torn tail instead of
        gluing its first record onto it."""
        path = str(tmp_path / "j.jsonl")
        journal = TrialJournal(path)
        journal.start(META)
        journal.append([make_record(0), make_record(1)])
        journal.close()
        with open(path, "rb+") as fh:
            if tail is None:
                fh.truncate(fh.seek(0, 2) - 1)  # drop the last "\n"
            else:
                fh.seek(0, 2)
                fh.write(tail.encode())
        journal = TrialJournal(path)
        assert sorted(journal.start(META, resume=True)) == [0, 1]
        journal.append([make_record(2), make_record(3)])
        journal.close()
        _, loaded = load_journal(path)
        assert sorted(loaded) == [0, 1, 2, 3]

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
