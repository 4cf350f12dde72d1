"""The performance records at the repository root stay readable.

Each ``BENCH_<label>.json`` is one change's measured before/after record.
It must parse, name itself by its file name, and say what changed, between
which commits, by which command and method, on which host.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("change", "parent_sha", "head_sha", "command", "method", "host")


def test_records_are_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_is_labelled_and_complete(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["label"] == path.name[len("BENCH_"):-len(".json")]
    assert [key for key in REQUIRED if key not in record] == []
