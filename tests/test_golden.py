"""Replay of the golden-output corpus recorded by golden_record.py."""

import json

from golden_record import DIGESTS, digest, entries


def test_corpus_replays():
    recorded = json.loads(DIGESTS.read_text())
    table = entries()
    assert sorted(recorded) == sorted(table)
    changed = [key for key, run in table.items()
               if digest(run) != recorded[key]]
    assert not changed, changed
