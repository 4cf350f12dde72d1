"""Replay of the golden-output corpus recorded by golden_record.py, and the
recorder's guard: it compares by default and overwrites no digest unasked."""

import json

from golden_record import DIGESTS, digest, entries, main


def test_corpus_replays():
    recorded = json.loads(DIGESTS.read_text())
    table = entries()
    assert sorted(recorded) == sorted(table)
    changed = [key for key, run in table.items()
               if digest(run) != recorded[key]]
    assert not changed, changed


# cheap entries: a failed CLI call, an enumeration and an exact exponential
_PROBES = ("cli enumerate -n -2 --format text",
           "cli enumerate -n 2 --format json", "lib exact_exp zero eighths=3")


def _copy(tmp_path, recorded):
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(recorded, indent=1) + "\n")
    return path


def test_compare_lists_every_difference_and_writes_nothing(tmp_path, capsys):
    recorded = json.loads(DIGESTS.read_text())
    changed, missing = _PROBES[:2], _PROBES[2]
    for key in changed:
        recorded[key] = "0" * 64
    del recorded[missing]
    path = _copy(tmp_path, recorded)
    before = path.read_text()
    assert main([], path) == 1
    lines = capsys.readouterr().out.splitlines()
    assert sorted(lines[:-1]) == sorted(
        [f"differs: {key}" for key in changed] + [f"not recorded: {missing}"])
    total = len(recorded) + 1
    assert lines[-1] == f"{total - 3} of {total} entries match"
    assert path.read_text() == before


def test_writes_only_missing_or_named_keys(tmp_path):
    original = json.loads(DIGESTS.read_text())
    recorded = dict(original)
    recorded[_PROBES[0]] = "0" * 64
    del recorded[_PROBES[2]]
    path = _copy(tmp_path, recorded)
    assert main(["--new"], path) == 0
    now = json.loads(path.read_text())
    assert now[_PROBES[2]] == original[_PROBES[2]]
    assert now[_PROBES[0]] == "0" * 64
    assert main([_PROBES[0]], path) == 0
    assert path.read_text() == DIGESTS.read_text()
    assert main(["--new", _PROBES[0]], path) == 2
    assert main(["no such key"], path) == 2
