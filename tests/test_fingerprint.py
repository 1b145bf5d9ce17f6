"""The committed fingerprint (``tests/data/fingerprint.json``) pins the
functional trace, both fast-forward paths, the functional-warming
events, and the timing model's statistics and traced event streams for
every suite workload.

A mismatch means behaviour changed.  If the change is intended,
regenerate with ``make fingerprint`` and say why in CHANGES.md.
"""

import json
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH))

from fingerprint import FINGERPRINT_PATH, compute  # noqa: E402


def test_fingerprint_matches_committed_file():
    expected = json.loads(FINGERPRINT_PATH.read_text())
    actual = compute()
    assert sorted(actual) == sorted(expected)
    for workload, hashes in expected.items():
        assert actual[workload] == hashes, workload
