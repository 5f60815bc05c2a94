"""Store verification and ``ok_frac`` accounting."""

import hashlib
import json

import pytest

from workloads import Tally, check_store, sample_indexes, spec_for


def _store(n, tweak=None):
    lines = []
    for i in range(n):
        record = {"key": f"k{i}", "result": {"cycles": 100 + i}}
        if i == tweak:
            record["result"]["cycles"] += 1
        lines.append(json.dumps(record, sort_keys=True,
                                separators=(",", ":")).encode())
    return lines, b"".join(line + b"\n" for line in lines)


N = 10
KEYS = [f"k{i}" for i in range(N)]
GOOD_LINES, GOOD = _store(N)
PIN = hashlib.sha256(GOOD).hexdigest()


class Recompute:
    def __init__(self):
        self.calls = []

    def __call__(self, indexes):
        self.calls.extend(indexes)
        return {i: GOOD_LINES[i] for i in indexes}


def test_pinned_store_needs_no_recompute():
    recompute = Recompute()
    assert check_store(GOOD, KEYS, recompute, pinned=PIN) == set()
    assert recompute.calls == []


def test_digest_mismatch_is_located_and_lowers_ok_frac():
    _lines, bad_store = _store(N, tweak=3)
    recompute = Recompute()
    bad = check_store(bad_store, KEYS, recompute, pinned=PIN)
    assert bad == {3}
    assert recompute.calls == list(range(N))     # never skipped
    tally = Tally()
    tally.add(N, len(bad), "run0")
    tally.add(N, 0, "run1")
    assert tally.attempted == 2 * N and tally.failed == 1
    assert tally.ok_frac == pytest.approx(1 - 1 / 20)
    assert tally.problems == ["run0: 1/10 point(s) bad"]


def test_digest_mismatch_the_recompute_agrees_with_fails_everything():
    # The program itself changed its output: the in-process recompute
    # reproduces the store, yet the store is not the pinned one.
    changed_lines, changed = _store(N, tweak=3)
    bad = check_store(changed, KEYS, lambda idx: {i: changed_lines[i] for i in idx},
                      pinned=PIN)
    assert bad == set(range(N))


def test_reference_mismatch_is_located():
    _lines, bad_store = _store(N, tweak=7)
    assert check_store(bad_store, KEYS, Recompute(), reference=GOOD) == {7}


def test_sample_only_without_pin_or_reference():
    _lines, bad_store = _store(N, tweak=7)
    recompute = Recompute()
    assert check_store(bad_store, KEYS, recompute, sample=[0, 7]) == {7}
    assert recompute.calls == [0, 7]
    # A wrong record outside the sample is the documented blind spot.
    assert check_store(bad_store, KEYS, Recompute(), sample=[0, 9]) == set()


def test_missing_torn_and_misordered_records():
    torn = GOOD[:-5]                       # last line lost its tail
    assert check_store(torn, KEYS, Recompute(), pinned=PIN) == {N - 1}
    assert check_store(b"", KEYS, Recompute(), pinned=PIN) == set(range(N))
    swapped = GOOD_LINES[:]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    raw = b"".join(line + b"\n" for line in swapped)
    assert check_store(raw, KEYS, Recompute(), pinned=PIN) == {0, 1}
    extra = GOOD + GOOD_LINES[0] + b"\n"
    assert check_store(extra, KEYS, Recompute(), pinned=PIN) == set(range(N))


def test_sample_indexes_are_fixed_and_spread():
    assert sample_indexes(360) == [0, 51, 103, 154, 205, 256, 308, 359]
    assert sample_indexes(5) == [0, 1, 2, 3, 4]


def test_seed_shifts_the_spec_seed_lists():
    assert spec_for("paper-pool", 0)["seeds"] == [2005, 2006, 2007]
    assert spec_for("paper-pool", 2)["seeds"] == [2011, 2012, 2013]
    assert spec_for("paper-fabric", 2) == spec_for("paper-pool", 2)
    seeds = spec_for("seeds-pool", 1)["seeds"]
    assert seeds == list(range(2035, 2065))
