"""The benchmark's grid specs, pinned store digests and store verification.

A spec is generated from the benchmark seed alone: seed ``s`` shifts each
spec's seed list by ``s * len(seeds)``, so different benchmark seeds give
disjoint simulation seeds and seed 0 gives the paper's own (2005, ...).
The program receives only the generated spec file.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

MIXES = ["branchy", "fp_heavy", "int_heavy", "memory_bound"]
POLICIES = ["criticality", "dependence", "load_balance", "modulo", "round_robin"]

_BASE_SPECS = {
    # The paper grid shape: 4 mixes x 5 policies x ring/conv x 2/4/8
    # clusters x 3 seeds = 360 short points.
    "paper": dict(name="paper", topologies=["ring", "conv"],
                  cluster_counts=[2, 4, 8], steerings=POLICIES, mixes=MIXES,
                  n_instructions=5000, seeds=[2005, 2006, 2007]),
    # Seed sensitivity: 4 mixes x ring/conv x 4 clusters x dependence x 30
    # seeds = 240 longer points, seeds innermost.
    "seeds": dict(name="seeds", topologies=["ring", "conv"],
                  cluster_counts=[4], steerings=["dependence"], mixes=MIXES,
                  n_instructions=20000, seeds=list(range(2005, 2035))),
}

#: workload -> base spec it runs.
SPEC_OF = {"paper-pool": "paper", "seeds-pool": "seeds", "paper-fabric": "paper"}

#: ``digests.json``: sha256 of the finished store of each base spec for
#: benchmark seeds 0-23, as ``python -m repro.sweep run`` writes it.
#: ``paper-fabric`` merges the same spec, so its store must be
#: byte-identical to ``paper-pool``'s.
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")

#: Points of the first store of every run recomputed with ``execute_point``
#: (evenly spread indexes).
SAMPLE_SIZE = 8


def spec_for(workload: str, seed: int) -> dict:
    base = dict(_BASE_SPECS[SPEC_OF[workload]])
    seeds = base["seeds"]
    base["seeds"] = [s + seed * len(seeds) for s in seeds]
    return base


def pinned_digest(workload: str, seed: int) -> Optional[str]:
    """The pinned store sha256 for this seed, or ``None`` off the table."""
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)[SPEC_OF[workload]].get(str(seed))


def sample_indexes(n: int, k: int = SAMPLE_SIZE) -> List[int]:
    """``k`` fixed, evenly spread indexes into ``n`` points (first and last
    included)."""
    if n <= k:
        return list(range(n))
    return sorted({round(i * (n - 1) / (k - 1)) for i in range(k)})


def check_store(raw: bytes, expected_keys: Sequence[str],
                recompute: Callable[[Sequence[int]], Dict[int, bytes]],
                pinned: Optional[str] = None,
                reference: Optional[bytes] = None,
                sample: Iterable[int] = ()) -> Set[int]:
    """Indexes of grid points whose record is missing or wrong.

    ``raw`` is the store file; record ``i`` must be line ``i`` and carry
    ``expected_keys[i]`` (the expansion order).  The ``sample`` indexes are
    recomputed; the rest of the content is accepted when the whole file
    matches the ``pinned`` sha256 or the ``reference`` bytes, and only
    sampled when neither is given.  A mismatch against a pin or a reference is never skipped:
    every record is then recomputed (``recompute(indexes)`` maps each index
    to the exact line bytes its point must have) to find the wrong ones,
    and when none differs, every record counts as wrong.
    """
    lines = raw.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    else:
        lines = lines[:-1]          # no trailing newline: torn last line
    bad: Set[int] = set()
    for i, key in enumerate(expected_keys):
        if i >= len(lines) or _key_of(lines[i]) != key:
            bad.add(i)
    if len(lines) > len(expected_keys):
        bad.update(range(len(expected_keys)))   # stray records: trust none
    if pinned is not None:
        matches = hashlib.sha256(raw).hexdigest() == pinned
    elif reference is not None:
        matches = raw == reference
    else:
        matches = None
    to_check = range(len(expected_keys)) if matches is False else sample
    expected = recompute([i for i in to_check if i not in bad])
    wrong = {i for i, line in expected.items() if lines[i] != line}
    if matches is False and not wrong and not bad:
        # The records agree with what this program computes now, but not
        # with the pin or the reference: none of them can be trusted.
        wrong = set(range(len(expected_keys)))
    return bad | wrong


def _key_of(line: bytes) -> Optional[str]:
    try:
        record = json.loads(line)
    except ValueError:
        return None
    return record.get("key") if isinstance(record, dict) else None


class Tally:
    """Grid points attempted and failed across every run of a workload."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, n_points: int, n_bad: int, what: str = "") -> None:
        self.attempted += n_points
        self.failed += n_bad
        if n_bad:
            self.problems.append(f"{what}: {n_bad}/{n_points} point(s) bad")

    @property
    def ok_frac(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


class Grid:
    """A spec's expected store keys (expansion order) and ``recompute``,
    which returns the exact store line of each given point index; both are
    computed by ``grid_tool.py`` in a separate process."""

    def __init__(self, spec_path: str, env: Dict[str, str]) -> None:
        self.spec_path = spec_path
        self.env = env
        out = self._tool("keys")
        self.keys: List[str] = out["keys"]
        self.numpy_version: str = out["numpy"]

    def _tool(self, *args: str):
        tool = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "grid_tool.py")
        done = subprocess.run(
            [sys.executable, tool, args[0], self.spec_path, *args[1:]],
            env=self.env, stdout=subprocess.PIPE, check=True, timeout=150)
        return json.loads(done.stdout)

    def recompute(self, indexes: Sequence[int]) -> Dict[int, bytes]:
        if not indexes:
            return {}
        lines = self._tool("lines", *map(str, indexes))
        return {i: line.encode("utf-8") for i, line in zip(indexes, lines)}
