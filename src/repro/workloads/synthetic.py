"""Synthetic instruction-trace generator.

The paper evaluates on SPEC-like benchmarks; this reproduction ships a
deterministic synthetic generator whose mixes stress the same machine
behaviours: ``int_heavy`` (ALU pressure, short dependence chains),
``fp_heavy`` (long-latency FP chains), ``memory_bound`` (high load/store
share and cache-miss rates) and ``branchy`` (frequent, poorly predicted
branches).  All randomness flows through :func:`repro.common.rng.spawn_rng`,
so ``(mix, n, seed)`` fully determines the trace.

Dependences are drawn as backward distances over the stream of prior
*value-producing* instructions of the matching register class (FP consumers
read FP producers, integer-pipeline consumers read integer producers), which
yields the clustered, chain-like dependence structure steering policies care
about.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import SeedLike, spawn_rng
from repro.common.types import DEST_REGCLASS_FOR_CLASS, InstrClass, RegClass
from repro.engine.trace import (
    FLAG_L1_MISS,
    FLAG_L2_MISS,
    FLAG_MISPREDICT,
    _IS_BRANCH,
    _IS_MEMORY,
    Trace,
)

_N_CLASSES = len(InstrClass)

# Per-InstrClass lookup tables, indexed by opclass.  Sources read the
# register class of the datapath an op computes on; FP stores read the FP
# value they write to memory.  -1 marks "writes no register".
_SRC_REGCLASS = np.array(
    [RegClass.FP if k.is_fp_compute or k is InstrClass.FP_STORE else RegClass.INT
     for k in InstrClass], dtype=np.int64)
_DST_REGCLASS = np.array(
    [-1 if DEST_REGCLASS_FOR_CLASS[k] is None else DEST_REGCLASS_FOR_CLASS[k]
     for k in InstrClass], dtype=np.int64)


@dataclass(frozen=True)
class WorkloadMix:
    """Parameters of one synthetic workload family."""

    name: str
    class_weights: Dict[InstrClass, float]
    dep_prob: float = 0.8  # probability a source operand exists
    second_src_prob: float = 0.4
    dep_distance_mean: float = 4.0  # geometric mean backward distance
    mispredict_rate: float = 0.05
    l1_miss_rate: float = 0.05
    l2_miss_rate: float = 0.2  # conditional on an L1 miss
    n_arch_regs: int = 64

    def __post_init__(self) -> None:
        if not self.class_weights:
            raise ConfigurationError(f"mix {self.name!r}: empty class weights")
        for klass, weight in self.class_weights.items():
            if weight < 0:
                raise ConfigurationError(
                    f"mix {self.name!r}: negative weight for {klass.name}"
                )
        if sum(self.class_weights.values()) <= 0:
            raise ConfigurationError(f"mix {self.name!r}: weights sum to zero")
        for field_name in ("dep_prob", "second_src_prob", "mispredict_rate",
                           "l1_miss_rate", "l2_miss_rate"):
            v = getattr(self, field_name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(
                    f"mix {self.name!r}: {field_name}={v} outside [0, 1]"
                )
        if self.dep_distance_mean < 1.0:
            raise ConfigurationError(
                f"mix {self.name!r}: dep_distance_mean must be >= 1"
            )

    def weight_vector(self) -> np.ndarray:
        w = np.zeros(_N_CLASSES)
        for klass, weight in self.class_weights.items():
            w[int(klass)] = weight
        return w / w.sum()


#: Registry of workload mixes, keyed by name.  The sweep grid and the CLI
#: enumerate this via :func:`list_mixes`; new mixes are added through
#: :func:`register_mix` (or by shipping them in the tuple below) without
#: touching any dispatch site.
MIX_REGISTRY: Dict[str, WorkloadMix] = {
    mix.name: mix
    for mix in (
        WorkloadMix(
            name="int_heavy",
            class_weights={
                InstrClass.INT_ALU: 0.50,
                InstrClass.INT_MUL: 0.05,
                InstrClass.INT_DIV: 0.01,
                InstrClass.LOAD: 0.20,
                InstrClass.STORE: 0.10,
                InstrClass.BRANCH: 0.14,
            },
            dep_distance_mean=3.0,
            mispredict_rate=0.04,
            l1_miss_rate=0.03,
        ),
        WorkloadMix(
            name="fp_heavy",
            class_weights={
                InstrClass.INT_ALU: 0.15,
                InstrClass.FP_ADD: 0.25,
                InstrClass.FP_MUL: 0.20,
                InstrClass.FP_DIV: 0.03,
                InstrClass.FP_LOAD: 0.20,
                InstrClass.FP_STORE: 0.10,
                InstrClass.BRANCH: 0.07,
            },
            dep_distance_mean=5.0,
            mispredict_rate=0.02,
            l1_miss_rate=0.04,
        ),
        WorkloadMix(
            name="memory_bound",
            class_weights={
                InstrClass.INT_ALU: 0.25,
                InstrClass.LOAD: 0.35,
                InstrClass.STORE: 0.20,
                InstrClass.FP_LOAD: 0.05,
                InstrClass.BRANCH: 0.15,
            },
            dep_distance_mean=4.0,
            mispredict_rate=0.05,
            l1_miss_rate=0.15,
            l2_miss_rate=0.3,
        ),
        WorkloadMix(
            name="branchy",
            class_weights={
                InstrClass.INT_ALU: 0.45,
                InstrClass.LOAD: 0.15,
                InstrClass.STORE: 0.08,
                InstrClass.BRANCH: 0.30,
                InstrClass.NOP: 0.02,
            },
            dep_distance_mean=2.5,
            mispredict_rate=0.12,
            l1_miss_rate=0.04,
        ),
    )
}


#: Backwards-compatible alias (pre-registry name).
MIXES = MIX_REGISTRY


def list_mixes() -> Tuple[str, ...]:
    """Names of all registered workload mixes, sorted."""
    return tuple(sorted(MIX_REGISTRY))


#: Backwards-compatible alias for :func:`list_mixes`.
available_mixes = list_mixes


def get_mix(name: str) -> WorkloadMix:
    """Look up a registered mix; unknown names list the valid ones."""
    try:
        return MIX_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload mix {name!r}; available: {', '.join(list_mixes())}"
        ) from None


def register_mix(mix: WorkloadMix, overwrite: bool = False) -> WorkloadMix:
    """Add ``mix`` to the registry (e.g. from a sweep spec or a plugin).

    Registering a name that already exists raises
    :class:`~repro.common.errors.ConfigurationError` unless ``overwrite=True``,
    so two plugins cannot silently shadow each other.  Returns ``mix`` so the
    call can be used as a decorator-style one-liner.
    """
    if not overwrite and mix.name in MIX_REGISTRY:
        raise ConfigurationError(
            f"workload mix {mix.name!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    MIX_REGISTRY[mix.name] = mix
    return mix


def generate_trace(
    mix: "str | WorkloadMix",
    n: int,
    seed: SeedLike = None,
    validate: bool = False,
) -> Trace:
    """Generate ``n`` dynamic instructions of ``mix`` deterministically.

    ``validate=False`` by default: the generator only emits structurally
    valid traces (covered by the test suite), and validation is an O(n)
    pass the benchmark harness should not pay for.

    Every column is computed as a whole array.  A source at distance ``d``
    reads the ``d``-th most recent earlier producer of its register class
    (clamped to the oldest one): with ``prod`` the producer indices of that
    class and ``before[i]`` the number of them strictly before ``i``, that
    is ``prod[before[i] - min(d, before[i])]``.
    """
    if isinstance(mix, str):
        mix = get_mix(mix)
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ConfigurationError(
            f"trace length n must be an integer, got {type(n).__name__} {n!r}"
        )
    n = int(n)
    if n < 0:
        raise ConfigurationError(f"trace length must be non-negative, got {n}")

    rng = spawn_rng(seed, "workload", mix.name, n)

    opclass = rng.choice(_N_CLASSES, size=n, p=mix.weight_vector())
    want_src1 = rng.random(n) < mix.dep_prob
    want_src2 = rng.random(n) < mix.second_src_prob
    # Geometric backward distances over the per-regclass producer streams.
    p_geo = min(1.0, 1.0 / mix.dep_distance_mean)
    dist1 = rng.geometric(p_geo, size=n)
    dist2 = rng.geometric(p_geo, size=n)
    mispredict_draw = rng.random(n) < mix.mispredict_rate
    l1_draw = rng.random(n) < mix.l1_miss_rate
    l2_draw = rng.random(n) < mix.l2_miss_rate
    dst_regs = rng.integers(0, mix.n_arch_regs, size=n)

    src_class = _SRC_REGCLASS[opclass]
    dst_class = _DST_REGCLASS[opclass]
    reads = opclass != InstrClass.NOP
    src1 = np.full(n, -1, dtype=np.int64)
    src2 = np.full(n, -1, dtype=np.int64)
    for regclass in RegClass:
        is_producer = dst_class == regclass
        producers = np.flatnonzero(is_producer)
        before = np.cumsum(is_producer) - is_producer
        reader = reads & (src_class == regclass) & (before > 0)
        for want, dist, src in ((want_src1, dist1, src1),
                                (want_src2, dist2, src2)):
            sel = reader & want
            pool = before[sel]
            src[sel] = producers[pool - np.minimum(dist[sel], pool)]

    miss = np.where(l2_draw, FLAG_L1_MISS | FLAG_L2_MISS, FLAG_L1_MISS)
    flags = np.where(
        _IS_BRANCH[opclass] & mispredict_draw, FLAG_MISPREDICT,
        np.where(_IS_MEMORY[opclass] & l1_draw, miss, 0),
    )
    dst = np.where(dst_class >= 0, dst_regs, -1)

    return Trace(f"{mix.name}-{n}", opclass, src1, src2, dst, flags,
                 validate=validate)


__all__ = [
    "MIXES",
    "MIX_REGISTRY",
    "WorkloadMix",
    "available_mixes",
    "generate_trace",
    "get_mix",
    "list_mixes",
    "register_mix",
]
