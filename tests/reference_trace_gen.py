"""Per-instruction reference for :func:`repro.workloads.generate_trace`.

This is the generator's original scalar loop, kept verbatim as a test
oracle: it makes the same RNG draws in the same order, then walks the
stream one instruction at a time, appending each producer to its
register-class pool and reading sources as ``pool[-min(d, len(pool))]``.
The vectorized generator must reproduce its columns byte for byte
(``tests/test_workloads.py``).
"""

from __future__ import annotations

from typing import List

from repro.common.errors import ConfigurationError
from repro.common.rng import SeedLike, spawn_rng
from repro.common.types import DEST_REGCLASS_FOR_CLASS, InstrClass, RegClass
from repro.engine.trace import (
    FLAG_L1_MISS,
    FLAG_L2_MISS,
    FLAG_MISPREDICT,
    Trace,
)
from repro.workloads.synthetic import WorkloadMix, get_mix

_N_CLASSES = len(InstrClass)


def reference_generate_trace(
    mix: "str | WorkloadMix",
    n: int,
    seed: SeedLike = None,
    validate: bool = False,
) -> Trace:
    """Generate ``n`` dynamic instructions of ``mix`` with the scalar loop."""
    if isinstance(mix, str):
        mix = get_mix(mix)
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

    # Per-regclass streams of producer indices (grown append-only).
    producers: List[List[int]] = [[], []]  # RegClass.INT, RegClass.FP
    src_class_for = [0] * _N_CLASSES
    dst_class_for = [-1] * _N_CLASSES
    for klass in InstrClass:
        src_class_for[klass] = int(RegClass.FP) if klass.is_fp_compute else int(RegClass.INT)
        dst = DEST_REGCLASS_FOR_CLASS[klass]
        dst_class_for[klass] = int(dst) if dst is not None else -1
    # FP stores read the FP value they write to memory.
    src_class_for[InstrClass.FP_STORE] = int(RegClass.FP)

    src1: List[int] = [0] * n
    src2: List[int] = [0] * n
    dst: List[int] = [0] * n
    flags: List[int] = [0] * n

    opclass_l = opclass.tolist()
    want_src1_l = want_src1.tolist()
    want_src2_l = want_src2.tolist()
    dist1_l = dist1.tolist()
    dist2_l = dist2.tolist()
    mis_l = mispredict_draw.tolist()
    l1_l = l1_draw.tolist()
    l2_l = l2_draw.tolist()
    dst_regs_l = dst_regs.tolist()

    for i in range(n):
        k = opclass_l[i]
        klass = InstrClass(k)
        pool = producers[src_class_for[k]]
        n_pool = len(pool)
        is_nop = klass is InstrClass.NOP
        if n_pool and want_src1_l[i] and not is_nop:
            src1[i] = pool[-min(dist1_l[i], n_pool)]
        else:
            src1[i] = -1
        if n_pool and want_src2_l[i] and not is_nop:
            src2[i] = pool[-min(dist2_l[i], n_pool)]
        else:
            src2[i] = -1
        f = 0
        if klass.is_branch and mis_l[i]:
            f = FLAG_MISPREDICT
        elif klass.is_memory and l1_l[i]:
            f = FLAG_L1_MISS
            if l2_l[i]:
                f |= FLAG_L2_MISS
        flags[i] = f
        if dst_class_for[k] >= 0:
            producers[dst_class_for[k]].append(i)
            dst[i] = dst_regs_l[i]
        else:
            dst[i] = -1

    return Trace(f"{mix.name}-{n}", opclass_l, src1, src2, dst, flags,
                 validate=validate)
