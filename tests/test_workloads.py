"""Tests for the synthetic workload generator."""

import hashlib
import random

import numpy as np
import pytest

from reference_trace_gen import reference_generate_trace
from repro.common.errors import ConfigurationError
from repro.common.types import FP_CLASSES, InstrClass
from repro.workloads import MIXES, WorkloadMix, available_mixes, generate_trace

_COLUMNS = ("opclass", "src1", "src2", "dst", "flags")


def trace_digest(trace):
    """sha256 (16 hex digits) of the name and every column's typecode+bytes."""
    h = hashlib.sha256(trace.name.encode())
    for col_name in _COLUMNS:
        col = getattr(trace, col_name)
        h.update(col.typecode.encode())
        h.update(col.tobytes())
    return h.hexdigest()[:16]


def columns(trace):
    return trace.name, [(getattr(trace, c).typecode, getattr(trace, c).tobytes())
                        for c in _COLUMNS]


class TestMixRegistry:
    def test_all_four_paper_mixes_present(self):
        assert set(available_mixes()) == {
            "int_heavy", "fp_heavy", "memory_bound", "branchy"
        }

    def test_unknown_mix_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload mix"):
            generate_trace("spec2000", 10)

    def test_mix_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadMix(name="bad", class_weights={})
        with pytest.raises(ConfigurationError):
            WorkloadMix(name="bad", class_weights={InstrClass.INT_ALU: -1.0})
        with pytest.raises(ConfigurationError):
            WorkloadMix(name="bad", class_weights={InstrClass.INT_ALU: 1.0},
                        mispredict_rate=1.5)


class TestGeneration:
    def test_traces_are_structurally_valid(self):
        for mix in available_mixes():
            trace = generate_trace(mix, 2000, seed=1)
            trace.validate()  # raises TraceError on any violation

    def test_deterministic_for_same_arguments(self):
        a = generate_trace("int_heavy", 1500, seed=42)
        b = generate_trace("int_heavy", 1500, seed=42)
        assert a.opclass == b.opclass
        assert a.src1 == b.src1
        assert a.src2 == b.src2
        assert a.dst == b.dst
        assert a.flags == b.flags

    def test_different_seeds_differ(self):
        a = generate_trace("int_heavy", 1500, seed=1)
        b = generate_trace("int_heavy", 1500, seed=2)
        assert a.opclass != b.opclass or a.src1 != b.src1

    def test_length_and_empty(self):
        assert len(generate_trace("branchy", 0, seed=0)) == 0
        assert len(generate_trace("branchy", 333, seed=0)) == 333

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_trace("branchy", -1)


class TestMixCharacter:
    """Each mix must actually stress what its name promises."""

    def test_int_heavy_has_no_fp(self):
        counts = generate_trace("int_heavy", 4000, seed=7).class_counts()
        assert all(counts[k] == 0 for k in FP_CLASSES)

    def test_fp_heavy_is_mostly_fp_datapath(self):
        counts = generate_trace("fp_heavy", 4000, seed=7).class_counts()
        fp = sum(counts[k] for k in FP_CLASSES)
        assert fp / 4000 > 0.35

    def test_memory_bound_memory_share(self):
        counts = generate_trace("memory_bound", 4000, seed=7).class_counts()
        mem = sum(counts[k] for k in InstrClass if k.is_memory)
        assert mem / 4000 > 0.45

    def test_branchy_branch_share_and_mispredicts(self):
        trace = generate_trace("branchy", 4000, seed=7)
        counts = trace.class_counts()
        branches = counts[InstrClass.BRANCH]
        assert branches / 4000 > 0.2
        from repro.engine.trace import FLAG_MISPREDICT
        mispredicted = sum(1 for f in trace.flags if f & FLAG_MISPREDICT)
        # ~12% of branches; loose band to stay seed-robust.
        assert 0.04 < mispredicted / branches < 0.25


#: Trace pin: digests of the generator's output, taken with the original
#: per-instruction loop.  A change here changes every sweep result.
TRACE_PINS = {
    ("branchy", 0, 7): "7365447cc3466e53",
    ("branchy", 0, 2005): "7365447cc3466e53",
    ("branchy", 0, 2034): "7365447cc3466e53",
    ("branchy", 1, 7): "215e1ace8a118d2e",
    ("branchy", 1, 2005): "928b2081f8838d07",
    ("branchy", 1, 2034): "941249fdc5acfd65",
    ("branchy", 7, 7): "f7466649767ab366",
    ("branchy", 7, 2005): "124408b1b6c7c79f",
    ("branchy", 7, 2034): "8f8e8f4ed8c05d03",
    ("branchy", 5000, 7): "4a81d254a33717eb",
    ("branchy", 5000, 2005): "8b63c6aecdff4863",
    ("branchy", 5000, 2034): "487187aa02e50a30",
    ("branchy", 20000, 7): "c1f427e16d7d9581",
    ("branchy", 20000, 2005): "084d48209c706f16",
    ("branchy", 20000, 2034): "d65a7ee711de964d",
    ("fp_heavy", 0, 7): "bcc022c87b006348",
    ("fp_heavy", 0, 2005): "bcc022c87b006348",
    ("fp_heavy", 0, 2034): "bcc022c87b006348",
    ("fp_heavy", 1, 7): "2259ab9521b3fe39",
    ("fp_heavy", 1, 2005): "c5c80e4dfdba5bf0",
    ("fp_heavy", 1, 2034): "7fd6ab70c47840d1",
    ("fp_heavy", 7, 7): "f211dc7a281670be",
    ("fp_heavy", 7, 2005): "0b09f9d95067283e",
    ("fp_heavy", 7, 2034): "a165a38ec50458d6",
    ("fp_heavy", 5000, 7): "6cbda4cf0b8c57d3",
    ("fp_heavy", 5000, 2005): "0cd64eb4aa1a4fe2",
    ("fp_heavy", 5000, 2034): "cf12ad035acdd0f0",
    ("fp_heavy", 20000, 7): "2f6dabb26f9a92f8",
    ("fp_heavy", 20000, 2005): "7c39e8360daa8aff",
    ("fp_heavy", 20000, 2034): "ce713ec297fea1eb",
    ("int_heavy", 0, 7): "157dd4561ad367ff",
    ("int_heavy", 0, 2005): "157dd4561ad367ff",
    ("int_heavy", 0, 2034): "157dd4561ad367ff",
    ("int_heavy", 1, 7): "32045bbb8c0b357e",
    ("int_heavy", 1, 2005): "4c2fd45924475c92",
    ("int_heavy", 1, 2034): "5f1121a362ff6259",
    ("int_heavy", 7, 7): "38606d04d7a08a76",
    ("int_heavy", 7, 2005): "ab5ca7e8cec1365a",
    ("int_heavy", 7, 2034): "985ad98ff544c026",
    ("int_heavy", 5000, 7): "9035a668a4d35de8",
    ("int_heavy", 5000, 2005): "744335ffa07c88a1",
    ("int_heavy", 5000, 2034): "ae78fa3ea8479cf1",
    ("int_heavy", 20000, 7): "f30c12bf235cac04",
    ("int_heavy", 20000, 2005): "03f806aa1e313f0b",
    ("int_heavy", 20000, 2034): "9e11814e095ab3ed",
    ("memory_bound", 0, 7): "a4291ce368374fad",
    ("memory_bound", 0, 2005): "a4291ce368374fad",
    ("memory_bound", 0, 2034): "a4291ce368374fad",
    ("memory_bound", 1, 7): "b7e195f2581e6cba",
    ("memory_bound", 1, 2005): "728bc998b03969e5",
    ("memory_bound", 1, 2034): "728bc998b03969e5",
    ("memory_bound", 7, 7): "97bf162ba7a88f41",
    ("memory_bound", 7, 2005): "e35875b4a2112e9b",
    ("memory_bound", 7, 2034): "8257b7bf70ca81dd",
    ("memory_bound", 5000, 7): "1b3a10b18fe9faee",
    ("memory_bound", 5000, 2005): "963b74a0c23f3eb7",
    ("memory_bound", 5000, 2034): "abae9180cfb4450e",
    ("memory_bound", 20000, 7): "c100f64b3b657419",
    ("memory_bound", 20000, 2005): "1d09db09c5248e49",
    ("memory_bound", 20000, 2034): "90b0b8bf8d6a01d0",
}


class TestTracePin:
    @pytest.mark.parametrize("mix,n,seed", sorted(TRACE_PINS))
    def test_trace_bytes_pinned(self, mix, n, seed):
        assert trace_digest(generate_trace(mix, n, seed=seed)) == \
            TRACE_PINS[mix, n, seed]

    def test_pin_covers_every_registered_mix(self):
        assert {mix for mix, _, _ in TRACE_PINS} == set(available_mixes())


def random_mix(rng, name):
    """A random :class:`WorkloadMix` over a random subset of classes."""
    classes = rng.sample(list(InstrClass), rng.randint(1, len(InstrClass)))
    return WorkloadMix(
        name=name,
        class_weights={k: rng.choice((0.0, 0.01, rng.random(), 1.0))
                       for k in classes[1:]} | {classes[0]: 0.5},
        dep_prob=rng.choice((0.0, 1.0, rng.random())),
        second_src_prob=rng.choice((0.0, 1.0, rng.random())),
        dep_distance_mean=rng.choice((1.0, 1.5, 1.0 + 20 * rng.random())),
        mispredict_rate=rng.random(),
        l1_miss_rate=rng.random(),
        l2_miss_rate=rng.choice((0.0, 1.0, rng.random())),
        n_arch_regs=rng.randint(1, 128),
    )


#: Hand-picked corners of the mix space for the differential test.
EDGE_MIXES = (
    WorkloadMix("no-deps", {InstrClass.INT_ALU: 1, InstrClass.FP_ADD: 1},
                dep_prob=0.0, second_src_prob=0.0),
    WorkloadMix("all-deps", {InstrClass.INT_ALU: 1, InstrClass.FP_MUL: 1,
                             InstrClass.LOAD: 1},
                dep_prob=1.0, second_src_prob=1.0),
    WorkloadMix("nearest", {InstrClass.INT_ALU: 1, InstrClass.FP_LOAD: 1,
                            InstrClass.FP_ADD: 1},
                dep_prob=1.0, second_src_prob=1.0, dep_distance_mean=1.0),
    WorkloadMix("no-producers", {InstrClass.FP_STORE: 1, InstrClass.STORE: 1,
                                 InstrClass.BRANCH: 1, InstrClass.NOP: 1},
                dep_prob=1.0, second_src_prob=1.0),
    WorkloadMix("int-producers-only", {InstrClass.INT_ALU: 1,
                                       InstrClass.FP_STORE: 1,
                                       InstrClass.FP_ADD: 1},
                dep_prob=1.0),
    WorkloadMix("fp-producers-only", {InstrClass.FP_ADD: 1,
                                      InstrClass.STORE: 1,
                                      InstrClass.BRANCH: 1},
                dep_prob=1.0, mispredict_rate=1.0),
    WorkloadMix("nop-heavy", {InstrClass.NOP: 0.9, InstrClass.INT_ALU: 0.05,
                              InstrClass.LOAD: 0.05},
                dep_prob=1.0, second_src_prob=1.0, l1_miss_rate=1.0),
    WorkloadMix("nop-only", {InstrClass.NOP: 1.0}, dep_prob=1.0),
)


class TestDifferentialFuzz:
    """The vectorized generator against the per-instruction reference loop."""

    @pytest.mark.parametrize("mix", EDGE_MIXES, ids=lambda m: m.name)
    @pytest.mark.parametrize("n", (0, 1, 2, 7, 300))
    def test_edge_mixes(self, mix, n):
        for seed in (0, 7, 2005):
            assert columns(generate_trace(mix, n, seed=seed)) == \
                columns(reference_generate_trace(mix, n, seed=seed))

    def test_random_mixes(self):
        rng = random.Random(13)
        for k in range(150):
            mix = random_mix(rng, f"fuzz{k}")
            n = rng.choice((0, 1, rng.randint(2, 50), rng.randint(50, 2000)))
            seed = rng.randrange(1 << 32)
            fast = generate_trace(mix, n, seed=seed)
            assert columns(fast) == \
                columns(reference_generate_trace(mix, n, seed=seed)), mix
            fast.validate()


class TestLengthArgument:
    @pytest.mark.parametrize("n", (5.0, True, False, "10", None, 2.5))
    def test_non_integer_length_rejected(self, n):
        with pytest.raises(ConfigurationError, match="trace length n must be "
                                                     "an integer"):
            generate_trace("branchy", n)

    @pytest.mark.parametrize("n", (np.int64(10), np.int32(10), np.uint8(10)))
    def test_numpy_integer_length_accepted(self, n):
        assert columns(generate_trace("branchy", n, seed=3)) == \
            columns(generate_trace("branchy", 10, seed=3))
