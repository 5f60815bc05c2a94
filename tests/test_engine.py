"""Tests for the cycle-level engine: trace handling, topology semantics,
determinism, and agreement with the naive reference model."""

import os
import sys

import pytest

from repro.common.config import ProcessorConfig
from repro.common.errors import TraceError
from repro.common.types import InstrClass, Topology
from repro.engine import (
    FLAG_L1_MISS,
    FLAG_L2_MISS,
    FLAG_MISPREDICT,
    Pipeline,
    SoAWindow,
    Trace,
    simulate,
)
from repro.workloads import generate_trace

IALU = InstrClass.INT_ALU


def chain_trace(n=200):
    """A single serial dependence chain — maximally bypass-sensitive."""
    ops = [(IALU, f"r{i + 1}", f"r{i}", None, 0) for i in range(n)]
    return Trace.from_ops(ops, name="chain")


def independent_trace(n=400):
    """Fully independent ALU ops — limited only by machine bandwidth."""
    ops = [(IALU, f"r{i}") for i in range(n)]
    return Trace.from_ops(ops, name="independent")


class TestTrace:
    def test_from_ops_renames_registers(self):
        t = Trace.from_ops([
            (IALU, "a"),
            (IALU, "b", "a", None, 0),
            (IALU, "a", "a", "b", 0),
        ])
        assert list(t.src1) == [-1, 0, 0]
        assert list(t.src2) == [-1, -1, 1]

    def test_unwritten_register_is_live_in(self):
        t = Trace.from_ops([(IALU, "x", "never_written", None, 0)])
        assert t.src1[0] == -1

    def test_forward_dependence_rejected(self):
        with pytest.raises(TraceError, match="precede"):
            Trace("bad", [0, 0], [1, -1], [-1, -1], [0, 1], [0, 0])

    def test_source_must_produce_a_value(self):
        branch = int(InstrClass.BRANCH)
        with pytest.raises(TraceError, match="no register value"):
            Trace("bad", [branch, 0], [-1, 0], [-1, -1], [-1, 0], [0, 0])

    def test_mispredict_flag_only_on_branches(self):
        with pytest.raises(TraceError, match="mispredict"):
            Trace("bad", [0], [-1], [-1], [0], [FLAG_MISPREDICT])

    def test_miss_flag_only_on_memory(self):
        with pytest.raises(TraceError, match="cache-miss"):
            Trace("bad", [0], [-1], [-1], [0], [FLAG_L1_MISS])

    def test_from_ops_flags_position_enforced(self):
        branch = InstrClass.BRANCH
        # Correct padded form round-trips the flag.
        t = Trace.from_ops([(IALU, "a"),
                            (branch, None, "a", None, FLAG_MISPREDICT)])
        assert t.flags[1] == FLAG_MISPREDICT
        # An int in a source slot is an error, never a silent register name.
        with pytest.raises(TraceError, match="not a register name"):
            Trace.from_ops([(IALU, "a"), (branch, None, "a", FLAG_MISPREDICT)])

    def test_window_columns_parallel(self):
        t = chain_trace(10)
        win = SoAWindow(t)
        assert len(win) == 10
        cols = win.columns()
        assert all(len(c) == 10 for c in cols)


BRANCH = int(InstrClass.BRANCH)
LOAD = int(InstrClass.LOAD)


class TestTraceValidation:
    """Each invariant's exact message, and the index the screen reports."""

    @pytest.mark.parametrize("columns,message", [
        (([0, 0, 0], [-1, 0], [-1, -1, -1], [1, 1, 1], [0, 0, 0]),
         "trace 'bad': column src1 has 2 entries, expected 3"),
        (([0, 0], [-1, -1], [-1, -1], [0, 0], [0]),
         "trace 'bad': column flags has 1 entries, expected 2"),
        (([0, 12], [-1, -1], [-1, -1], [0, 0], [0, 0]),
         "trace 'bad'[1]: invalid opclass 12"),
        (([0, -1], [-1, -1], [-1, -1], [0, 0], [0, 0]),
         "trace 'bad'[1]: invalid opclass -1"),
        (([0, 0], [-1, 1], [-1, -1], [0, 1], [0, 0]),
         "trace 'bad'[1]: source 1 does not precede its consumer "
         "(dependences must point backwards)"),
        (([0, 0, 0], [-1, -1, -1], [-1, -1, 5], [0, 1, 2], [0, 0, 0]),
         "trace 'bad'[2]: source 5 does not precede its consumer "
         "(dependences must point backwards)"),
        (([BRANCH, 0], [-1, -1], [-1, 0], [-1, 0], [0, 0]),
         "trace 'bad'[1]: source 0 (BRANCH) produces no register value"),
        (([0, 0], [-1, -1], [-1, -1], [0, 0], [0, FLAG_MISPREDICT]),
         "trace 'bad'[1]: mispredict flag on non-branch"),
        (([0, BRANCH], [-1, -1], [-1, -1], [0, -1], [0, FLAG_L2_MISS]),
         "trace 'bad'[1]: cache-miss flag on non-memory op"),
        (([LOAD], [-1], [-1], [0], [FLAG_L2_MISS]),
         "trace 'bad'[0]: L2 miss without L1 miss"),
    ])
    def test_violation_message(self, columns, message):
        with pytest.raises(TraceError) as excinfo:
            Trace("bad", *columns)
        assert str(excinfo.value) == message

    def test_mismatched_lengths_never_reach_the_pipeline(self):
        # Regression: with validate=False the short column used to run
        # through the kernel without any error.
        with pytest.raises(TraceError, match="expected 3"):
            trace = Trace("bad", [0, 0, 0], [-1, 0], [-1, -1, -1], [1, 1, 1],
                          [0, 0, 0], validate=False)
            Pipeline(ProcessorConfig()).run_record(trace)

    def test_first_offending_index_wins(self):
        # Index 1 breaks the flag rule, index 3 the dependence rule.
        t = Trace("bad", [0] * 5, [-1, -1, -1, 3, -1], [-1] * 5, [0] * 5,
                  [0, FLAG_MISPREDICT, 0, 0, 0], validate=False)
        with pytest.raises(TraceError, match=r"\[1\]: mispredict"):
            t.validate()

    def test_checks_at_one_index_keep_their_order(self):
        # An invalid opclass is reported before a bad source at that index.
        with pytest.raises(TraceError, match=r"\[0\]: invalid opclass 99"):
            Trace("bad", [99], [0], [-1], [0], [FLAG_L2_MISS])

    def test_screen_matches_front_to_back_scan(self):
        """Corrupt random generated traces; the vectorized screen must
        raise exactly what a scalar scan of every index raises first."""
        import random

        rng = random.Random(5)
        for k in range(300):
            t = generate_trace("memory_bound", rng.randint(1, 60), seed=k)
            for _ in range(rng.randint(0, 3)):
                col = getattr(t, rng.choice(("opclass", "src1", "src2", "flags")))
                i = rng.randrange(len(t))
                col[i] = rng.randint(-2, 12) if col.typecode == "b" \
                    else rng.randint(-3, len(t) + 1)
            expected = None
            try:
                for i in range(len(t)):
                    t._check_at(i)
            except TraceError as exc:
                expected = str(exc)
            if expected is None:
                t.validate()
            else:
                with pytest.raises(TraceError) as excinfo:
                    t.validate()
                assert str(excinfo.value) == expected


class TestTraceColumns:
    def test_numpy_columns_match_list_columns(self):
        import numpy as np

        cols = ([0, LOAD, BRANCH], [-1, 0, 1], [-1, -1, 0], [3, 4, -1],
                [0, FLAG_L1_MISS, FLAG_MISPREDICT])
        from_lists = Trace("t", *cols)
        from_arrays = Trace("t", *(np.array(c) for c in cols))
        for name in ("opclass", "src1", "src2", "dst", "flags"):
            a, b = getattr(from_lists, name), getattr(from_arrays, name)
            assert (a.typecode, a.tobytes()) == (b.typecode, b.tobytes())

    def test_out_of_range_numpy_value_raises_instead_of_wrapping(self):
        import numpy as np

        with pytest.raises(TraceError, match="column opclass value 300 does "
                                             "not fit int8"):
            Trace("t", np.array([300]), [-1], [-1], [0], [0])
        with pytest.raises(TraceError, match="column src1 value"):
            Trace("t", [0], np.array([2 ** 63], dtype=np.uint64), [-1], [0],
                  [0])

    def test_non_integer_numpy_column_rejected(self):
        import numpy as np

        with pytest.raises(TraceError, match="1-d integer array"):
            Trace("t", [0], [-1], [-1], np.array([0.0]), [0])
        with pytest.raises(TraceError, match="1-d integer array"):
            Trace("t", [0], [-1], [-1], np.zeros((1, 1), dtype=np.int64), [0])

    def test_class_counts(self):
        t = generate_trace("branchy", 500, seed=4)
        expected = [0] * len(InstrClass)
        for k in t.opclass:
            expected[k] += 1
        assert t.class_counts() == expected
        assert Trace("empty", [], [], [], [], []).class_counts() == \
            [0] * len(InstrClass)


class TestFuCoverage:
    def test_missing_fu_type_rejected_up_front(self):
        from repro.common.config import ClusterConfig
        from repro.common.errors import ConfigurationError

        cfg = ProcessorConfig(cluster=ClusterConfig(fu_counts=(1, 1, 0, 0)))
        t = generate_trace("fp_heavy", 200, seed=1)
        with pytest.raises(ConfigurationError, match="zero units"):
            simulate(t, cfg)

    def test_int_only_cluster_runs_int_only_trace(self):
        from repro.common.config import ClusterConfig

        cfg = ProcessorConfig(cluster=ClusterConfig(fu_counts=(1, 1, 0, 0)))
        t = generate_trace("int_heavy", 500, seed=1)
        assert simulate(t, cfg).cycles > 0


class TestTopologySemantics:
    def test_conv_beats_ring_on_dependence_chain(self):
        """The paper's central trade-off: no bypass in the ring means a
        serial chain pays the hop+writeback on every producer->consumer
        edge, while the conventional cluster issues back-to-back."""
        t = chain_trace()
        ipc = {}
        for topo in (Topology.CONV, Topology.RING):
            cfg = ProcessorConfig(n_clusters=4, topology=topo)
            ipc[topo] = Pipeline(cfg).run(t).get_scalar("ipc")
        assert ipc[Topology.CONV] > ipc[Topology.RING]
        assert ipc[Topology.CONV] > 0.9  # bypass: ~1 instr/cycle
        assert ipc[Topology.RING] < 0.5  # >= 2 extra cycles per edge

    def test_ring_results_always_communicate(self):
        t = independent_trace(100)
        cfg = ProcessorConfig(n_clusters=4, topology=Topology.RING)
        stats = Pipeline(cfg).run(t)
        assert int(stats.counter("comm.messages")) == 100

    def test_conv_local_values_never_communicate(self):
        t = chain_trace(100)
        cfg = ProcessorConfig(n_clusters=4, topology=Topology.CONV)
        stats = Pipeline(cfg).run(t)
        # Dependence steering keeps the chain in one cluster: no traffic.
        assert int(stats.counter("comm.messages")) == 0

    def test_independent_work_reaches_fetch_limit(self):
        t = independent_trace(800)
        cfg = ProcessorConfig(n_clusters=4, topology=Topology.CONV)
        ipc = Pipeline(cfg).run(t).get_scalar("ipc")
        assert ipc == pytest.approx(cfg.fetch_width, rel=0.1)

    def test_more_clusters_do_not_hurt_parallel_work(self):
        t = generate_trace("int_heavy", 5000, seed=11)
        prev = 0.0
        for n_clusters in (1, 2, 4):
            cfg = ProcessorConfig(n_clusters=n_clusters, topology=Topology.CONV)
            ipc = Pipeline(cfg).run(t).get_scalar("ipc")
            assert ipc >= prev * 0.95  # allow steering noise, no collapse
            prev = ipc


class TestPenalties:
    def test_smaller_window_cannot_be_faster(self):
        t = generate_trace("int_heavy", 3000, seed=5)
        big = ProcessorConfig(window_size=256)
        small = ProcessorConfig(window_size=8)
        cycles_big = int(Pipeline(big).run(t).counter("cycles"))
        cycles_small = int(Pipeline(small).run(t).counter("cycles"))
        assert cycles_small >= cycles_big

    def test_mispredicted_branch_costs_cycles(self):
        base_ops = [(IALU, f"r{i}") for i in range(50)]
        branch = int(InstrClass.BRANCH)
        taken = base_ops[:25] + [(branch, None, "r0", None, FLAG_MISPREDICT)] + base_ops[25:]
        clean = base_ops[:25] + [(branch, None, "r0", None, 0)] + base_ops[25:]
        cfg = ProcessorConfig()
        c_taken = int(Pipeline(cfg).run(Trace.from_ops(taken)).counter("cycles"))
        c_clean = int(Pipeline(cfg).run(Trace.from_ops(clean)).counter("cycles"))
        assert c_taken > c_clean

    def test_load_miss_stalls_consumer(self):
        load = int(InstrClass.LOAD)
        hit = [(load, "r0"), (IALU, "r1", "r0", None, 0)]
        miss = [(load, "r0", None, None, FLAG_L1_MISS),
                (IALU, "r1", "r0", None, 0)]
        cfg = ProcessorConfig()
        c_hit = int(Pipeline(cfg).run(Trace.from_ops(hit)).counter("cycles"))
        c_miss = int(Pipeline(cfg).run(Trace.from_ops(miss)).counter("cycles"))
        assert c_miss == c_hit + cfg.memory.l1d.miss_penalty


class TestDeterminism:
    def test_identical_runs_identical_stats(self):
        t = generate_trace("branchy", 4000, seed=77)
        cfg = ProcessorConfig(topology=Topology.RING)
        a = Pipeline(cfg).run(t).as_dict()
        b = Pipeline(cfg).run(t).as_dict()
        assert a == b

    def test_regenerated_trace_identical_stats(self):
        cfg = ProcessorConfig()
        runs = []
        for _ in range(2):
            t = generate_trace("memory_bound", 4000, seed=13)
            runs.append(Pipeline(cfg).run(t).as_dict())
        assert runs[0] == runs[1]


class TestStatsAccounting:
    def test_counters_consistent_with_trace(self):
        t = generate_trace("int_heavy", 3000, seed=3)
        cfg = ProcessorConfig()
        stats = Pipeline(cfg).run(t)
        assert int(stats.counter("instructions")) == len(t)
        issued = sum(
            int(stats.counter(f"issued.cluster{c}"))
            for c in range(cfg.n_clusters)
        )
        nops = t.class_counts()[InstrClass.NOP]
        assert issued == len(t) - nops

    def test_class_counters_match_trace(self):
        t = generate_trace("fp_heavy", 2000, seed=9)
        stats = Pipeline(ProcessorConfig()).run(t)
        counts = t.class_counts()
        for k in InstrClass:
            if counts[k]:
                assert int(stats.counter(f"class.{k.name.lower()}")) == counts[k]

    def test_empty_trace(self):
        t = Trace("empty", [], [], [], [], [])
        stats = Pipeline(ProcessorConfig()).run(t)
        assert int(stats.counter("cycles")) == 0
        assert stats.get_scalar("ipc") == 0.0


class TestNaiveReferenceAgreement:
    """The object-per-instruction model in bench/ is the correctness oracle:
    both implementations must agree cycle-for-cycle on every mix/topology."""

    @classmethod
    def setup_class(cls):
        bench_dir = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
        sys.path.insert(0, bench_dir)

    @pytest.mark.parametrize("mix", ["int_heavy", "fp_heavy", "memory_bound",
                                     "branchy"])
    @pytest.mark.parametrize("topology", [Topology.RING, Topology.CONV])
    def test_cycles_and_comms_agree(self, mix, topology):
        from naive_ref import NaivePipeline

        t = generate_trace(mix, 2000, seed=123)
        cfg = ProcessorConfig(n_clusters=4, topology=topology)
        naive = NaivePipeline(cfg).run(t)
        soa = simulate(t, cfg)
        assert naive["cycles"] == soa.cycles
        assert naive["communications"] == soa.communications
        assert naive["mispredicts"] == soa.mispredicts
        assert naive["l1_misses"] == soa.l1_misses

    @pytest.mark.parametrize("n_clusters", [1, 3, 5])
    @pytest.mark.parametrize("topology", [Topology.RING, Topology.CONV])
    def test_agreement_off_power_of_two(self, n_clusters, topology):
        """The kernel's &-mask modulo fast path only engages for power-of-two
        cluster counts; odd counts must take the % path and still agree."""
        from naive_ref import NaivePipeline

        t = generate_trace("int_heavy", 2000, seed=31)
        cfg = ProcessorConfig(n_clusters=n_clusters, topology=topology)
        naive = NaivePipeline(cfg).run(t)
        soa = simulate(t, cfg)
        assert naive["cycles"] == soa.cycles
        assert naive["communications"] == soa.communications


class TestResultRecord:
    """Serializable result records (consumed by the sweep result store)."""

    def test_kernel_result_round_trip(self):
        from repro.engine import KernelResult

        t = generate_trace("int_heavy", 1500, seed=9)
        result = simulate(t, ProcessorConfig())
        data = result.to_dict()
        rebuilt = KernelResult.from_dict(data)
        assert rebuilt == result
        assert rebuilt.ipc == result.ipc
        # JSON round trip too: histogram keys survive str->int coercion
        import json

        rebuilt2 = KernelResult.from_dict(json.loads(json.dumps(data)))
        assert rebuilt2 == result

    def test_kernel_result_from_dict_rejects_bad_keys(self):
        from repro.engine import KernelResult

        t = generate_trace("int_heavy", 100, seed=9)
        data = simulate(t, ProcessorConfig()).to_dict()
        data["speedup"] = 2.0
        with pytest.raises(ValueError, match="unknown keys"):
            KernelResult.from_dict(data)
        del data["speedup"]
        del data["cycles"]
        with pytest.raises(ValueError, match="missing keys"):
            KernelResult.from_dict(data)

    def test_kernel_result_from_dict_names_bad_histogram_key(self):
        from repro.engine import KernelResult

        t = generate_trace("int_heavy", 100, seed=9)
        data = simulate(t, ProcessorConfig()).to_dict()
        data["hop_histogram"] = {"not-a-number": 3}
        with pytest.raises(ValueError, match="'not-a-number'"):
            KernelResult.from_dict(data)
        data["hop_histogram"] = {"1": None}
        with pytest.raises(ValueError, match="None"):
            KernelResult.from_dict(data)

    def test_kernel_result_empty_histogram_round_trip(self):
        """A one-cluster CONV machine never communicates: the histogram is
        empty and must survive the to_dict/from_dict (and JSON) round trip."""
        import json

        from repro.engine import KernelResult

        t = generate_trace("int_heavy", 500, seed=9)
        cfg = ProcessorConfig(n_clusters=1, topology=Topology.CONV)
        result = simulate(t, cfg)
        assert result.hop_histogram == {}
        data = result.to_dict()
        assert KernelResult.from_dict(data) == result
        assert KernelResult.from_dict(json.loads(json.dumps(data))) == result

    def test_pipeline_run_record(self):
        from repro.engine import ENGINE_VERSION, Pipeline

        cfg = ProcessorConfig(n_clusters=4, topology=Topology.RING)
        t = generate_trace("int_heavy", 1000, seed=5)
        record = Pipeline(cfg).run_record(t)
        assert record["engine_version"] == ENGINE_VERSION
        assert record["config_digest"] == cfg.config_digest()
        assert record["trace"] == t.name
        assert record["kernel_variant"] == Pipeline(cfg).kernel_variant
        assert record["result"]["cycles"] == simulate(t, cfg).cycles
        import json

        json.dumps(record)  # fully JSON-serializable
