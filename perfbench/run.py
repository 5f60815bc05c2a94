"""End-to-end sweep benchmark: three grid workloads through the real CLIs.

Usage::

    python3 perfbench/run.py --workload {paper-pool,seeds-pool,paper-fabric,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload runs its grid on a fresh store, again and again for
``--seconds``, through ``python -m repro.sweep run`` (``*-pool``) or
``python -m repro.fabric run --no-local`` against two local
``python -m repro.service serve`` peers (``paper-fabric``), and checks every
store byte (see ``workloads.check_store``).

``--trace 0`` reports the end-to-end metrics (medians over the run):
``grid_s``, ``setup_s``, ``peak_rss_mb`` and ``ok_frac``.  ``--trace 1``
alternates untraced and traced grid runs (processes started through
``launch.py``) and reports the per-layer metrics of ``layers.METRICS``,
including the tracing overhead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
status is 0 only when every store checked out.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(HERE, "launch.py")

WORKLOADS = ("paper-pool", "seeds-pool", "paper-fabric")
END_TO_END_UNITS = {"grid_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "frac"}

#: Worker processes for the pool workloads; peers run ``serve --workers 1``.
POOL_WORKERS = 2
N_PEERS = 2
#: Cold set-ups timed after each grid run, and at least per run
#: (``setup_s`` is their median).
SETUPS_PER_GRID = 2
SETUP_SAMPLES = 9
#: Bound on any one child process; the whole run stays far below it.
PROCESS_TIMEOUT_S = 150.0

_SUMMARY = re.compile(r"(\d+) points: (\d+) cached, (\d+) computed")
_LISTENING = re.compile(r"listening on http://[\d.]+:(\d+)")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Runner:
    """Launches and reaps the workload's processes inside one run
    directory, and kills whatever is left of them at the end."""

    def __init__(self, run_dir: str) -> None:
        self.run_dir = run_dir
        self.live: List[subprocess.Popen] = []
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": SRC,
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "PYTHONHASHSEED": "0",
            "TMPDIR": run_dir,       # the fabric CLI's scratch directory
        })
        self.env.pop("REPRO_KERNEL_VARIANT", None)

    def start(self, module: str, args: Sequence[str], out_path: str,
              span_dir: Optional[str] = None,
              unbuffered: bool = False) -> subprocess.Popen:
        if span_dir is None:
            argv = [sys.executable, "-m", module, *args]
        else:
            argv = [sys.executable, LAUNCHER, span_dir, module, *args]
        env = dict(self.env, PYTHONUNBUFFERED="1") if unbuffered else self.env
        with open(out_path, "wb") as out:
            proc = subprocess.Popen(
                argv, cwd=self.run_dir, env=env, stdout=out,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                start_new_session=True)
        proc.out_path = out_path
        self.live.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen,
             timeout: float = PROCESS_TIMEOUT_S) -> Tuple[int, float]:
        """Wait for ``proc``; return its exit code and the peak RSS (MB)
        of it and every descendant it waited for.  Stragglers left in its
        process group are killed."""
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)
        self.live.remove(proc)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def run(self, module: str, args: Sequence[str], name: str,
            span_dir: Optional[str] = None) -> Tuple[float, int, float, str]:
        """Run one process to completion: (wall s, exit code, RSS MB, output)."""
        out_path = os.path.join(self.run_dir, name + ".out")
        t0 = time.perf_counter()
        proc = self.start(module, args, out_path, span_dir)
        code, rss = self.reap(proc)
        wall = time.perf_counter() - t0
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            output = fh.read()
        if code != 0:
            log(f"{module} {' '.join(args)} exited {code}:\n{output[-2000:]}")
        return wall, code, rss, output

    def stop(self, proc: subprocess.Popen) -> Tuple[int, float]:
        """SIGTERM (a graceful stop for the service), then reap."""
        try:
            os.kill(proc.pid, signal.SIGTERM)   # not send_signal: its poll()
        except ProcessLookupError:              # would reap the exit status
            pass
        return self.reap(proc, timeout=30.0)

    def kill_all(self) -> None:
        for proc in list(self.live):
            _kill_group(proc.pid)
            try:
                self.reap(proc, timeout=10.0)
            except ChildProcessError:
                self.live.remove(proc)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def parse_summary(output: str) -> Optional[Tuple[int, int, int]]:
    """(points, cached, computed) from a sweep/fabric CLI summary line."""
    match = _SUMMARY.search(output)
    return tuple(int(g) for g in match.groups()) if match else None


class Workload:
    """One workload in one run directory: its spec, expected store, checks
    and measurements."""

    def __init__(self, name: str, seed: int, run_dir: str) -> None:
        self.name = name
        self.fabric = name == "paper-fabric"
        self.run_dir = run_dir
        self.runner = Runner(run_dir)
        self.spec_path = os.path.join(run_dir, "spec.json")
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            json.dump(workloads.spec_for(name, seed), fh)
        self.grid = workloads.Grid(self.spec_path, self.runner.env)
        self.n_points = len(self.grid.keys)
        self.pinned = workloads.pinned_digest(name, seed)
        self.reference: Optional[bytes] = None
        self.sampled = False
        self.tally = workloads.Tally()
        self.setup_s: List[float] = []

    # -- checks -----------------------------------------------------------
    def check(self, store_path: str, what: str, code: int = 0,
              summary: Optional[Tuple[int, int, int]] = None) -> None:
        """Verify one finished store and count its points into the tally.
        The first store of a run is sample-checked; without a pin it also
        becomes the reference every later store must equal byte for byte."""
        try:
            with open(store_path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            raw = b""
        sample = () if self.sampled else workloads.sample_indexes(self.n_points)
        self.sampled = True
        bad = workloads.check_store(
            raw, self.grid.keys, self.grid.recompute, pinned=self.pinned,
            reference=self.reference, sample=sample)
        n_bad = len(bad)
        if code != 0 or summary is None or summary[2] != self.n_points:
            n_bad = self.n_points          # a failed run proves nothing
        self.tally.add(self.n_points, n_bad, what)
        if self.reference is None and self.pinned is None and not bad:
            self.reference = raw

    def check_rerun(self, code: int, output: str, what: str) -> None:
        """A run on the finished store must find every point cached."""
        summary = parse_summary(output)
        ok = code == 0 and summary == (self.n_points, self.n_points, 0)
        if not ok:
            self.tally.add(0, self.n_points, f"{what}: rerun {summary}")

    # -- one grid run, one set-up -----------------------------------------
    def _sweep_args(self, store: str) -> List[str]:
        return ["run", "--spec", self.spec_path, "--store", store,
                "--workers", str(POOL_WORKERS)]

    def _fabric_args(self, store: str, peers) -> List[str]:
        args = ["run", "--spec", self.spec_path, "--store", store, "--no-local"]
        for _proc, port in peers:
            args += ["--peer", f"127.0.0.1:{port}"]
        return args

    def grid_run(self, rep_dir: str, span_dir: Optional[str] = None
                 ) -> Tuple[float, float, str, str]:
        """Run the grid once on an empty store and check the store; returns
        (wall s, peak RSS MB, CLI output, store path).  A fabric run starts
        its own peers, whose set-up time counts as a set-up sample."""
        tag = os.path.basename(rep_dir)
        os.makedirs(rep_dir)
        if not self.fabric:
            store = os.path.join(rep_dir, "store.jsonl")
            wall, code, rss, out = self.runner.run(
                "repro.sweep", self._sweep_args(store), f"{tag}-grid", span_dir)
            self.check(store, tag, code, parse_summary(out))
            return wall, rss, out, store
        store = os.path.join(rep_dir, "merged.jsonl")
        peers, setup = self.start_peers(rep_dir, span_dir)
        if span_dir is None:
            self.setup_s.append(setup)
        try:
            wall, code, rss, out = self.runner.run(
                "repro.fabric", self._fabric_args(store, peers),
                f"{tag}-coordinator", span_dir)
            self.check(store, tag, code, parse_summary(out))
        finally:
            rss = max([rss] + self.stop_peers(peers, tag))
        return wall, rss, out, store

    def setup_run(self, store: str, tag: str,
                  span_dir: Optional[str] = None) -> float:
        """One cold set-up against the finished ``store``, followed by a
        rerun that must find every point cached; returns the set-up time.
        For the pool workloads the rerun is the set-up: imports, spec
        expansion, store open and the cache check."""
        if not self.fabric:
            wall, code, _rss, out = self.runner.run(
                "repro.sweep", self._sweep_args(store), f"{tag}-rerun", span_dir)
            self.check_rerun(code, out, tag)
            return wall
        rep_dir = os.path.join(self.run_dir, tag)
        os.makedirs(rep_dir)
        peers, setup = self.start_peers(rep_dir, span_dir)
        try:
            _s, code, _rss, out = self.runner.run(
                "repro.fabric", self._fabric_args(store, peers),
                f"{tag}-rerun", span_dir)
            self.check_rerun(code, out, tag)
        finally:
            self.stop_peers(peers, tag)
            shutil.rmtree(rep_dir, ignore_errors=True)
        return setup

    def start_peers(self, rep_dir: str, span_dir: Optional[str]
                    ) -> Tuple[List[Tuple[subprocess.Popen, int]], float]:
        """Start the peers on ephemeral ports and wait until each answers
        ``/healthz`` and the coordinator's ``probe`` passes; returns the
        peers and that set-up time."""
        tag = os.path.basename(rep_dir)
        t0 = time.perf_counter()
        procs = []
        for i in range(N_PEERS):
            store = os.path.join(rep_dir, f"peer{i}", "store.jsonl")
            os.makedirs(os.path.dirname(store))
            procs.append(self.runner.start(
                "repro.service",
                ["serve", "--port", "0", "--workers", "1", "--store", store],
                os.path.join(self.run_dir, f"{tag}-peer{i}.out"),
                span_dir, unbuffered=True))
        peers = [(proc, _wait_port(proc)) for proc in procs]
        for _proc, port in peers:
            _wait_healthy(port)
        probe_args = ["probe"]
        for _proc, port in peers:
            probe_args += ["--peer", f"127.0.0.1:{port}"]
        _s, code, _rss, _out = self.runner.run(
            "repro.fabric", probe_args, f"{tag}-probe", span_dir)
        if code != 0:
            raise RuntimeError(f"fabric probe failed with exit {code}")
        return peers, time.perf_counter() - t0

    def stop_peers(self, peers, tag: str) -> List[float]:
        """Stop the peers gracefully; returns their peak RSS (MB)."""
        rss = []
        for proc, _port in peers:
            code, peak = self.runner.stop(proc)
            rss.append(peak)
            if code != 0:
                self.tally.add(0, self.n_points, f"{tag}: peer exit {code}")
        return rss

    # -- measurement loops --------------------------------------------------
    def prepare(self) -> None:
        """Compile the program's bytecode once, and for a fabric run on a
        seed without a pin, build the paper-pool store the merged stores
        must equal (it is sample-checked like any first store)."""
        for module in ("repro.service", "repro.fabric"):
            _s, code, _rss, _out = self.runner.run(module, ["--help"], "warmup")
            if code != 0:
                raise RuntimeError(f"python -m {module} does not start")
        if self.fabric and self.pinned is None:
            store = os.path.join(self.run_dir, "reference.jsonl")
            _s, code, _rss, out = self.runner.run(
                "repro.sweep", self._sweep_args(store), "reference")
            self.check(store, "paper-pool reference", code, parse_summary(out))

    def measure(self, seconds: float) -> Dict[str, float]:
        grid_s: List[float] = []
        rss_mb: List[float] = []
        t0 = time.perf_counter()
        while True:
            rep_dir = os.path.join(self.run_dir, f"run{len(grid_s)}")
            wall, rss, _out, store = self.grid_run(rep_dir)
            grid_s.append(wall)
            rss_mb.append(rss)
            log(f"{self.name}: grid {wall:.3f}s rss {rss:.1f}MB")
            # Set-ups are spread over the run, so that a slow spell of the
            # host hits a few samples rather than all of them.
            while len(self.setup_s) < SETUPS_PER_GRID * len(grid_s):
                self.setup_s.append(
                    self.setup_run(store, f"setup{len(self.setup_s)}"))
            if time.perf_counter() - t0 >= seconds:
                break                   # keep the last store for set-ups
            shutil.rmtree(rep_dir)
        while len(self.setup_s) < SETUP_SAMPLES:
            self.setup_s.append(
                self.setup_run(store, f"setup{len(self.setup_s)}"))
        log(f"{self.name}: setup " + " ".join(f"{s:.3f}" for s in self.setup_s))
        return {
            "grid_s": statistics.median(grid_s),
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": statistics.median(rss_mb),
            "ok_frac": self.tally.ok_frac,
        }

    def measure_traced(self, seconds: float) -> Dict[str, float]:
        """Alternate untraced and traced grid runs; the per-layer metrics
        come from the first traced run and a traced set-up after it."""
        plain: List[float] = []
        traced: List[float] = []
        metrics: Dict[str, float] = {}
        t0 = time.perf_counter()
        while not traced or time.perf_counter() - t0 < seconds:
            i = len(traced)
            wall, _rss, _out, _store = self.grid_run(
                os.path.join(self.run_dir, f"plain{i}"))
            plain.append(wall)
            span_dir = os.path.join(self.run_dir, f"spans{i}")
            os.makedirs(span_dir)
            wall, _rss, out, store = self.grid_run(
                os.path.join(self.run_dir, f"traced{i}"), span_dir)
            traced.append(wall)
            log(f"{self.name}: grid {plain[-1]:.3f}s, traced {wall:.3f}s")
            if not metrics:
                spans, counters = layers.load_spans(span_dir)
                metrics = layers.layer_metrics(
                    spans, counters, wall, layers.expired_leases(out))
                for name, share in layers.layer_shares(spans).items():
                    log(f"  share of traced self time {name}: {share:.3f}")
                for name in ("runner.point", "service.result", "fabric.shard"):
                    n = sum(1 for s in spans if s.name == name)
                    log(f"  {name}: {n} samples, highest percentile with 10 "
                        f"beyond it: p{layers.tail_percentile(n)}")
                setup_dir = os.path.join(self.run_dir, "spans-setup")
                os.makedirs(setup_dir)
                self.setup_run(store, "traced-setup", setup_dir)
                opens = [s for s in layers.load_spans(setup_dir)[0]
                         if s.name == "store.open"]
                metrics["store.open.calls"] = len(opens)
                metrics["store.open.s"] = sum(s.duration for s in opens)
            for path in (span_dir, os.path.dirname(store)):
                shutil.rmtree(path)
            shutil.rmtree(os.path.join(self.run_dir, f"plain{i}"))
        metrics["bench.trace_overhead_frac"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0)
        return metrics


def _wait_port(proc: subprocess.Popen, timeout: float = 60.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with open(proc.out_path, encoding="utf-8", errors="replace") as fh:
            match = _LISTENING.search(fh.read())
        if match:
            return int(match.group(1))
        if proc.poll() is not None:
            raise RuntimeError(f"peer exited {proc.returncode} before listening")
        time.sleep(0.002)
    raise RuntimeError("peer did not start listening")


def _wait_healthy(port: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            if conn.getresponse().status == 200:
                return
        except OSError:
            pass
        finally:
            conn.close()
        time.sleep(0.002)
    raise RuntimeError(f"peer on port {port} never became healthy")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 base_dir: str) -> Tuple[Dict[str, float], "Workload"]:
    run_dir = os.path.join(base_dir, name)
    os.makedirs(run_dir)
    work = Workload(name, seed, run_dir)
    print(json.dumps({
        "workload": name, "seed": seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": work.grid.numpy_version,
        "pool_workers": POOL_WORKERS, "peers": N_PEERS,
        "points": work.n_points}), flush=True)
    try:
        work.prepare()
        if trace:
            metrics = work.measure_traced(seconds)
        else:
            metrics = work.measure(seconds)
    finally:
        work.runner.kill_all()
    return metrics, work


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "repro", "sweep", "__main__.py")):
        log(f"error: the program's sources are not in {SRC}")
        return 2

    # A SIGTERM unwinds through the ``finally`` blocks that stop children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if (os.cpu_count() or 1) < POOL_WORKERS:
        log(f"warning: {os.cpu_count()} CPU(s) for {POOL_WORKERS} busy workers")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = dict(layers.METRICS) if args.trace else END_TO_END_UNITS
    base_dir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(base_dir)
    results: Dict[str, dict] = {}
    attempted = failed = 0
    try:
        for name in names:
            metrics, work = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), base_dir)
            attempted += work.tally.attempted
            failed += work.tally.failed
            for problem in work.tally.problems:
                log(f"{name}: CHECK FAILED {problem}")
            for metric, value in metrics.items():
                key = metric if len(names) == 1 else f"{name}/{metric}"
                results[key] = {"value": value, "unit": units[metric]}
                print(f"{name:14s} {metric:34s} {value:14.6f} {units[metric]}")
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(base_dir))
        except OSError:
            pass
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": results}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
