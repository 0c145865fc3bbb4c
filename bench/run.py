"""The repository benchmark: one command, three workloads, every metric.

    python3 bench/run.py --workload oltp-4p --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The benchmark drives the program only
from outside, through its public entry points (``build_benchmark``,
``Simulator``, ``python -m repro.harness`` and its ``traces``
subcommands), in fresh interpreters it starts one after another, so the
load always comes from one process; the figure sweep adds its own two
workers. It checks the program's outputs, counts failed operations
against attempted ones, and prints one JSON object as the last line of
standard output:

* ``--trace 0``: every end-to-end metric of ``BENCHMARK.json``, measured
  with no tracing installed.
* ``--trace 1``: every per-layer metric, from a separate traced run
  (see ``tracing.py``) plus an untraced run of the same work, whose gap
  is reported as the tracing overhead.

Every end-to-end time is host time on the reference host of
``hostspeed.py``: each timed unit is bracketed by a fixed reference
kernel, and its wall time is scaled by how fast the host ran the kernel
around it. Workloads, metrics and their mapping are described in
``NOTES.md``.
Scratch files live under ``.bench_work/`` and are removed at exit; the
traced run's spans are kept under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Set

from child import rounds
from hostspeed import HostSpeed, kernel_s, on_cpus, serve_kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".bench_work"
SPANS = ROOT / ".bench_out"

#: A child interpreter that has not finished by then has hung.
CHILD_TIMEOUT_S = 150
#: Cold set-ups measured per run; ``setup_s`` is their median.
SETUPS = 3
#: Set-ups from warm caches per run; ``sweep_s.warm`` is their median
#: on the simulator workloads and the trace pipeline.
WARM_SETUPS = 5
#: Rounds of the figure sweep at least: a cold pass and a warm pass on
#: its cache each.
SWEEP_ROUNDS = 3
#: Per-layer self times must add up to the independently measured wall
#: time of the span they split (``Simulator.run``, a sweep, a sample)
#: within this share of it. Two fixed allowances come on top where the
#: program's own timer is the reference: its sweep timer leaves out the
#: coordinator's bookkeeping and two durable (fsynced) run-log writes
#: that the sweep span includes, and ``traces sample`` times itself with
#: the wall clock.
RECONCILE_TOLERANCE = 0.01
SWEEP_SLACK_S = 0.025
SAMPLE_SLACK_S = 0.002

#: The figure sweep, as a user regenerates Figures 2, 7 and 8.
SWEEP_ARGV = ("fig2", "fig7", "fig8", "--quick", "--workers", "2")
#: The first benchmark of the quick sweep, whose trace (4 processors,
#: harness trace seed 0) the figure sweep replays, profiles and samples,
#: at this many times the cells' length: one cell's capture is profiled
#: in a tenth of a second, and timings that short spread about twice as
#: much from run to run.
SWEEP_FIRST_BENCHMARK = "ocean"
SWEEP_TRACE_SCALE = 4
#: Rounds of ``profile`` and ``sample`` that process runs at least, so
#: that their metrics are medians of four.
SWEEP_TOOL_ROUNDS = 4
#: Share of ``--seconds`` the figure sweep spends on that process.
SWEEP_SIM_SHARE = 0.3

#: The simulator workload: benchmark, processors, memory ops per processor.
OLTP = ("tpc-b", 4, 8_000)
#: Trace pipeline: the capture it converts, and the sampling rate.
PIPELINE = ("tpc-w", 4, 25_000)
SAMPLE_RATE = 2
#: Rounds of the tools each cold process of the trace pipeline runs at
#: least, so that its metrics are medians of six.
TOOL_ROUNDS = 2
#: Share of its time the simulator workload, and the figure sweep's
#: replaying process, spend on ``traces profile`` and ``sample`` of
#: their own trace (the ``records_per_s.*`` metrics); the rest goes to
#: replays.
RECORDS_SHARE = 0.3

END_TO_END = (
    ("sim_ops_per_s.baseline", "1/s"), ("sim_ops_per_s.cgct", "1/s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("sim_speedup", "x"), ("broadcasts_avoided_frac", "frac"),
    ("cells_per_s.cold", "1/s"), ("sweep_s.warm", "s"),
    ("records_per_s.profile", "1/s"), ("records_per_s.sample", "1/s"),
)
PER_LAYER = (
    ("system.miss_s", "s"), ("system.miss_calls", "count"),
    ("system.miss_share", "frac"), ("system.step_self_s", "s"),
    ("system.ctor_s", "s"),
    ("system.l1_hits", "count"), ("system.l2_hits", "count"),
    ("system.external_requests", "count"), ("system.broadcasts", "count"),
    ("system.directs", "count"),
    ("rca.allocations", "count"), ("rca.self_invalidations", "count"),
    ("rca.forced_evictions", "count"), ("rca.avoided_per_unnecessary", "frac"),
    ("cache.l2.lookup_calls", "count"), ("cache.l2.snoop_probes", "count"),
    ("interconnect.bus.broadcast_calls", "count"),
    ("interconnect.bus.queue_cycles", "cycles"),
    ("memory.dram.access_calls", "count"),
    ("common.import_s", "s"), ("workloads.build_s", "s"),
    ("workloads.store_load_s", "s"),
    ("harness.task_execute_s", "s"), ("harness.cache_load_s", "s"),
    ("harness.cache_store_s", "s"), ("harness.cache_hits", "count"),
    ("harness.dispatch_wait_s", "s"), ("harness.cell_s.p50", "s"),
    ("harness.cell_s.p58", "s"), ("harness.cell_s.samples", "count"),
    ("traces.reader.records_per_s", "1/s"), ("traces.profiler.feed_s", "s"),
    ("traces.profiler.finish_s", "s"), ("traces.sample.s", "s"),
    ("traces.write_s", "s"),
    ("trace.overhead_frac", "frac"), ("trace.reconcile_error_frac", "frac"),
)


class Run:
    """Attempts, failures and scratch space of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: int,
                 traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.attempted = 0
        self.failures: List[str] = []
        self.work = WORK / f"{workload}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self._children = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.scales: List[float] = []
        #: The processor everything the run starts, and every kernel
        #: timed for it, runs on: the first one it may use.
        self.cpu = {min(os.sched_getaffinity(0))}

    def ref(self, seconds: float, scale: float) -> float:
        """*seconds* of host time, measured at *scale*, in reference
        seconds."""
        self.scales.append(scale)
        return seconds * scale

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; remember it when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def scratch(self, name: str) -> Path:
        path = self.work / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def child(self, spec: Dict) -> Dict:
        """Run ``child.py`` on *spec* in a fresh interpreter, on the run's
        processor."""
        self._children += 1
        tag = f"child{self._children}"
        spec = dict(spec, out=str(self.work / f"{tag}.out.json"),
                    run_id=f"{self.workload}-seed{self.seed}-{os.getpid()}",
                    spans_path=str(SPANS / f"{self.workload}-seed{self.seed}"
                                   f"-{tag}.spans.jsonl"))
        spec.setdefault("trace", False)
        return run_child(spec, self.work / f"{tag}.spec.json",
                         self.work / f"{tag}.log", self.env, self.cpu)

    def harness(self, argv, speed: HostSpeed) -> Dict:
        """``python -m repro.harness ARGV`` as a user runs it.

        Returns its exit code, stdout, whole wall time, the time from
        process start to the sweep's first dispatch (the ``sweep-start``
        record of ``--runlog``, which argv must name) and its scale by
        *speed*.
        """
        start = time.time()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.harness", *argv],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        wall = time.time() - start
        scale = speed.scale()
        runlog = Path(argv[argv.index("--runlog") + 1])
        records = [json.loads(line)
                   for line in runlog.read_text().splitlines()]
        sweep_start = [r for r in records if r["event"] == "sweep-start"][-1]
        return {"code": proc.returncode, "stdout": proc.stdout,
                "wall_s": wall, "setup_s": sweep_start["ts"] - start,
                "scale": scale,
                "records": records,
                "json": Path(argv[argv.index("--json") + 1]).read_text()}


def run_child(spec: Dict, spec_path: Path, log_path: Path,
              env: Dict[str, str], cpus: Set[int]) -> Dict:
    """Run ``child.py`` on *spec* on *cpus*, timing the kernel for it
    there whenever it asks; returns what it wrote to ``spec["out"]``."""
    argv = [sys.executable, str(CHILD), str(spec_path)]
    ask_read, ask_write = os.pipe()
    answer_read, answer_write = os.pipe()
    try:
        with on_cpus(cpus):
            spec = dict(spec, kernel_fds=[ask_write, answer_read],
                        kernel_s=kernel_s(), t0=time.time())
            spec_path.write_text(json.dumps(spec))
            with open(log_path, "w") as log:
                proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                        stderr=subprocess.STDOUT,
                                        pass_fds=(ask_write, answer_read))
            os.close(ask_write)
            os.close(answer_read)
            ask_write = answer_read = -1
            try:
                serve_kernel(proc, ask_read, answer_write, CHILD_TIMEOUT_S)
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
    finally:
        for fd in (ask_read, ask_write, answer_read, answer_write):
            if fd >= 0:
                os.close(fd)
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)
    return json.loads(Path(spec["out"]).read_text())


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------
def sim_spec(run: Run, store: Path, seconds: Optional[float],
             records_seconds: Optional[float] = None,
             trace: bool = False, workload=OLTP,
             seed: Optional[int] = None, records_rounds: int = 1) -> Dict:
    """A ``sim`` child: set up, replay both machines for *seconds* (None:
    no replay), then profile and sample for *records_seconds*, at least
    *records_rounds* times (None: not at all). *workload* is
    (benchmark, processors, ops per processor); *seed* is the run's by
    default."""
    benchmark, processors, ops = workload
    return {"mode": "sim", "benchmark": benchmark, "processors": processors,
            "ops": ops, "seed": run.seed if seed is None else seed,
            "store": str(store),
            "seconds": seconds,
            "records_seconds": records_seconds, "at_least": records_rounds,
            "work": str(run.scratch("records")), "rate": SAMPLE_RATE,
            "trace": trace}


def check_runs(run: Run, runs: List[Dict]) -> Dict[str, Dict]:
    """Every replay passed its invariant check, and every replay of one
    machine produced the identical fingerprint; returns one run a mode."""
    first: Dict[str, Dict] = {}
    for record in runs:
        run.check(record["error"] is None,
                  f"{record['mode']} replay: {record['error']}")
        reference = first.setdefault(record["mode"], record)
        run.check(record["fingerprint"] == reference["fingerprint"],
                  f"{record['mode']} fingerprint changed between repeats: "
                  f"{record['fingerprint']} vs {reference['fingerprint']}")
    return first


def sim_results(run: Run, runs: List[Dict]) -> Dict[str, float]:
    first = check_runs(run, runs)
    base, cgct = first["baseline"], first["cgct"]
    return {
        f"sim_ops_per_s.{mode}": median(
            r["ops"] / run.ref(r["wall_s"], r["scale"]) for r in runs
            if r["mode"] == mode)
        for mode in ("baseline", "cgct")
    } | {
        "sim_speedup": base["fingerprint"]["cycles"]
        / cgct["fingerprint"]["cycles"],
        "broadcasts_avoided_frac": cgct["avoided_frac"],
        "cells_per_s.cold": len(runs)
        / sum(run.ref(r["ctor_s"] + r["wall_s"], r["scale"]) for r in runs),
    }


def records_results(run: Run, steps: List[Dict]) -> Dict[str, float]:
    return {
        f"records_per_s.{kind}": median(
            s["records"] / run.ref(s["wall_s"], s["scale"]) for s in steps
            if s["step"] == kind)
        for kind in ("profile", "sample")
    }


def setups(run: Run, children: List[Dict]) -> float:
    """Median set-up time of *children*, in reference seconds."""
    return median(run.ref(c["setup_s"], c["setup_scale"]) for c in children)


def sim_workload(run: Run) -> Dict[str, float]:
    """Cold set-ups, each followed by a share of the replays, then warm
    set-ups; every process ends with a share of the profile and sample
    steps. Spreading each kind of sample over the whole run keeps a
    burst of host noise from landing on all of them."""
    records_seconds = run.seconds * RECORDS_SHARE / (SETUPS + WARM_SETUPS)
    cold = [run.child(sim_spec(run, run.scratch(f"store-{i}"),
                               run.seconds * (1 - RECORDS_SHARE) / SETUPS,
                               records_seconds))
            for i in range(SETUPS)]
    warm = [run.child(sim_spec(run, run.scratch("store-0"), None,
                               records_seconds))
            for _ in range(WARM_SETUPS)]
    steps = [s for c in (*cold, *warm) for s in c["steps"]]
    check_pipeline(run, steps)
    metrics = sim_results(run, [r for c in cold for r in c["runs"]])
    metrics.update(records_results(run, steps))
    metrics["setup_s"] = setups(run, cold)
    metrics["sweep_s.warm"] = setups(run, warm)
    return metrics


def sim_layers(run: Run) -> Dict[str, float]:
    """One replay of each machine and one profile and sample, traced;
    the same again untraced for the overhead."""
    plain = run.child(sim_spec(run, run.scratch("store-plain"), 0, 0))
    traced = run.child(sim_spec(run, run.scratch("store-traced"), 0, 0,
                                trace=True))
    check_runs(run, plain["runs"] + traced["runs"])
    check_pipeline(run, plain["steps"] + traced["steps"])
    layers = traced["layers"]
    metrics = span_metrics(layers, traced["trace_counts"])
    metrics.update(traces_metrics(layers, traced["trace_counts"]))
    metrics["common.import_s"] = traced["import_s"]
    metrics["trace.overhead_frac"] = (
        sum(r["wall_s"] for r in traced["runs"])
        / sum(r["wall_s"] for r in plain["runs"]) - 1.0)
    metrics["trace.reconcile_error_frac"] = reconcile(
        run, [(r["span_self_s"], r["wall_s"]) for r in traced["runs"]],
        "Simulator.run")
    return metrics


# ----------------------------------------------------------------------
# Figure sweep
# ----------------------------------------------------------------------
def sweep_ops(seed: int) -> int:
    """Memory ops per processor of the sweep's cells, from the seed.

    About 2 500, under the quick size of 12 000, so that three cold
    passes fit in a run; less a seed-chosen step, so that each seed
    gives different traces at nearly the same cost."""
    return 2_500 - 2 * (seed % 64)


def sweep_argv(run: Run, cache: Path, tag: str) -> List[str]:
    return [*SWEEP_ARGV, "--ops", str(sweep_ops(run.seed)),
            "--cache-dir", str(cache),
            "--runlog", str(run.work / f"{tag}.jsonl"),
            "--json", str(run.work / f"{tag}.json")]


#: Lines of the sweep's output that differ between identical sweeps:
#: its timings and the path ``--json`` wrote to.
STATUS_LINE = re.compile(
    r"^\[(\S+ finished in [0-9.]+s|results written to .*)\]$")


def figures_text(stdout: str) -> str:
    """The sweep's output without its timing and output-path lines."""
    return "\n".join(line for line in stdout.splitlines()
                     if not STATUS_LINE.match(line))


def percent(text: str) -> float:
    return float(text.split("%")[0]) / 100.0


def figure_metrics(json_path: Path) -> Dict[str, float]:
    """From ``--json``: Figure 8's average 512 B run-time reduction *r*,
    as the speedup 1 / (1 - r), and the mean of Figure 7's 512 B share
    of broadcasts avoided."""
    figures = {figure["experiment_id"]: figure
               for figure in json.loads(json_path.read_text())}
    fig7, fig8 = figures["fig7"], figures["fig8"]
    avoided = fig7["headers"].index("Avoided 512B")
    reduction = fig8["headers"].index("512B regions")
    average = [row for row in fig8["rows"] if row[0] == "AVERAGE"][0]
    return {
        "sim_speedup": 1.0 / (1.0 - percent(average[reduction])),
        "broadcasts_avoided_frac": statistics.fmean(
            percent(row[avoided]) for row in fig7["rows"]),
    }


def cell_records(records: List[Dict]) -> List[Dict]:
    return [r for r in records if r["event"] == "run"]


def sweep_end(records: List[Dict]) -> Dict:
    return [r for r in records if r["event"] == "sweep-end"][-1]


def check_sweep(run: Run, passes: List[Dict], cold: Dict) -> None:
    for result in passes:
        run.check(result["code"] == 0, f"sweep exited {result['code']}")
        end = sweep_end(result["records"])
        run.check(end["failures"] == 0 and end["completed"] > 0,
                  f"sweep cells failed: {end}")
        run.check(figures_text(result["stdout"])
                  == figures_text(cold["stdout"])
                  and result["json"] == cold["json"],
                  "warm sweep output differs from the cold sweep's")


def sweep_tools_spec(run: Run, store: Path, seconds: float,
                     trace: bool = False) -> Dict:
    """``traces profile`` and ``sample`` of the sweep's first cell's trace
    until *seconds* are spent (the ``records_per_s.*`` metrics)."""
    return {"mode": "pipeline", "benchmark": SWEEP_FIRST_BENCHMARK,
            "processors": 4, "ops": sweep_ops(run.seed), "seed": 0,
            "store": str(store), "work": str(run.scratch("records")),
            "seconds": seconds, "at_least": 1, "rate": SAMPLE_RATE,
            "enforce": False, "replay": False, "trace": trace}


def sweep_workload(run: Run) -> Dict[str, float]:
    """Rounds of one cold pass and one warm pass on its cache, for
    ``--seconds`` less the simulator's share, at least three rounds so
    that every sweep metric is a median of three. Then one process
    replays the trace of the sweep's first benchmark, at
    ``SWEEP_TRACE_SCALE`` times the cells' length, on both machines, and
    profiles and samples it. Every pass runs on the run's one
    processor, between kernels timed there."""
    colds: List[Dict] = []
    warms: List[Dict] = []
    sim_seconds = run.seconds * SWEEP_SIM_SHARE
    with on_cpus(run.cpu):
        speed = HostSpeed(kernel_s)
        for _ in rounds(run.seconds - sim_seconds, at_least=SWEEP_ROUNDS):
            round_ = len(colds)
            cache = run.scratch(f"results-{round_}")
            cold = run.harness(sweep_argv(run, cache, f"cold-{round_}"),
                               speed)
            warm = run.harness(sweep_argv(run, cache, f"warm-{round_}"),
                               speed)
            check_sweep(run, [cold, warm], cold)
            run.check(sweep_end(warm["records"])["simulated"] == 0,
                      "warm sweep simulated cells")
            colds.append(cold)
            warms.append(warm)
    sim = run.child(sim_spec(
        run, run.scratch("store"), sim_seconds * (1 - RECORDS_SHARE),
        sim_seconds * RECORDS_SHARE,
        workload=(SWEEP_FIRST_BENCHMARK, 4,
                  SWEEP_TRACE_SCALE * sweep_ops(run.seed)),
        seed=0, records_rounds=SWEEP_TOOL_ROUNDS))
    check_pipeline(run, sim["steps"])
    metrics = sim_results(run, sim["runs"])
    metrics.update(figure_metrics(run.work / "cold-0.json"))
    metrics.update(records_results(run, sim["steps"]))
    metrics["setup_s"] = median(run.ref(p["setup_s"], p["scale"])
                                for p in colds + warms)
    metrics["cells_per_s.cold"] = median(
        len(cell_records(c["records"]))
        / run.ref(sweep_end(c["records"])["wall_s"], c["scale"])
        for c in colds)
    metrics["sweep_s.warm"] = median(run.ref(w["wall_s"], w["scale"])
                                     for w in warms)
    return metrics


def sweep_layers(run: Run) -> Dict[str, float]:
    """Two cold passes and a warm one, traced in one interpreter; one
    untraced cold pass for the overhead."""
    plain = run.child({"mode": "harness", "argvs": [
        sweep_argv(run, run.scratch("plain"), "plain")]})
    traced = run.child({"mode": "harness", "trace": True, "argvs": [
        sweep_argv(run, run.scratch("cold-a"), "cold-a"),
        sweep_argv(run, run.scratch("cold-b"), "cold-b"),
        sweep_argv(run, run.scratch("cold-a"), "warm")]})
    records = {tag: [json.loads(line) for line in
                     (run.work / f"{tag}.jsonl").read_text().splitlines()]
               for tag in ("plain", "cold-a", "cold-b", "warm")}
    for result in plain["passes"] + traced["passes"]:
        run.check(result["code"] == 0, f"sweep exited {result['code']}")
    run.check(all(figures_text(p["stdout"])
                  == figures_text(plain["passes"][0]["stdout"])
                  for p in traced["passes"]),
              "traced sweep output differs from the untraced sweep's")
    tracker = run.child(sweep_tools_spec(run, run.scratch("store"), 0,
                                         trace=True))
    check_pipeline(run, tracker["steps"])
    layers = merge_layers(traced, tracker)
    metrics = span_metrics(layers, traced["trace_counts"])
    metrics.update(traces_metrics(layers, tracker["trace_counts"]))
    cold_cells = sorted(c["wall_s"] for tag in ("cold-a", "cold-b")
                        for c in cell_records(records[tag]))
    quartiles = statistics.quantiles(cold_cells, n=100, method="inclusive")
    metrics.update({
        "common.import_s": traced["import_s"],
        "harness.task_execute_s": total(layers, "harness.task_execute"),
        "harness.cache_load_s": total(layers, "harness.cache_load"),
        "harness.cache_store_s": total(layers, "harness.cache_store"),
        "harness.cache_hits": sum(
            c["cache"] == "hit" for tag in ("cold-a", "cold-b", "warm")
            for c in cell_records(records[tag])),
        "harness.dispatch_wait_s": total(layers, "harness.dispatch_wait"),
        "harness.cell_s.p50": quartiles[49],
        "harness.cell_s.p58": quartiles[57],
        "harness.cell_s.samples": len(cold_cells),
        "trace.overhead_frac": traced["passes"][0]["wall_s"]
        / plain["passes"][0]["wall_s"] - 1.0,
        "trace.reconcile_error_frac": reconcile(
            run, [(p["sweep_self_s"], sweep_end(records[tag])["wall_s"])
                  for p, tag in zip(traced["passes"],
                                    ("cold-a", "cold-b", "warm"))],
            "sweep", slack=SWEEP_SLACK_S),
    })
    return metrics


# ----------------------------------------------------------------------
# Trace pipeline
# ----------------------------------------------------------------------
def pipeline_spec(run: Run, name: str, store: Path,
                  seconds: Optional[float], trace: bool = False) -> Dict:
    """A ``pipeline`` child: convert the capture, then run the tools for
    *seconds*, at least ``TOOL_ROUNDS`` rounds (0: one round; None: not
    at all)."""
    benchmark, processors, ops = PIPELINE
    return {"mode": "pipeline", "benchmark": benchmark,
            "processors": processors, "ops": ops, "seed": run.seed,
            "store": str(store), "work": str(run.scratch(name)),
            "seconds": seconds, "at_least": TOOL_ROUNDS if seconds else 1,
            "rate": SAMPLE_RATE, "enforce": True, "replay": True,
            "trace": trace}


def check_pipeline(run: Run, steps: List[Dict]) -> Dict[str, Dict]:
    """Every step exited 0, every sample kept within its bounds, and every
    replay of one machine gave the identical output."""
    first: Dict[str, Dict] = {}
    for step in steps:
        run.check(step["code"] == 0,
                  f"traces {step['step']} exited {step['code']}")
        if step["step"] == "sample" and step["enforced"]:
            run.check(step["within_bounds"], "sample outside its bounds")
        if step["step"] == "run":
            reference = first.setdefault(step["mode"], step)
            run.check(step["identity"] == reference["identity"],
                      f"sampled-trace {step['mode']} run changed between "
                      f"repeats: {step['identity']} vs "
                      f"{reference['identity']}")
    return first


def pipeline_workload(run: Run) -> Dict[str, float]:
    """Cold set-ups, each followed by a share of the tool runs; then
    set-ups from the warm workload store."""
    cold = [run.child(pipeline_spec(run, f"pipe-{i}",
                                    run.scratch(f"store-{i}"),
                                    run.seconds / SETUPS))
            for i in range(SETUPS)]
    warm = [run.child(pipeline_spec(run, f"pipe-warm-{i}",
                                    run.scratch("store-0"), None))
            for i in range(WARM_SETUPS)]
    steps = [s for child in (*cold, *warm) for s in child["steps"]]
    first = check_pipeline(run, steps)
    replays = [s for s in steps if s["step"] == "run"]
    base = first["baseline"]["identity"]
    cgct = first["cgct"]["identity"]
    metrics = records_results(run, steps)
    metrics.update({
        f"sim_ops_per_s.{mode}": median(
            s["records"] / run.ref(s["elapsed_s"], s["scale"])
            for s in replays if s["mode"] == mode)
        for mode in ("baseline", "cgct")
    })
    metrics.update({
        "setup_s": setups(run, cold),
        "sweep_s.warm": setups(run, warm),
        "sim_speedup": base["cycles"] / cgct["cycles"],
        "broadcasts_avoided_frac": cgct["fraction_avoided"],
        "cells_per_s.cold": len(replays)
        / sum(run.ref(s["wall_s"], s["scale"]) for s in replays),
    })
    return metrics


def pipeline_layers(run: Run) -> Dict[str, float]:
    """One pass of the tools traced, and one untraced for the overhead."""
    plain = run.child(pipeline_spec(run, "pipe-plain",
                                    run.scratch("store-plain"), 0))
    traced = run.child(pipeline_spec(run, "pipe-traced",
                                     run.scratch("store-traced"), 0,
                                     trace=True))
    check_pipeline(run, plain["steps"] + traced["steps"])
    layers = traced["layers"]
    metrics = span_metrics(layers, traced["trace_counts"])
    metrics.update(traces_metrics(layers, traced["trace_counts"]))
    timed = [s for s in traced["steps"] if "wall_s" in s]
    untimed = [s for s in plain["steps"] if "wall_s" in s]
    metrics["common.import_s"] = traced["import_s"]
    metrics["trace.overhead_frac"] = (sum(s["wall_s"] for s in timed)
                                      / sum(s["wall_s"] for s in untimed)
                                      - 1.0)
    metrics["trace.reconcile_error_frac"] = reconcile(
        run, traced["sample_reconcile"], "traces sample",
        slack=SAMPLE_SLACK_S)
    return metrics


# ----------------------------------------------------------------------
# Per-layer metrics from spans
# ----------------------------------------------------------------------
def merge_layers(*children: Dict) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = {}
    for child in children:
        for name, cell in child["layers"].items():
            into = merged.setdefault(name, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0})
            for key, value in cell.items():
                into[key] += value
    return merged


def total(layers, name: str, key: str = "total_s") -> float:
    return layers.get(name, {}).get(key, 0.0)


def span_metrics(layers, counts: Dict[str, int]) -> Dict[str, float]:
    """System, cache, RCA, interconnect, memory and workload layers."""
    run_s = total(layers, "system.run")
    metrics = {
        "system.miss_s": total(layers, "system.miss"),
        "system.miss_calls": total(layers, "system.miss", "calls"),
        "system.miss_share": (total(layers, "system.miss") / run_s
                              if run_s else 0.0),
        "system.step_self_s": total(layers, "system.run", "self_s"),
        "system.ctor_s": total(layers, "system.ctor"),
        "workloads.build_s": total(layers, "workloads.build", "self_s"),
        "workloads.store_load_s": total(layers, "workloads.store_load"),
        "rca.avoided_per_unnecessary": (
            counts.get("rca.avoided", 0)
            / (counts.get("rca.avoided", 0) + counts.get("rca.unnecessary", 0))
            if counts.get("rca.avoided") else 0.0),
    }
    for name in ("system.l1_hits", "system.l2_hits",
                 "system.external_requests", "system.broadcasts",
                 "system.directs", "rca.allocations",
                 "rca.self_invalidations", "rca.forced_evictions",
                 "cache.l2.lookup_calls", "cache.l2.snoop_probes",
                 "interconnect.bus.broadcast_calls",
                 "interconnect.bus.queue_cycles",
                 "memory.dram.access_calls"):
        metrics[name] = counts.get(name, 0)
    # Only the figure sweep runs the harness; sweep_layers fills these in.
    metrics.update(dict.fromkeys(
        (name for name, _ in PER_LAYER if name.startswith("harness.")), 0.0))
    return metrics


def traces_metrics(layers, counts: Dict[str, int]) -> Dict[str, float]:
    read_s = total(layers, "traces.read")
    return {
        "traces.reader.records_per_s": (
            counts.get("traces.records_read", 0) / read_s if read_s else 0.0),
        "traces.profiler.feed_s": total(layers, "traces.profiler.feed"),
        "traces.profiler.finish_s": total(layers, "traces.profiler.finish"),
        "traces.sample.s": total(layers, "traces.sample"),
        "traces.write_s": total(layers, "traces.write", "self_s"),
    }


def reconcile(run: Run, pairs, what: str, slack: float = 0.0) -> float:
    """Worst relative gap between summed self times and measured walls."""
    worst = 0.0
    for self_sum, wall in pairs:
        gap = abs(self_sum - wall)
        run.check(gap <= RECONCILE_TOLERANCE * wall + slack,
                  f"{what}: per-layer self times sum to {self_sum:.6f} s, "
                  f"measured {wall:.6f} s")
        worst = max(worst, gap / wall)
    return worst


# ----------------------------------------------------------------------
WORKLOADS: Dict[str, Callable[[Run], Dict[str, float]]] = {
    "oltp-4p": sim_workload,
    "figure-sweep": sweep_workload,
    "trace-pipeline": pipeline_workload,
}
LAYERS: Dict[str, Callable[[Run], Dict[str, float]]] = {
    "oltp-4p": sim_layers,
    "figure-sweep": sweep_layers,
    "trace-pipeline": pipeline_layers,
}


def precompile() -> None:
    """Byte-compile the package once, so that no measured import pays
    for compiling a source file the previous run already compiled."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, stdout=subprocess.DEVNULL,
                   timeout=CHILD_TIMEOUT_S)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    precompile()
    SPANS.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed % (1 << 31), args.seconds,
              bool(args.trace))
    try:
        table = LAYERS if run.traced else WORKLOADS
        metrics = table[run.workload](run)
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    wanted = PER_LAYER if run.traced else END_TO_END
    for failure in run.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    if run.scales:
        print(f"host speed: median {median(run.scales):.3f} of the "
              f"reference host's over {len(run.scales)} timed units, "
              f"from {min(run.scales):.3f} to {max(run.scales):.3f}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
