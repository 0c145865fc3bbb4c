"""One fresh interpreter of a benchmark run.

``run.py`` starts this script once per set-up it measures, so that every
set-up pays for interpreter start and ``import repro`` the way a user's
command does. The spec (a JSON file named on the command line) says what
to do; the results go to the JSON file the spec names.

Modes:

* ``sim``: build a trace through ``build_benchmark`` (cold or warm
  workload store), construct a ``Simulator``, then replay the trace on
  the baseline and CGCT machines back to back until the time budget is
  spent. Each replay ends with the machine's coherence invariant check.
  With ``records_seconds`` it ends with the ``profile`` and ``sample``
  steps below on a capture of its own trace.
* ``pipeline``: the ``traces`` subcommands in order: ``convert`` a
  generated benchmark into a capture (the set-up), then ``profile`` and
  ``sample`` it and, when asked, ``run`` the sampled trace on the
  baseline and CGCT machines, until the time budget is spent.
* ``harness``: the experiment CLI (``python -m repro.harness``) in this
  process, so that a traced run can wrap the coordinator's methods.

Every timed unit is bracketed by the reference kernel of
:mod:`hostspeed`; its record carries the unit's ``scale`` (reference
seconds per host second), and ``setup_scale`` is that of the set-up.

With ``"trace": true`` the wrappers of :mod:`tracing` go in right after
the imports, before any simulator object exists, and the spans are
written out when the work is done.

Usage: python3 bench/child.py SPEC.json
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
import time
from pathlib import Path
from typing import Optional

from hostspeed import REFERENCE_KERNEL_S, HostSpeed, ParentKernel, kernel_s

#: Simulated statistics start after the harness's standard warm-up
#: (``RunOptions.warmup_fraction``); host time covers the whole replay.
WARMUP = 0.4

#: Module sets each mode imports: ``common.import_s`` is their cost.
IMPORTS = {
    "sim": ("repro.system.simulator", "repro.workloads.benchmarks",
            "repro.workloads.store"),
    "pipeline": ("repro.traces.cli", "repro.workloads.store"),
    "harness": ("repro.harness.__main__",),
}


def rounds(seconds: float, at_least: int = 1):
    """Drive a measured loop: the first *at_least* rounds always run, and
    another runs while, judging by the last one, it will end within
    *seconds* of the start."""
    deadline = time.perf_counter() + seconds
    for done in itertools.count(1):
        began = time.perf_counter()
        yield
        now = time.perf_counter()
        if done >= at_least and now + (now - began) > deadline:
            return


def machine_configs():
    """The paper's 4-processor baseline and CGCT (512 B regions) machines,
    as ``python -m repro.harness perf`` builds them."""
    from repro.system.config import SystemConfig

    return SystemConfig.paper_baseline(), SystemConfig.paper_cgct(512)


def fingerprint(result) -> dict:
    """The whole-run identity ``BENCH_core.json`` records."""
    return {
        "cycles": result.cycles,
        "external_requests": result.stats.total_external,
        "broadcasts": result.broadcasts,
        "l1_hits": result.l1_hits,
        "l2_hits": result.l2_hits,
    }


def replay(simulator, trace, tracer=None, warmup: float = WARMUP,
           speed: Optional[HostSpeed] = None) -> dict:
    """Replay *trace* once, timed; check invariants; describe the run.
    With *speed*, the kernel is timed right after the replay."""
    first_span = len(tracer) if tracer is not None else 0
    start = time.perf_counter()
    result = simulator.run(trace, warmup_fraction=warmup)
    wall = time.perf_counter() - start
    record = {
        "mode": "cgct" if simulator.config.cgct_enabled else "baseline",
        "wall_s": wall,
        "scale": speed.scale() if speed is not None else 1.0,
        "ops": sum(len(t) for t in trace.per_processor),
        "fingerprint": fingerprint(result),
        "avoided_frac": result.fraction_avoided(),
        "error": None,
    }
    try:
        simulator.machine.check_coherence_invariants()
    except AssertionError as exc:
        record["error"] = f"coherence invariants: {exc}"
    if tracer is not None:
        record["span_self_s"] = tracer.subtree_self_sum(first_span)
    return record


def run_sim(spec: dict, out: dict, tracer, time_kernel=kernel_s) -> None:
    from repro.system.simulator import Simulator
    from repro.workloads.benchmarks import build_benchmark
    from repro.workloads.store import WorkloadStore, set_workload_store

    set_workload_store(WorkloadStore(spec["store"]))
    seed = spec["seed"]
    trace = build_benchmark(spec["benchmark"],
                            num_processors=spec["processors"],
                            seed=seed, ops_per_processor=spec["ops"])
    configs = machine_configs()
    start = time.perf_counter()
    simulator = Simulator(configs[0], seed=seed)
    ctor = time.perf_counter() - start
    out["setup_s"] = time.time() - spec["t0"]
    speed = HostSpeed(time_kernel)
    out["setup_scale"] = setup_scale(spec, speed)
    out["runs"] = runs = []
    for _ in rounds(spec["seconds"]) if spec["seconds"] is not None else ():
        for config in configs:
            if simulator is None:
                start = time.perf_counter()
                simulator = Simulator(config, seed=seed)
                ctor = time.perf_counter() - start
            record = replay(simulator, trace, tracer, speed=speed)
            record["ctor_s"] = ctor
            runs.append(record)
            simulator = None
    if spec["records_seconds"] is not None:
        capture = convert(spec, out)
        trace_tools(spec, out, tracer, time_kernel, capture,
                    spec["records_seconds"], enforce=False, replay=False,
                    at_least=spec["at_least"])


def setup_scale(spec: dict, speed: HostSpeed) -> float:
    """Scale of the set-up that just ended, from the kernel timed by the
    parent before it started this process and the one *speed* timed
    right after it."""
    return REFERENCE_KERNEL_S / ((spec["kernel_s"] + speed.before) / 2.0)


def traces_cli(argv, speed: Optional[HostSpeed] = None) -> tuple:
    """Run one ``traces`` subcommand; returns (exit code, wall seconds,
    scale). With *speed*, the kernel is timed right after it."""
    from repro.traces.cli import traces_command

    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = traces_command([str(a) for a in argv])
    wall = time.perf_counter() - start
    return code, wall, speed.scale() if speed is not None else 1.0


def last_record(runlog: Path) -> dict:
    return json.loads(runlog.read_text().splitlines()[-1])


def convert(spec: dict, out: dict) -> Path:
    """``traces convert`` the spec's benchmark into a capture file, with
    the workload store of the spec; returns the capture's path."""
    from repro.workloads.store import WorkloadStore, set_workload_store

    set_workload_store(WorkloadStore(spec["store"]))
    capture = Path(spec["work"]) / "capture.bin"
    code, _, _ = traces_cli([
        "convert", f"bench:{spec['benchmark']}", capture,
        "--processors", spec["processors"], "--ops", spec["ops"],
        "--trace-seed", spec["seed"],
    ])
    out["steps"] = [{"step": "convert", "code": code}]
    out["sample_reconcile"] = []
    return capture


def trace_tools(spec: dict, out: dict, tracer, time_kernel, capture: Path,
                seconds: float, enforce: bool, replay: bool,
                at_least: int = 1) -> None:
    """``traces profile`` and ``traces sample`` the capture and, with
    *replay*, ``traces run`` the sampled trace on both machines; again
    until *seconds* are spent, at least *at_least* times."""
    work = Path(spec["work"])
    sampled = work / "sampled.bin"
    runlog = work / "tools.jsonl"
    speed = HostSpeed(time_kernel)
    for _ in rounds(seconds, at_least):
        code, wall, scale = traces_cli(
            ["profile", capture, "--runlog", runlog], speed)
        out["steps"].append({"step": "profile", "code": code, "wall_s": wall,
                             "scale": scale,
                             "records": last_record(runlog)["accesses"]})
        argv = ["sample", capture, sampled, "--rate", spec["rate"],
                "--seed", spec["seed"], "--report",
                work / "sample-report.json", "--runlog", runlog]
        if enforce:
            argv.append("--enforce")
        first_span = len(tracer) if tracer is not None else 0
        code, wall, scale = traces_cli(argv, speed)
        logged = last_record(runlog)
        kept = logged["kept"]
        out["steps"].append({"step": "sample", "code": code, "wall_s": wall,
                             "scale": scale,
                             "records": logged["total"], "enforced": enforce,
                             "within_bounds": logged["within_bounds"]})
        if tracer is not None:
            root = tracer.find("traces.sample", first_span)
            out["sample_reconcile"].append(
                (tracer.subtree_self_sum(root), logged["elapsed"]))
        for mode in ("baseline", "cgct") if replay else ():
            argv = ["run", sampled, "--seed", spec["seed"],
                    "--runlog", runlog]
            if mode == "baseline":
                argv.append("--baseline")
            code, wall, scale = traces_cli(argv, speed)
            logged = last_record(runlog)
            out["steps"].append({
                "step": "run", "mode": mode, "code": code,
                "wall_s": wall, "elapsed_s": logged["elapsed"],
                "scale": scale,
                "records": kept,
                "identity": {k: logged[k] for k in (
                    "cycles", "external", "broadcasts",
                    "fraction_avoided", "fraction_unnecessary")},
            })


def run_pipeline(spec: dict, out: dict, tracer, time_kernel=kernel_s) -> None:
    capture = convert(spec, out)
    out["setup_s"] = time.time() - spec["t0"]
    out["setup_scale"] = setup_scale(spec, HostSpeed(time_kernel))
    if spec["seconds"] is not None:
        trace_tools(spec, out, tracer, time_kernel, capture, spec["seconds"],
                    enforce=spec["enforce"], replay=spec["replay"],
                    at_least=spec["at_least"])


def run_harness(spec: dict, out: dict, tracer, time_kernel=kernel_s) -> None:
    """Each argv of the spec is one ``python -m repro.harness`` pass."""
    from repro.harness.__main__ import main

    out["passes"] = []
    for argv in spec["argvs"]:
        first_span = len(tracer) if tracer is not None else 0
        buffer = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = main([str(a) for a in argv])
        done = {"code": code, "wall_s": time.perf_counter() - start,
                "stdout": buffer.getvalue()}
        if tracer is not None:
            root = tracer.find("harness.sweep", first_span)
            done["sweep_self_s"] = tracer.subtree_self_sum(root)
        out["passes"].append(done)


MODES = {"sim": run_sim, "pipeline": run_pipeline, "harness": run_harness}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    start = time.perf_counter()
    for module in IMPORTS[spec["mode"]]:
        __import__(module)
    out = {"import_s": time.perf_counter() - start}
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install_system()
        tracer.install_traces()
        if spec["mode"] == "harness":
            tracer.install_harness()
    MODES[spec["mode"]](spec, out, tracer,
                        ParentKernel(*spec["kernel_fds"]))
    if tracer is not None:
        tracer.dump(spec["spans_path"])
        out["layers"] = tracer.layer_times()
        out["trace_counts"] = tracer.counts
    Path(spec["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
