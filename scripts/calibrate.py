"""Calibration sweep: run every benchmark baseline vs CGCT-512B and
print the Figure 2 / 7 / 8 / 10 headline numbers against targets.

Goes through the harness result cache and (optionally) the parallel
runner::

    PYTHONPATH=src python scripts/calibrate.py                 # serial
    PYTHONPATH=src python scripts/calibrate.py 20000 tpc-w     # subset
    PYTHONPATH=src python scripts/calibrate.py --workers 4 \\
        --cache-dir .repro-cache --runlog calibrate.jsonl
"""
import argparse
import time

from repro import SystemConfig, benchmark_names
from repro.harness.cache import DiskCache
from repro.harness.parallel import ExperimentTask
from repro.harness.runcache import RunCache
from repro.harness.runlog import RunLog
from repro.system.machine import OracleCategory

TARGETS = {  # paper-shape targets: unnecessary fraction, runtime reduction
    "ocean": (0.72, 0.06), "raytrace": (0.80, 0.05), "barnes": (0.40, 0.02),
    "specint2000rate": (0.94, 0.05), "specweb99": (0.75, 0.07),
    "specjbb2000": (0.70, 0.06), "tpc-w": (0.85, 0.14),
    "tpc-b": (0.65, 0.08), "tpc-h": (0.17, 0.01),
}
WARMUP = 0.4


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ops", nargs="?", type=int, default=60_000)
    parser.add_argument("names", nargs="*", default=None)
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--cache-dir", default=None,
                        help="enable the on-disk result cache at this path")
    parser.add_argument("--runlog", default=None)
    args = parser.parse_args()

    names = args.names or benchmark_names()
    disk = DiskCache(args.cache_dir) if args.cache_dir else None
    cache = RunCache(disk=disk)
    runlog = RunLog(args.runlog) if args.runlog else None

    configs = (SystemConfig.paper_baseline(), SystemConfig.paper_cgct(512))
    tasks = [
        ExperimentTask(name, config, args.ops, warmup_fraction=WARMUP)
        for name in names for config in configs
    ]
    t0 = time.time()
    try:
        cache.warm(tasks, workers=args.workers, runlog=runlog)
    finally:
        if runlog is not None:
            runlog.close()
    grid_s = time.time() - t0

    unnecs, rrs = [], []
    for name, base_task, cgct_task in zip(names, tasks[::2], tasks[1::2]):
        base, cgct = cache[base_task], cache[cgct_task]
        unnec = base.fraction_unnecessary()
        rr = cgct.runtime_reduction_over(base)
        unnecs.append(unnec)
        rrs.append(rr)
        tu, tr = TARGETS[name]
        cats = " ".join(
            f"{c.name[:2]}={base.category_fraction(c, of='unnecessary'):.2f}"
            for c in OracleCategory
        )
        print(f"{name:16s} unnec={unnec:.3f} (t{tu:.2f}) rr={rr:+.3f} (t{tr:.2f}) "
              f"avoided={cgct.fraction_avoided():.3f} [{cats}] "
              f"traffic={base.broadcasts_per_window():.0f}->{cgct.broadcasts_per_window():.0f}",
              flush=True)
    print(f"MEAN unnec={sum(unnecs)/len(unnecs):.3f} (paper 0.67) "
          f"rr={sum(rrs)/len(rrs):+.3f} (paper 0.088) "
          f"[{len(tasks)} runs in {grid_s:.0f}s, workers={args.workers or 1}]")


if __name__ == "__main__":
    main()
