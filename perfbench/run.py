"""Benchmark of the mwl toolkit: end-to-end metrics per workload, per-layer
metrics from a separate traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload orbit-enum --seed 1 --seconds 27 --trace 0

Workloads are defined in workloads.py.  A run is a closed loop with one
client: passes run one after another, each in a fresh single-threaded
child process (child.py) that runs every operation of the workload once,
in order, through `mwl.cli.run([...], --format json)` on scenario files
generated from --seed.  Passes continue until the next one would likely
end after --seconds; a run makes at least two passes (three when traced)
and ends within 180 s.

--trace 0: pass k runs input variant k (fresh translations and units;
checker seeds depend on --seed alone).  Table reports must be byte-identical in every pass, since
the variants are module automorphisms.  `wall_ref_s` and `cpu_ref_s` are
the mean over passes, `peak_rss_mb` the median over passes, and `setup_s`
the median import time of `mwl` and `mwl.cli` over at least 15 fresh
processes spread over the run.  Times are scaled to a reference host
speed by a calibration timed between passes (see `calibrate`).

--trace 1: untraced and traced passes alternate on variant 0.  The traced
ones wrap the layer functions (spans.py); every count must repeat exactly
between traced passes and every report must match the untraced one
byte for byte.  trace.overhead_s is the median traced pass wall time
minus the median untraced one.

Every report is checked (workloads.py).  The last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; details,
including each report's sha256, go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 15
SETUP_PROBES_PER_PASS = 2
DEADLINE_S = 170   # the whole run, setup probes included
FINISH_S = 10      # kept free for the final probes and the report
PROBE_TIMEOUT_S = 30
PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
         "import mwl, mwl.cli; print(time.perf_counter() - t, mwl.__file__)")
CAL_ITEMS = 100_000
CAL_SAMPLES = 3     # calibration timings per slot between passes; their median counts
CAL_REF_S = 0.04    # calibration time at the reference host speed
E2E_UNITS = {"setup_s": "s", "wall_ref_s": "s", "cpu_ref_s": "s", "peak_rss_mb": "MB",
             "ok_frac": "ratio", "failed_frac": "ratio"}


class BenchError(Exception):
    """The benchmark could not run the program at all."""


def _child_env():
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def _under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC)


def probe_setup(env, count: int) -> list[float]:
    """Import time of mwl and mwl.cli in `count` fresh processes."""
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", PROBE, str(SRC)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"cannot import mwl: {proc.stderr.strip()[-2000:]}")
        seconds, path = proc.stdout.strip().split(" ", 1)
        if not _under_src(path):
            raise BenchError(f"imported mwl from {path}, not from {SRC}")
        samples.append(float(seconds))
    return samples


def calibrate() -> float:
    """Median time of a fixed pure-Python computation in this process: the
    tuple hashing, set growth and small-integer arithmetic that mwl's inner
    loops are made of.  It runs between passes, never beside one, and does
    not import mwl, so no change to mwl can move it."""
    samples = []
    for _ in range(CAL_SAMPLES):
        t = time.perf_counter()
        seen, x = set(), 1
        for i in range(CAL_ITEMS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            seen.add((x >> 8, i & 255))
        samples.append(time.perf_counter() - t)
    return statistics.median(samples)


def run_pass(argvs, work: Path, index: int, env, spans_path: Path | None,
             timeout: float) -> dict:
    ops_path, out_path = work / f"ops-{index}.json", work / f"out-{index}.json"
    ops_path.write_text(json.dumps(argvs), encoding="utf-8")
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), str(ops_path), str(out_path)]
    if spans_path is not None:
        cmd.append(str(spans_path))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"pass {index} exited with {proc.returncode}: {tail}")
    return json.loads(out_path.read_text(encoding="utf-8"))


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, traced: bool, work: Path):
        self.workload, self.seed, self.seconds, self.traced = workload, seed, seconds, traced
        self.work = work
        self.env = _child_env()
        self.variants = {}
        self.passes = []       # (variant, traced, record, per-op outcomes)
        self.setup = []        # (slot, import time), untraced runs only
        self.cal = []          # calibration time of each slot, untraced runs only
        self.problems = []     # reasons the run is not correct
        self.attempted = self.failed = 0

    def ops(self, variant: int):
        if variant not in self.variants:
            ops = workloads.build(self.workload, self.seed, variant)
            argvs = []
            for op in ops:
                path = self.work / f"v{variant}-{op.name}.json"
                path.write_text(json.dumps(op.scenario, indent=1), encoding="utf-8")
                argvs.append([op.command, "--scenario", str(path), "--format", "json"])
            self.variants[variant] = (ops, argvs)
        return self.variants[variant]

    def schedule(self, k: int) -> tuple[int, bool]:
        """(variant, traced) of pass k."""
        if self.traced:
            return 0, k in (1, 2) or (k > 2 and k % 2 == 0)
        return k, False

    def execute(self, started: float):
        """Run passes until the next one, if it took as long as the median pass
        of its kind so far, would end after --seconds.  Untraced runs
        calibrate and take setup probes in the slot before each pass and
        after the last, so that they sample the same stretch of time as the
        passes."""
        min_passes = 3 if self.traced else 2
        if not self.traced:
            probe_setup(self.env, 1)  # warms the bytecode cache
        slots = {True: [], False: []}  # pass slot times by traced-ness
        k = 0
        while True:
            slot_start = time.monotonic()
            if not self.traced:
                self.cal.append(calibrate())
                self.setup += [(k, t) for t in probe_setup(self.env, SETUP_PROBES_PER_PASS)]
            variant, traced = self.schedule(k)
            ops, argvs = self.ops(variant)
            spans = OUT_DIR / f"{self.workload}-seed{self.seed}-spans.json.gz" if traced else None
            timeout = DEADLINE_S - (time.monotonic() - started)
            record = run_pass(argvs, self.work, k, self.env, spans, timeout)
            self.passes.append((variant, traced, record, self.check(ops, record)))
            slots[traced].append(time.monotonic() - slot_start)
            k += 1
            if k < min_passes:
                continue
            next_slot = slots[self.schedule(k)[1]]
            elapsed = time.monotonic() - started
            if (elapsed + statistics.median(next_slot) > self.seconds
                    or elapsed + max(next_slot) > DEADLINE_S - FINISH_S):
                break
        if not self.traced:
            self.cal.append(calibrate())
            self.setup += [(k, t) for t in
                           probe_setup(self.env, max(0, SETUP_PROBES - len(self.setup)))]

    def check(self, ops, record):
        outcomes = []
        for op, res in zip(ops, record["ops"]):
            self.attempted += 1
            report = None
            if res["error"] is not None:
                problem, known = res["error"], False
            else:
                try:
                    report = json.loads(res["stdout"])
                except json.JSONDecodeError:
                    pass
                problem, known = workloads.check_op(op, res["code"], report, res["stderr"])
            if problem is not None:
                self.failed += 1
                if not known:
                    self.problems.append(f"{op.name}: {problem}")
            rows, certified = workloads.table_counts(op, report)
            outcomes.append({"op": op.name, "invariant": op.invariant,
                             "code": res["code"], "sha256": res["sha256"],
                             "elapsed_s": res["elapsed_ns"] / 1e9, "failure": problem,
                             "known_defect": bool(problem and known),
                             "rows_exact": rows, "tables_certified": certified})
        return outcomes

    def check_repeats(self):
        """Reports of table operations must be byte-identical in every pass (the
        variants are module automorphisms); other reports must repeat within a
        variant.  Counts must repeat exactly."""
        first = {}
        for variant, _, _, outcomes in self.passes:
            for o in outcomes:
                key = (o["op"], None if o["invariant"] else variant)
                if first.setdefault(key, (o["code"], o["sha256"])) != (o["code"], o["sha256"]):
                    self.problems.append(f"{o['op']}: report differs between passes")
        totals = {(sum(o["rows_exact"] for o in oc), sum(o["tables_certified"] for o in oc))
                  for _, _, _, oc in self.passes}
        if len(totals) != 1:
            self.problems.append(f"rows_exact/tables_certified differ between passes: {totals}")
        traced = [r["layers"] for _, t, r, _ in self.passes if t]
        for layers in traced[1:]:
            for key, value in layers.items():
                if not key.endswith("_s") and value != traced[0][key]:
                    self.problems.append(f"{key} differs between traced passes: "
                                         f"{traced[0][key]} vs {value}")

    def table_totals(self):
        outcomes = self.passes[0][3]
        return (sum(o["rows_exact"] for o in outcomes),
                sum(o["tables_certified"] for o in outcomes))

    def end_to_end(self):
        """Times at the reference host speed.  The host switches between a fast
        and a slow state for tens of seconds to minutes at a time, which moves
        mwl and the calibration alike.  Pass times are scaled by CAL_REF_S over
        the run's mean calibration time: a pass outlasts the calibration next
        to it many times over, so the run's mean matches it best.  Each setup
        probe, as short as a calibration, is scaled by that of its own slot."""
        plain = [r for _, t, r, _ in self.passes if not t]
        speed = CAL_REF_S / statistics.fmean(self.cal)
        return {
            "setup_s": statistics.median(t * CAL_REF_S / self.cal[k] for k, t in self.setup),
            "wall_ref_s": statistics.fmean(r["wall_s"] for r in plain) * speed,
            "cpu_ref_s": statistics.fmean(r["cpu_s"] for r in plain) * speed,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "ok_frac": 1 - self.failed / self.attempted,
        }

    def raw_times(self):
        """The unscaled times, printed beside the metrics."""
        plain = [r for _, t, r, _ in self.passes if not t]
        return {
            "setup_raw_s": statistics.median(t for _, t in self.setup),
            "wall_raw_s": statistics.fmean(r["wall_s"] for r in plain),
            "cpu_raw_s": statistics.fmean(r["cpu_s"] for r in plain),
            "calibration_s": statistics.median(self.cal),
        }

    def per_layer(self):
        plain = [r for _, t, r, _ in self.passes if not t]
        traced = [r for _, t, r, _ in self.passes if t]
        layers = {}
        for key, value in traced[0]["layers"].items():
            if key.endswith("_s"):
                value = statistics.median(r["layers"][key] for r in traced)
            layers[key] = value
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))
        layers["rows_exact"], layers["tables_certified"] = self.table_totals()
        return layers


def _unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("yield"):
        return "ratio"
    if name.endswith("bits"):
        return "bits"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "mwl" / "cli.py").is_file():
        print(f"error: no mwl sources under {SRC}", file=sys.stderr)
        return 2

    # a terminated run still stops its child process and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # one CPU for the run and its child processes, so that the calibration
    # measures the CPU that the passes run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    started = time.monotonic()
    WORK_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
        run.execute(started)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run.check_repeats()
    metrics = run.per_layer() if args.trace else run.end_to_end()
    rows, certified = run.table_totals()
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples_s": run.setup, "calibration_s": run.cal,
        "metrics": metrics,
        "problems": run.problems,
        "passes": [{"variant": v, "traced": t, "wall_s": r["wall_s"], "cpu_s": r["cpu_s"],
                    "peak_rss_mb": r["peak_rss_mb"], "ops": oc}
                   for v, t, r, oc in run.passes],
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(run.passes)}  "
          f"operations {run.attempted}  failed {run.failed}")
    for o in run.passes[0][3]:
        status = "ok" if o["failure"] is None else (
            "KNOWN DEFECT" if o["known_defect"] else "FAIL") + f": {o['failure']}"
        print(f"  {o['op']:<32} {o['elapsed_s']:8.3f} s  sha256 {o['sha256']}  {status}")
    summary = dict(metrics)
    if not args.trace:
        summary.update(run.raw_times())
    summary.setdefault("failed_frac", run.failed / run.attempted)
    summary.setdefault("rows_exact", rows)
    summary.setdefault("tables_certified", certified)
    for name, value in summary.items():
        print(f"  {name:<28} {value:>14.6g} {_unit(name)}")
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    result = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": value, "unit": _unit(name)}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
