#!/usr/bin/env python3
"""orbitcount benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One run builds the workload, then repeats its battery (see
``workloads.py``) while another round fits in ``--seconds``, one call at a
time, with the memo tables cleared before every battery.

* ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
  - ``setup_s``: median of cold starts (interpreter, imports, field
    construction, input generation), each timed as a child process, one at a
    time, and normalised for host CPU contention like ``wall_s``;
  - ``wall_s``: battery time, the sum over ops of each op's median time
    across batteries, every op time normalised for host CPU contention (see
    ``clock.py``; the plain wall time is printed as ``raw_wall_s``);
  - ``items_per_s``: items of one battery over ``wall_s``;
  - ``peak_rss_mb``: peak resident memory of the run.
  Nothing is wrapped in these runs.
* ``--trace 1`` alternates untraced and traced batteries and reports the
  per-layer metrics of the last traced battery (raw seconds, not
  normalised) plus ``trace.overhead_frac``, traced over untraced ``wall_s``
  minus 1.  The spans are written to ``.perfbench_out/`` when the run ends.

Human-readable lines come first (including ``fail_frac`` and, where a
battery makes at least 100 calls, the op latency percentiles); the last line
of stdout is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs every workload in turn, each in its own process.
"""

from __future__ import annotations

import os

# numpy must stay on one thread; set before anything imports it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

from clock import REF_NS, ContentionClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
MIN_OPS_FOR_PERCENTILES = 100


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="smoke-check sizes")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def machine_info():
    info = {
        "cpu": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": "unknown (not a git checkout)",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        info["commit"] = ref
    import numpy

    info["numpy"] = numpy.__version__
    return info


def battery(workload, checks):
    """One pass over the workload's ops with cold memo tables.  Returns the
    items done and each op's (start, end) in ``perf_counter_ns`` time."""
    from workloads import clear_memo_tables

    clear_memo_tables()
    items, windows = 0, []
    for label, op in workload.ops:
        t0 = perf_counter_ns()
        try:
            items += op(checks)
        except Exception as exc:  # a failing op is a failed check; the battery goes on
            traceback.print_exc(file=sys.stderr)
            checks.check(False, op=label, error=repr(exc))
        windows.append((t0, perf_counter_ns()))
    return items, windows


@dataclass
class Run:
    items: int = 0
    plain: list = field(default_factory=list)  # op windows of each untraced battery
    wrapped: list = field(default_factory=list)  # the same for traced batteries
    layer_metrics: dict | None = None
    tracer: object = None
    clock: ContentionClock = None

    def op_s(self, batteries, normalised=True):
        """Per op, the median over batteries of its (normalised) time."""
        def seconds(w):
            return self.clock.normalised_s(*w) if normalised else (w[1] - w[0]) / 1e9
        return [statistics.median(seconds(w) for w in col) for col in zip(*batteries)]

    def wall_s(self, batteries):
        """Battery time: the sum of the ops' median normalised times."""
        return sum(self.op_s(batteries))


def run_batteries(workload, seconds, checks, traced=False):
    """Repeat the battery while another round fits in ``seconds`` (at least
    one round).  With ``traced``, each untraced battery is followed by a
    traced one, and the layer metrics come from the last traced battery."""
    import layers
    from tracer import Tracer
    from workloads import clear_memo_tables

    run = Run()
    start = perf_counter()
    with ContentionClock() as run.clock:
        while True:
            round_start = perf_counter()
            run.items, windows = battery(workload, checks)
            run.plain.append(windows)
            if traced:
                run.tracer = Tracer()
                clear_memo_tables()
                layers.install(run.tracer)
                try:
                    run.wrapped.append(battery(workload, checks)[1])
                finally:
                    run.tracer.restore()
                run.layer_metrics = layers.metrics(run.tracer)
            now = perf_counter()
            if now - start + (now - round_start) > seconds:
                return run


def setup_seconds(args):
    """Median over cold starts (interpreter, imports, field construction and
    input generation), one child process at a time.  Each child samples the
    contention it meets and prints its mean reference-loop time, by which its
    wall time is normalised like ``wall_s``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter_ns()
        out = subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True).stdout
        wall_s = (perf_counter_ns() - t0) / 1e9
        times.append(wall_s * REF_NS / float(out.split()[-1]))
    return statistics.median(times)


def percentiles(values):
    if len(values) < MIN_OPS_FOR_PERCENTILES:
        return None
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def run_one(args, spec):
    import workloads

    workload = workloads.build(args.workload, args.seed, args.tiny)
    if args.setup_only:
        return 0
    info = machine_info()
    checks = workloads.Checks()
    if args.trace:
        run = run_batteries(workload, args.seconds, checks, traced=True)
        values = dict(run.layer_metrics)
        values["trace.overhead_frac"] = run.wall_s(run.wrapped) / run.wall_s(run.plain) - 1
        wanted = spec["per_layer"]
    else:
        setup_s = setup_seconds(args)
        run = run_batteries(workload, args.seconds, checks)
        wall = run.wall_s(run.plain)
        values = {
            "setup_s": setup_s,
            "wall_s": wall,
            "items_per_s": run.items / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    raw_op_s = run.op_s(run.plain, normalised=False)
    op_ms = {label: t * 1e3 for (label, _), t in zip(workload.ops, raw_op_s)}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"batteries {len(run.plain)}  ops/battery {len(op_ms)}  items/battery {run.items}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in info.items()))
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_frac':48s} {checks.failed / max(checks.attempted, 1):>16.6g} "
          f"({checks.failed} of {checks.attempted} checks)")
    print(f"  {'raw_wall_s':48s} {sum(raw_op_s):>16.6g} s    (not normalised)")
    pct = percentiles(list(op_ms.values()))
    if pct and not args.trace:
        print(f"  {'op_p50_ms':48s} {pct[0]:>16.6g} ms   "
              f"({len(op_ms)} ops, each the median of {len(run.plain)} batteries, not normalised)")
        print(f"  {'op_p90_ms':48s} {pct[1]:>16.6g} ms")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "machine": info,
              "checks": {"attempted": checks.attempted, "failed": checks.failed},
              "battery_raw_s": [(b[-1][1] - b[0][0]) / 1e9 for b in run.plain],
              "battery_normalised_s": [sum(run.clock.normalised_s(*w) for w in b)
                                       for b in run.plain],
              "op_median_ms": op_ms, "metrics": metrics}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if run.tracer is not None:
        run.tracer.write_spans(stem.with_suffix(".spans.csv.gz"))

    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


def run_all(argv):
    """Every workload in turn, each in its own child process."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        sub = list(argv)
        sub[sub.index("--workload") + 1] = name
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve())] + sub,
                              cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} failed with exit code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not args.setup_only:
        return start(args, argv)
    with ContentionClock() as clock:
        code = start(args, argv)
    print(clock.mean_ref_ns(0, perf_counter_ns()))
    return code


def start(args, argv):
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "orbitcount" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a source checkout holding src/orbitcount and BENCHMARK.json "
              f"(looked in {ROOT})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(argv)
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES + ('all',))}", file=sys.stderr)
        return 2
    return run_one(args, json.loads(spec_path.read_text()))


if __name__ == "__main__":
    sys.exit(main())
