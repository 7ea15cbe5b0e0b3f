#!/usr/bin/env python3
"""Smoke check of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Runs every workload with ``--tiny`` untraced and traced and asserts that the
last stdout line is the result object, that every metric BENCHMARK.json
lists is emitted with its unit, and that no check failed.  It also checks
that the traced run puts back every object it patched, that two
``orbit_side`` seeds draw different representatives but do the same amount
of work, and that the benchmark refuses to run without the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_result(proc, wanted, label):
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    missing = {name for name, _ in wanted} - set(result["metrics"])
    assert not missing, f"{label}: metrics not emitted: {sorted(missing)}"
    for name, unit in wanted:
        m = result["metrics"][name]
        assert m["unit"] == unit and isinstance(m["value"], (int, float)), f"{label}: {name}"
    return result


def check_workloads():
    for name in (w["name"] for w in SPEC["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            wanted = [(m["name"], m["unit"]) for m in SPEC[kind]]
            proc = run_benchmark(ROOT, "--workload", name, "--seed", "1", "--seconds", "0.5",
                                 "--trace", str(trace), "--tiny")
            check_result(proc, wanted, f"{name} trace {trace}")
            print(f"ok  {name} --trace {trace}: {len(wanted)} metrics")
    proc = run_benchmark(ROOT, "--workload", "all", "--seed", "1", "--seconds", "0.5",
                         "--trace", "0", "--tiny")
    wanted = [(f"{w['name']}.{m['name']}", m["unit"])
              for w in SPEC["workloads"] for m in SPEC["end_to_end"]]
    check_result(proc, wanted, "all")
    print("ok  --workload all")


def check_in_process():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import layers
    import run
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    patched = [(owner, attr, original) for owner, attr, original in tracer._patched]
    tracer.restore()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
    print(f"ok  tracer restores all {len(patched)} patched attributes")

    a = workloads.build("orbit_side", 1, tiny=True)
    b = workloads.build("orbit_side", 2, tiny=True)
    assert [repr(r) for r in a.reps] != [repr(r) for r in b.reps]
    checks = workloads.Checks()
    assert run.battery(a, checks)[0] == run.battery(b, checks)[0] and checks.failed == 0
    print("ok  orbit_side: seeds 1 and 2 draw different representatives, same items")


def check_refuses_without_package():
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(bare, "--workload", "census_prime", "--seed", "1", "--seconds", "1",
                         "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print(f"ok  refuses without src/orbitcount (exit {proc.returncode})")


if __name__ == "__main__":
    check_workloads()
    check_in_process()
    check_refuses_without_package()
