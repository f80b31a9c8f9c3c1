"""Smoke test of the benchmark harness at tiny size.

    python3 perfbench/smoke.py

For every workload and both trace modes it runs ``run.py --size tiny`` and
asserts that the run succeeds, that the result line carries exactly the
metrics ``BENCHMARK.json`` names with their units, and that every output
check ran and passed.  It also asserts that the traced counts repeat for
one seed, that ``--list`` prints every metric, and that a directory holding
only the benchmark (no levylab sources) makes the harness fail.  Takes
about a minute.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402
import workloads as W  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(workload: str, trace: int, seed: int = 7, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def expected_operations(workload: str, trace: int) -> set[str]:
    job = W.build_job(workload, 0, os.path.join(ROOT, ".perfbench_run", "smoke-jobs"), "tiny")
    names = {f"exit:{c.name}" for c in job.calls} | {name for name, _ in job.checks}
    names |= {"threads_identical"} if trace == 0 else {"trace_coverage", "trace_counts_repeat"}
    if trace == 1 and workload == "stable_roundtrip":
        names.add("read_back_rows")
    return names


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    assert declared[0] == {m.name: m.unit for m in M.END_TO_END}, "end_to_end table differs"
    assert declared[1] == {m.name: m.unit for m in M.PER_LAYER}, "per_layer table differs"
    assert [w["name"] for w in bench["workloads"]] == list(M.WORKLOADS)

    listing = subprocess.run([sys.executable, "perfbench/run.py", "--list"], cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True).stdout
    for table in declared.values():
        for name in table:
            assert f"\n{name} " in f"\n{listing}", f"--list misses {name}"

    counts = {}
    for workload in M.WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            label = f"{workload} --trace {trace}"
            assert proc.returncode == 0, f"{label} exited {proc.returncode}: {proc.stderr}"
            lines = proc.stdout.strip().splitlines()
            result, report = json.loads(lines[-1]), json.loads(lines[-2])
            assert set(result) == RESULT_KEYS, f"{label}: result keys {sorted(result)}"
            assert result["correct"] and result["failed"] == 0, f"{label}: {report['operations']}"
            assert result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == declared[trace], f"{label}: metrics differ from BENCHMARK.json"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), f"{label}: {name} is not a number"
            missing = expected_operations(workload, trace) - set(report["operations"])
            assert not missing, f"{label}: operations never ran: {sorted(missing)}"
            if trace == 1:
                counts[workload] = report["trace_counts"]
            print(f"ok  {label}: {result['attempted']} operations", flush=True)

    again = run_bench("scalar_numerics", 1)
    assert json.loads(again.stdout.strip().splitlines()[-2])["trace_counts"] == \
        counts["scalar_numerics"], "traced counts differ between runs of one seed"
    print("ok  traced counts repeat for one seed")

    bare = os.path.join(ROOT, ".perfbench_run", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_bench("stable_roundtrip", 0, cwd=bare)
        assert proc.returncode != 0, "ran without levylab sources"
        assert not proc.stdout.strip(), "printed a result without levylab sources"
    finally:
        for name in ("smoke-bare", "smoke-jobs"):
            shutil.rmtree(os.path.join(ROOT, ".perfbench_run", name), ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(ROOT, ".perfbench_run"))
    print("ok  fails without levylab sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
