"""levylab benchmark: seeded CLI workloads timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload vector_chains --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --list          # every metric with unit and scope

Each run builds the workload's job (a fixed list of CLI calls whose seeds
come from ``--seed``), warms up once at smoke size, then repeats the job
through ``levylab.cli.run`` in this process until ``--seconds`` have been
measured.  Every call's exit code and every output check is an operation
counted in ``attempted``/``failed``.  Job times are reported in units of a
reference computation timed around each call (see ``Runner``).

``--trace 0`` alternates the job at ``--threads 1`` and ``--threads 2`` and
reports the end-to-end metrics.  ``--trace 1`` alternates traced and
untraced jobs at ``--threads 1`` and reports the per-layer metrics; the
spans come from wrappers in ``tracing.py``, the program is not edited.

The next-to-last stdout line is the full report (metadata, per-metric
sample counts and percentiles, checks, output digests); the last line is
the result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import metrics as M
import workloads as W
from tracing import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_ROOT = os.path.join(ROOT, ".perfbench_run")
SETUP_SAMPLES = 3
SETUP_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import levylab.cli, workloads; "
               "workloads.write_inputs(sys.argv[3], sys.argv[4])")


class Ledger:
    """Attempted and failed operations, by operation name."""

    def __init__(self):
        self.ops: dict[str, dict] = {}

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        entry = self.ops.setdefault(name, {"attempted": 0, "failed": 0, "detail": ""})
        entry["attempted"] += 1
        if not ok:
            entry["failed"] += 1
        if not ok or not entry["failed"]:
            entry["detail"] = detail

    @property
    def attempted(self) -> int:
        return sum(e["attempted"] for e in self.ops.values())

    @property
    def failed(self) -> int:
        return sum(e["failed"] for e in self.ops.values())


def import_levylab():
    """Import levylab from this checkout's ``src``; exit if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "levylab", "cli.py")):
        sys.exit(f"perfbench: no levylab sources under {SRC}")
    sys.path.insert(0, SRC)
    import levylab.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported levylab from {cli.__file__}, not {SRC}")
    return cli


def probe_setup(workload: str, rundir: str) -> float:
    """Seconds for a fresh interpreter to import levylab and write the inputs."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE, SRC, HERE, workload, rundir],
                   check=True, timeout=120)
    return time.perf_counter() - start


def reference_s() -> float:
    """Seconds for a fixed computation that runs no levylab code.

    The mix resembles the program's own: per-step array work on one
    16384-path block, then formatting and parsing the states as CSV text.
    """
    start = time.perf_counter()
    gen = np.random.Generator(np.random.Philox(7))
    x = np.zeros(16384)
    for _ in range(200):
        live = np.nonzero(np.abs(x) < 30.0)[0]
        x[live] += np.where(gen.random(live.size) < 0.5, 1.0, -1.0)
    text = "\n".join(f"{i},{j},{v!r},1" for j in range(2) for i, v in enumerate(x.tolist()))
    total = sum(float(line.split(",")[2]) for line in text.splitlines())
    if not math.isfinite(total):
        raise RuntimeError("reference computation is not finite")
    return time.perf_counter() - start


class Runner:
    """Runs a job's calls in-process and checks their outputs.

    Each CLI call is timed between two runs of ``reference_s``; the one
    after a call is also the one before the next.  A shared 2-vCPU host
    changes speed by up to 1.6x in phases of seconds to minutes, which moves
    a call and the reference timed next to it together.  The gated metrics
    report a job as the sum of its calls' wall times, each in units of the
    mean of its two neighbouring reference times.
    """

    def __init__(self, cli, ledger: Ledger):
        self.cli = cli
        self.ledger = ledger
        self.reference: list[float] = []
        self._verdicts: dict[tuple, list] = {}

    def run_job(self, job: W.Job, threads: int, tracer: Tracer | None = None):
        """Run every call of ``job``.

        Returns the wall seconds, the wall in reference units and the
        output paths.
        """
        if not self.reference:
            self.reference.append(reference_s())
        gc.collect()
        results = []
        wall = in_reference_units = 0.0
        for call_id, call in enumerate(job.calls):
            out, err = io.StringIO(), io.StringIO()
            argv = call.argv_at(threads)
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    if tracer is None:
                        code = self.cli.run(argv)
                    else:
                        code = tracer.call(call_id, self.cli.run, argv)
                except Exception:  # an uncaught error ends a CLI process with a traceback
                    traceback.print_exc()
                    code = 1
            elapsed = time.perf_counter() - start
            self.reference.append(reference_s())
            wall += elapsed
            in_reference_units += elapsed / (0.5 * (self.reference[-2] + self.reference[-1]))
            results.append((call, code, out.getvalue(), err.getvalue()))
        outputs = []
        for call, code, out, err in results:
            self.ledger.record(f"exit:{call.name}", code == 0,
                               f"exit {code}: {err.strip()[-300:]}")
            if code == 0:
                outputs.extend(json.loads(out.strip().splitlines()[-1])["outputs"])
        return wall, in_reference_units, outputs

    def check(self, job: W.Job, outputs: list[str]) -> dict[str, str]:
        """Run the job's output checks; return the outputs' sha256 digests.

        A check's verdict depends only on the output bytes, so it is
        computed once per distinct set of digests and counted every time.
        """
        digests = {os.path.basename(p): W.sha256_file(p) for p in outputs}
        key = tuple(sorted(digests.items()))
        if key not in self._verdicts:
            self._verdicts[key] = [(name, *_run_check(fn)) for name, fn in job.checks]
        for name, ok, detail in self._verdicts[key]:
            self.ledger.record(name, ok, detail)
        return digests


def _run_check(fn) -> tuple[bool, str]:
    """A check that cannot read its outputs (a call failed) fails; it does not crash."""
    try:
        return fn()
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return False, f"{type(exc).__name__}: {exc}"


def machine_metadata() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                     capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    import scipy
    return {
        "git_sha": git_sha,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _another_fits(began: float, deadline: float) -> bool:
    """Start another iteration if at least half of one as long as the last fits."""
    now = time.perf_counter()
    return now + 0.5 * (now - began) <= deadline


def measure_end_to_end(runner: Runner, job: W.Job, seconds: float):
    """Alternate the job at 1 and 2 threads.

    Returns per-thread wall samples in seconds and in reference units, and
    the output digests.
    """
    walls, units = {1: [], 2: []}, {1: [], 2: []}
    digests = {}
    deadline = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        order = (1, 2) if len(walls[1]) % 2 == 0 else (2, 1)
        shas = {}
        for threads in order:
            wall, in_units, outputs = runner.run_job(job, threads)
            walls[threads].append(wall)
            units[threads].append(in_units)
            shas[threads] = runner.check(job, outputs)
        same = shas[1] == shas[2]
        runner.ledger.record(
            "threads_identical", same,
            f"outputs at --threads 2 {'match' if same else 'differ from'} --threads 1")
        digests = shas[1]
        if not _another_fits(began, deadline):
            return walls, units, digests


def measure_traced(runner: Runner, job: W.Job, seconds: float):
    """Alternate traced and untraced jobs at 1 thread; return samples and digests."""
    tracer = Tracer()
    untraced, traced, summaries = [], [], []  # walls in reference units
    digests = {}
    deadline = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        for mode in (("plain", "traced") if len(traced) % 2 == 0 else ("traced", "plain")):
            if mode == "traced":
                tracer.reset()
                tracer.install()
                try:
                    wall, in_units, outputs = runner.run_job(job, 1, tracer)
                finally:
                    tracer.remove()
                traced.append(in_units)
                summary = tracer.summary()
                summaries.append(summary)
                check_trace(runner.ledger, summary, summaries[0], wall)
            else:
                _, in_units, outputs = runner.run_job(job, 1)
                untraced.append(in_units)
            digests = runner.check(job, outputs)
        if not _another_fits(began, deadline):
            return untraced, traced, summaries, digests


def check_trace(ledger: Ledger, summary, first, wall: float) -> None:
    """Checks on one traced job: span coverage, repeatable counts, read-back size."""
    covered = sum(summary.layer_self_s(layer) for layer in LAYERS)
    ledger.record("trace_coverage", covered >= 0.99 * wall,
                  f"layer self times cover {covered / wall:.4f} of the traced wall")
    same = summary.counts() == first.counts()
    ledger.record("trace_counts_repeat", same,
                  f"span counts {'repeat' if same else 'differ'} across traced jobs")
    if "cli.read_paths_csv" in summary.rows:
        read, written = summary.rows["cli.read_paths_csv"], summary.rows["cli.paths_to_csv"]
        ledger.record("read_back_rows", read == written,
                      f"read back {read} rows of the {written} written")


def layer_samples(job: W.Job, summaries, untraced: list[float], traced: list[float],
                  failed_frac: float) -> dict[str, list[float]]:
    """Per-layer metric samples, one per traced job (single values for run-level ratios)."""
    steps = {layer: sum(c.path_steps for c in job.calls if c.layer == layer)
             for layer in ("stable", "euler", "potential", "environment")}
    simulate = {"stable": "stable.stable_chain_simulate",
                "euler": "euler.euler_chain_simulate",
                "potential": "potential.potential_chain_simulate",
                "environment": "environment.rwre_simulate"}
    samples: dict[str, list[float]] = {m.name: [] for m in M.PER_LAYER}
    for s in summaries:
        value = {}
        for name in ("cli.paths_to_csv", "cli.atomic_write_text", "cli.read_paths_csv",
                     "potential.psi_solve_many", "potential.phi_eval",
                     "potential.p_eval_many", "potential.exp_integral",
                     "operators.convergence_gaps", "diagnostics.explosion_stats",
                     *simulate.values()):
            value[f"{name}.s"] = s.inclusive_s.get(name, 0.0)
        for name in ("potential.psi_solve_many", "potential.phi_eval",
                     "potential.exp_integral", "quad", "operators.measure_integral",
                     "operators.chi_quadratic_matrix"):
            value[f"{name}.calls"] = s.calls.get(name, 0)
        value["cli.paths_to_csv.rows"] = s.rows.get("cli.paths_to_csv", 0)
        value["cli.paths_to_csv.mb"] = s.megabytes.get("cli.paths_to_csv", 0.0)
        value["cli.read_paths_csv.rows"] = s.rows.get("cli.read_paths_csv", 0)
        value["cli.self_s"] = s.self_s.get("cli.run", 0.0)
        psi = s.calls.get("potential.psi_solve_many", 0)
        value["potential.phi_per_psi"] = s.calls.get("potential.phi_eval", 0) / psi if psi else 0.0
        for layer, name in simulate.items():
            seconds = s.inclusive_s.get(name, 0.0)
            value[f"{name}.path_steps_per_s"] = steps[layer] / seconds if seconds else 0.0
        for layer in LAYERS:
            value[f"layer_self_s.{layer}"] = s.layer_self_s(layer)
        for key, v in value.items():
            samples[key].append(v)
    samples["trace_overhead_frac"] = [statistics.median(traced) / statistics.median(untraced) - 1]
    samples["failed_frac"] = [failed_frac]
    return samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=M.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the smoke mode: every call and check, seconds-long")
    parser.add_argument("--list", action="store_true", help="print every metric and exit")
    args = parser.parse_args(argv)
    if not args.list and args.workload is None:
        parser.error("--workload is required")
    return args


def print_metric_list() -> None:
    for kind, table in (("end_to_end", M.END_TO_END), ("per_layer", M.PER_LAYER)):
        print(f"# {kind}")
        for m in table:
            print(f"{m.name:52s} {m.unit:6s} {m.better:6s} "
                  f"[{','.join(m.applies)}]  {m.moves}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.list:
        print_metric_list()
        return 0
    cli = import_levylab()
    rundir = os.path.join(RUN_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return measure(cli, args, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(RUN_ROOT)


def measure(cli, args, rundir: str) -> int:
    setup = [probe_setup(args.workload, os.path.join(rundir, f"setup{k}"))
             for k in range(SETUP_SAMPLES)]
    ledger = Ledger()
    runner = Runner(cli, ledger)
    # Warm up at smoke size so lazy imports and first-touch costs are paid
    # before timing; its calls and checks count as operations.
    warm = W.build_job(args.workload, args.seed, os.path.join(rundir, "warm"), "tiny")
    runner.check(warm, runner.run_job(warm, 1)[2])
    job = W.build_job(args.workload, args.seed, os.path.join(rundir, "job"), args.size)

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "seconds": args.seconds, "machine": machine_metadata(),
              "job": {"calls": [c.argv for c in job.calls], "path_steps": job.path_steps}}
    if args.trace == 0:
        walls, units, digests = measure_end_to_end(runner, job, args.seconds)
        samples = {
            "wall_ref": units[1],
            "wall_ref_2t": units[2],
            "setup_s": setup,
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        }
        report["seconds_at_host_speed"] = {
            "wall_s": M.describe(walls[1]),
            "wall_s_2t": M.describe(walls[2]),
            "path_steps_per_s": job.path_steps / statistics.median(walls[1]),
            "reference_s": M.describe(runner.reference),
        }
        report["job_wall_s"] = {"threads_1": walls[1], "threads_2": walls[2]}
        table = M.END_TO_END
    else:
        untraced, traced, summaries, digests = measure_traced(runner, job, args.seconds)
        samples = layer_samples(job, summaries, untraced, traced,
                                ledger.failed / ledger.attempted)
        report["trace_counts"] = summaries[0].counts()
        report["job_wall_ref"] = {"untraced": untraced, "traced": traced}
        table = M.PER_LAYER

    result_metrics, described = {}, {}
    for m in table:
        stats = M.describe(samples[m.name])
        described[m.name] = {**stats, "unit": m.unit, "better": m.better,
                             "applies": args.workload in m.applies}
        result_metrics[m.name] = {"value": stats["median"], "unit": m.unit}
    report["metrics"] = described
    report["operations"] = ledger.ops
    report["outputs_sha256"] = digests
    print(json.dumps(report, sort_keys=True, default=str))
    for name, entry in ledger.ops.items():
        if entry["failed"]:
            print(f"perfbench: {name} failed {entry['failed']}/{entry['attempted']}: "
                  f"{entry['detail']}", file=sys.stderr)
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
