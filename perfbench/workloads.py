"""Workload definitions: seeded inputs, CLI calls and output checks.

A workload is a job: a fixed list of ``levylab`` CLI calls.  Every call's
``--seed`` is derived from the workload seed, and the input files the
program reads are generated into the run directory, so one seed always
gives the same job and the same outputs.

This module imports numpy but not levylab, so that the set-up probe in
``run.py`` can time ``import levylab`` on its own.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Half-width of the statistical acceptance band, in standard errors.
SE_BAND = 4.0
# carre gap of the stable alpha=1.2 vs alpha=1.3 operator config (c=1, chi2):
# the chi2-compensated quadratic term of c|y|^{-1-alpha} is 2c/(2-alpha).
CARRE_GAP_CLOSED_FORM = 2.0 / (2.0 - 1.3) - 2.0 / (2.0 - 1.2)
CARRE_GAP_TOL = 1e-9

STABLE_ALPHA = "1.2 + 0.2*exp(-x1*x1)"
EULER_TRIPLET = {"kind": "stable-field", "dim": 1, "c_expr": "1", "alpha_expr": "1.5"}
OPERATOR_CONFIG = {
    "limit": {"kind": "stable", "c_expr": "1", "alpha_expr": "1.2", "dim": 1},
    "fields": [{"kind": "stable", "c_expr": "1", "alpha_expr": "1.3", "dim": 1}],
    "chi": "chi2", "box": {"low": [-1.0], "high": [1.0]},
}
# GridPotential V(x) = x/2 on [-30, 30], 1201 knots.
GRID_KNOTS = np.linspace(-30.0, 30.0, 1201)

# Sizes per workload.  "full" is what the benchmark measures; "tiny" is the
# smoke mode and the warm-up, which run every call and every check in about
# a second.
SIZES = {
    "stable_roundtrip": {
        "full": {"paths": 1000, "n": 1000},
        "tiny": {"paths": 50, "n": 50},
    },
    "vector_chains": {
        "full": {"paths": 32768, "stable_n": 250, "euler_T": 0.01,
                 "potential_T": 0.125, "rwre_T": 0.25, "rwre_paths": 16384},
        "tiny": {"paths": 600, "stable_n": 20, "euler_T": 0.02,
                 "potential_T": 0.01, "rwre_T": 0.02, "rwre_paths": 300},
    },
    "scalar_numerics": {
        "full": {"grid_paths": 250, "grid_T": 0.125, "expr_paths": 1, "operator_grid": 4},
        "tiny": {"grid_paths": 20, "grid_T": 0.0125, "expr_paths": 1, "operator_grid": 2},
    },
}


@dataclass
class Call:
    """One CLI call: its argv (without ``--threads``), its path-steps and the
    layer whose scheme does those steps."""

    name: str
    argv: list[str]
    path_steps: int = 0
    layer: str = "cli"

    def argv_at(self, threads: int) -> list[str]:
        """The argv at ``threads``; only the simulate subcommands take ``--threads``."""
        if self.argv[0].startswith("simulate-"):
            return self.argv + ["--threads", str(threads)]
        return self.argv


@dataclass
class Job:
    calls: list[Call]
    # (name, check) pairs; a check reads the job's output files and
    # returns (passed, detail).
    checks: list[tuple[str, Callable[[], tuple[bool, str]]]] = field(default_factory=list)

    @property
    def path_steps(self) -> int:
        return sum(c.path_steps for c in self.calls)


def call_seeds(seed: int, count: int) -> list[int]:
    """Per-call ``--seed`` values derived from the workload seed."""
    state = np.random.SeedSequence(int(seed)).generate_state(count, dtype=np.uint32)
    return [int(s) & 0x7FFFFFFF for s in state]


def write_inputs(workload: str, rundir: str, size: str = "full") -> dict[str, str]:
    """Write the input files of ``workload`` into ``rundir``; return their paths.

    The inputs are the same for every seed: the seed enters through the
    calls' ``--seed`` values.
    """
    os.makedirs(rundir, exist_ok=True)
    files = {}
    if workload == "vector_chains":
        files["triplet"] = os.path.join(rundir, "triplet.json")
        with open(files["triplet"], "w") as handle:
            json.dump(EULER_TRIPLET, handle)
    elif workload == "scalar_numerics":
        files["grid"] = os.path.join(rundir, "grid_potential.csv")
        with open(files["grid"], "w") as handle:
            for x in GRID_KNOTS:
                handle.write(f"{float(x)!r},{0.5 * float(x)!r}\n")
        files["operator"] = os.path.join(rundir, "operator.json")
        with open(files["operator"], "w") as handle:
            json.dump({**OPERATOR_CONFIG,
                       "grid_points": SIZES[workload][size]["operator_grid"]}, handle)
    elif workload != "stable_roundtrip":
        raise ValueError(f"unknown workload {workload!r}")
    return files


def build_job(workload: str, seed: int, rundir: str, size: str = "full") -> Job:
    """Write the inputs and return the job of ``workload`` for ``seed``."""
    files = write_inputs(workload, rundir, size)
    s = SIZES[workload][size]
    seeds = call_seeds(seed, 4)
    out = lambda name: os.path.join(rundir, name)  # noqa: E731

    if workload == "stable_roundtrip":
        paths, grid = s["paths"], 101
        csv = out("roundtrip.csv")
        calls = [
            Call("simulate-stable",
                 ["simulate-stable", "--alpha-expr", STABLE_ALPHA, "--n", str(s["n"]),
                  "--T", "1", "--paths", str(paths), "--grid-points", str(grid),
                  "--seed", str(seeds[0]), "--out", csv],
                 path_steps=paths * _steps(s["n"] * 1.0), layer="stable"),
            Call("diagnose-paths",
                 ["diagnose-paths", csv, "--t", "1", "--seed", str(seeds[1]),
                  "--out", out("roundtrip_diag.json")]),
        ]
        checks = [("roundtrip_rows", _check_roundtrip(csv, out("roundtrip_diag.json"),
                                                      paths, grid))]
        return Job(calls, checks)

    if workload == "vector_chains":
        paths = s["paths"]
        eps_e, eps_p, eps_r = 0.01, 0.01, 0.02
        block = ["--grid-points", "2"]
        zero_csv = out("zero.csv")
        calls = [
            Call("simulate-stable",
                 ["simulate-stable", "--alpha-expr", STABLE_ALPHA, "--n", str(s["stable_n"]),
                  "--T", "1", "--paths", str(paths), *block, "--seed", str(seeds[0]),
                  "--out", out("stable.csv")],
                 path_steps=paths * _steps(s["stable_n"] * 1.0), layer="stable"),
            Call("simulate-euler",
                 ["simulate-euler", "--triplet-config", files["triplet"], "--eps", str(eps_e),
                  "--tau", "0.001", "--T", str(s["euler_T"]), "--paths", str(paths), *block,
                  "--seed", str(seeds[1]), "--out", out("euler.csv")],
                 path_steps=paths * _steps(s["euler_T"] / eps_e), layer="euler"),
            Call("simulate-potential",
                 ["simulate-potential", "--potential", "zero", "--eps", str(eps_p),
                  "--T", str(s["potential_T"]), "--paths", str(paths), *block,
                  "--seed", str(seeds[2]), "--out", zero_csv],
                 path_steps=paths * _steps(s["potential_T"] / (eps_p * eps_p)),
                 layer="potential"),
            Call("simulate-rwre",
                 ["simulate-rwre", "--env", "bernoulli:1:1", "--eps", str(eps_r),
                  "--T", str(s["rwre_T"]), "--envs", "2", "--paths", str(s["rwre_paths"]),
                  *block, "--seed", str(seeds[3]), "--out", out("rwre.csv")],
                 path_steps=2 * s["rwre_paths"] * _steps(s["rwre_T"] / (eps_r * eps_r)),
                 layer="environment"),
        ]
        checks = [("zero_potential_marginal",
                   _check_marginal(zero_csv, s["potential_T"], 0.0, s["potential_T"]))]
        return Job(calls, checks)

    # scalar_numerics
    eps = 0.05
    grid_csv = out("grid_walk.csv")
    calls = [
        Call("simulate-potential-grid",
             ["simulate-potential", "--potential", files["grid"], "--eps", str(eps),
              "--T", str(s["grid_T"]), "--paths", str(s["grid_paths"]),
              "--seed", str(seeds[0]), "--out", grid_csv],
             path_steps=s["grid_paths"] * _steps(s["grid_T"] / (eps * eps)),
             layer="potential"),
        Call("simulate-potential-expr",
             ["simulate-potential", "--potential", "0.1*x1", "--eps", str(eps),
              "--T", "0.0025", "--paths", str(s["expr_paths"]), "--grid-points", "2",
              "--seed", str(seeds[1]), "--out", out("expr_walk.csv")],
             path_steps=s["expr_paths"] * _steps(0.0025 / (eps * eps)), layer="potential"),
        Call("diagnose-operator",
             ["diagnose-operator", "--config", files["operator"], "--seed", str(seeds[2]),
              "--out", out("operator_report.json")]),
    ]
    checks = [
        ("grid_potential_marginal",
         _check_marginal(grid_csv, s["grid_T"], -s["grid_T"] / 4.0, s["grid_T"])),
        ("carre_gap_closed_form", _check_carre_gap(out("operator_report.json"))),
    ]
    return Job(calls, checks)


def _steps(ratio: float) -> int:
    """Chain steps per path, computed as the schemes compute them."""
    return int(np.ceil(ratio))


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _final_column(path: str) -> tuple[np.ndarray, np.ndarray, float]:
    """States and alive flags of every path at the last grid time of a 1-d path CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    t_last = float(np.max(data[:, 1]))
    rows = data[data[:, 1] == t_last]
    return rows[:, 2], rows[:, -1], t_last


def _check_roundtrip(csv: str, diag: str, paths: int, grid: int):
    def check() -> tuple[bool, str]:
        with open(csv, "rb") as handle:
            rows = sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(1 << 20), b""))
        rows -= 1  # header
        with open(diag) as handle:
            report = json.load(handle)
        count = report["marginal_summary"][0]["count"]
        exploded = report["explosion"][0]["fraction"]
        alive_expected = round(paths * (1.0 - exploded))
        ok = rows == paths * grid and count == alive_expected
        return ok, f"rows={rows} expected={paths * grid}; read-back alive={count}"
    return check


def _check_marginal(csv: str, horizon: float, mean: float, var: float):
    """The marginal at ``horizon`` lies within SE_BAND standard errors of N(mean, var)."""
    def check() -> tuple[bool, str]:
        x, alive, t_last = _final_column(csv)
        if abs(t_last - horizon) > 1e-9 or not np.all(alive == 1):
            return False, f"last time {t_last}, {int(np.sum(alive != 1))} dead paths"
        n = x.size
        se_mean = math.sqrt(var / n)
        se_var = var * math.sqrt(2.0 / (n - 1))
        m, v = float(np.mean(x)), float(np.var(x, ddof=1))
        z_mean, z_var = (m - mean) / se_mean, (v - var) / se_var
        ok = abs(z_mean) <= SE_BAND and abs(z_var) <= SE_BAND
        return ok, f"n={n} mean={m:.5f} (z={z_mean:+.2f}) var={v:.5f} (z={z_var:+.2f})"
    return check


def _check_carre_gap(report_path: str):
    def check() -> tuple[bool, str]:
        with open(report_path) as handle:
            report = json.load(handle)
        gap = float(report["reports"][0]["carre_gap"][0][0])
        err = abs(gap - CARRE_GAP_CLOSED_FORM)
        return err <= CARRE_GAP_TOL, f"carre_gap={gap!r} closed form error={err:.3e}"
    return check
