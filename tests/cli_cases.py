"""The CLI's cases, one row each, and the contract every row keeps.

A row gives an argv, its input files (text or bytes, a function returning
either, or None for an empty directory), the exit code and the text stderr
must hold: a prefix of the message when it starts like one, else a
substring.  It may also set environment variables, a time limit and a check
on its outputs.  The contract:

- warnings are errors;
- exit 1 or 2 prints one stderr line of under 200 characters, starting
  ``validation error:`` or ``numeric failure:``, and exit 64 starts with
  ``usage error:``; none leaves a file behind, output or ``.levylab-`` temp;
- exit 0 prints nothing on stderr, adds exactly the files its manifest
  lists, every alive row of its path CSVs is finite, and its check passes.

``tests/test_cli.py`` runs every row in process through ``cli.run``.  A row
named ``test_x[id]`` or ``test_x`` runs there under that test id; any other
row runs as ``test_cli_case[name]``.  Run as a script, this module runs
every row in a fresh temporary directory through the console launcher given
on its command line, within the row's time limit::

    python tests/cli_cases.py levylab
    PYTHONPATH=src python tests/cli_cases.py python -m levylab.cli

Adding a CLI case means adding one row.
"""
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from levylab.cli import read_paths_csv

PREFIXES = {1: "validation error:", 2: "numeric failure:", 64: "usage error:"}


@dataclass(frozen=True)
class Case:
    name: str
    argv: list
    code: int = 0
    err: str = ""
    files: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)
    limit: float = 20.0
    check: Callable | None = None


def row(name, argv, code=0, err="", **kw):
    """A case whose argv may be written as one shell-quoted string."""
    return Case(name, shlex.split(argv) if isinstance(argv, str) else list(argv), code, err, **kw)


def setup(case, directory):
    """Write the case's input files into directory; return the names there."""
    for name, text in case.files.items():
        path = Path(directory, name)
        text = text() if callable(text) else text
        if text is None:
            path.mkdir()
        elif isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
    return set(os.listdir(directory))


def alive_states(path):
    batch = read_paths_csv(path)
    return batch.states[batch.times[None, :] < batch.xi[:, None]]


def verdict(case, directory, before, code, out, err):
    """How a run of the case broke the contract, or "" when it kept it."""
    made = set(os.listdir(directory)) - before
    lines = err.splitlines()
    if code != case.code:
        return f"exit {code}, expected {case.code}; stderr: {err[:300]!r}"
    if code:
        if made:
            return f"left {sorted(made)}"
        if code != 64 and (len(lines) != 1 or len(err) >= 200):
            return f"{len(lines)} stderr lines of {len(err)} characters, expected one short line"
        if not err.startswith(PREFIXES[code]):
            return f"stderr does not start with {PREFIXES[code]!r}: {err[:300]!r}"
        if case.err.startswith(PREFIXES[code]) and not err.startswith(case.err):
            return f"stderr does not start with {case.err!r}: {err[:300]!r}"
        if case.err not in err:
            return f"stderr does not name {case.err!r}: {err[:300]!r}"
        return ""
    if err:
        return f"stderr on success: {err[:300]!r}"
    outputs = [Path(directory, name) for name in json.loads(out.splitlines()[-1])["outputs"]]
    if made != {path.name for path in outputs}:
        return f"made {sorted(made)}, the manifest lists {sorted(p.name for p in outputs)}"
    for path in outputs:
        if path.suffix == ".csv" and not np.all(np.isfinite(alive_states(path))):
            return f"{path.name} has a non-finite alive row"
    if case.check is not None and not case.check(outputs):
        return f"check {case.check.__name__} failed"
    return ""


# --- checks on the outputs of exit-0 rows ----------------------------------

def finite_gaps(outputs):
    report = json.loads(outputs[0].read_text())["reports"][0]
    gaps = [report["drift_gap"], report["max_gap"], *report["jump_gaps"].values(),
            *sum(report["carre_gap"], [])]
    return all(map(math.isfinite, gaps))


def some_alive(outputs):
    return alive_states(outputs[0]).size > 0


def lived_near(start):
    """Every path lives to the horizon and stays within 2 of the start."""
    def lived_near_start(outputs):
        batches = [read_paths_csv(p) for p in outputs if p.suffix == ".csv"]
        return bool(batches) and all(
            np.all(b.xi == np.inf) and np.all(np.abs(b.states[:, :, 0] - start) <= 2.0 + 1e-9)
            for b in batches)
    return lived_near_start


def all_lived(outputs):
    """Every path lives to the horizon, its states finite."""
    batch = read_paths_csv(outputs[0])
    return bool(np.all(np.isinf(batch.xi)) and np.all(np.isfinite(batch.states)))


def drifted_near_one(outputs):
    """Every path lives, and the mean end state is 1 within 0.2."""
    ends = read_paths_csv(outputs[0]).states[:, -1, 0]
    return all_lived(outputs) and abs(np.mean(ends) - 1.0) < 0.2


def ended_beyond_0_8(outputs):
    return all_lived(outputs) and bool(np.all(read_paths_csv(outputs[0]).states[:, -1, 0] > 0.8))


def absorbed_at_time_zero(outputs):
    """3 paths on 6 grid times, every row dead."""
    rows = np.loadtxt(outputs[0], delimiter=",", skiprows=1, ndmin=2)
    return bool(rows.shape == (18, 4) and np.all(rows[:, 3] == 0)
                and np.all(np.isnan(rows[:, 2]))
                and np.all(read_paths_csv(outputs[0]).xi == 0.0))


# --- input files --------------------------------------------------------------

OPERATOR_CONFIG = {
    "limit": {"kind": "stable", "c_expr": "1", "alpha_expr": "1.2", "dim": 1},
    "fields": [{"kind": "stable", "c_expr": "1", "alpha_expr": "1.3", "dim": 1}],
    "chi": "chi2",
    "box": {"low": [-1.0], "high": [1.0]},
    "grid_points": 3,
}
ATOMS_NU = {"kind": "atoms", "atoms": [{"point": [0.4], "mass": 1.5}]}


def cfg(document):
    return {"cfg.json": json.dumps(document)}


def operator_report_config(dim, **extra):
    """The stable-limit report of the console step, on the box [-1, 1]^dim."""
    def stable(alpha):
        return {"kind": "stable", "c_expr": "1", "alpha_expr": alpha, "dim": dim}
    return {"op.json": json.dumps({"limit": stable("1.2"), "fields": [stable("1.3")],
                                   "box": {"low": [-1.0] * dim, "high": [1.0] * dim}, **extra})}


def lattice(sites=(), q=0.0, ks=range(-20, 21)):
    """Lattice increments q at the given sites, 0 elsewhere, as a (k, q_k) CSV."""
    return "".join(f"{k},{q if k in sites else 0}\n" for k in ks)


def path_csv(*rows):
    return "path_id,t,x1,alive\n" + "".join(f"{r}\n" for r in rows)


def two_columns(*pairs):
    return "".join(f"{a},{b}\n" for a, b in pairs)


FIVE_KNOTS = [(-2, -0.2), (-1, -0.1), (0, 0), (1, 0.1), (2, 0.2)]


def fine_grid():
    """V = x / 10 on knots 1e-5 apart: a step of about 0.2 walks some 20000 cells."""
    return "".join(f"{x},{x / 10}\n" for x in (k / 1e5 - 2 for k in range(400001)))


EULER_ON_CONFIG = ("simulate-euler --triplet-config cfg.json --eps 0.1 --T 0.3 --paths 3 "
                   "--out out.csv")
OPERATOR_ON_CONFIG = "diagnose-operator --config cfg.json --out out.csv"
STABLE = "simulate-stable --n 10 --T 0.3 --paths 3 --out out.csv"
RWRE = "simulate-rwre --T 0.1 --paths 3 --out out.csv"
EULER_STABLE = ("simulate-euler --triplet-config stable.json --eps 0.05 --T 0.2 --paths 3 "
                "--out out.csv")
ZERO_POTENTIAL = "simulate-potential --potential zero --T 0.1 --paths 3 --out out.csv"
OUT_OF_RANGE_FILES = {
    "adir": None,
    "stable.json": json.dumps({"kind": "stable-field", "dim": 1, "c_expr": "1",
                               "alpha_expr": "1.5"}),
    "latin1.json": b'{"drift": [0.1], "gamma": [["\xe9"]]}',
}
SEED = "simulate-potential --potential zero --eps 0.1 --T 0.1 --paths 3 --out out.csv"
DIAGNOSE_BAD = "diagnose-paths bad.csv --out d.json"
UNSORTED_TIMES = path_csv("0,0.5,1.0,1", "0,0.0,2.0,1", "0,1.0,3.0,1")
TWO_POINTS = path_csv("0,0.0,1.0,1", "0,1.0,2.0,1")


CASES = [
    # exit codes
    row("test_validation_exit_code", "simulate-potential --potential zero --eps 0 --T 1 "
        "--paths 5 --out x.csv", 1),
    # stable-like jumps at a huge step blow the expected-jump guard
    row("test_numeric_exit_code", "simulate-euler --triplet-config triplet.json --eps 1000000 "
        "--tau 0.0001 --T 2000000 --paths 2 --out x.csv", 2,
        files={"triplet.json": json.dumps({"drift": [0.0], "gamma": [[0.0]],
                                           "nu": {"kind": "stable", "c": 1.0, "alpha": 1.9}})}),
    row("test_usage_exit_code", "simulate-potential --bogus", 64),
    row("unknown-subcommand", "no-such-command", 64),
    row("unknown-flag", "simulate-euler --triplet-config atoms.json --eps 0.05 --T 0.2 "
        "--out bad.csv --no-such-flag", 64),

    # runs that finish
    row("euler-atoms-with-cemetery", "simulate-euler --triplet-config atoms.json --eps 0.05 "
        "--T 0.2 --paths 50 --seed 3 --out euler.csv",
        files={"atoms.json": json.dumps({"drift": [0.1], "gamma": [[0.3]], "nu": {
            "kind": "atoms", "atoms": [{"point": [0.4], "mass": 1.5},
                                       {"point": "DELTA", "mass": 0.1}]}})}),
    row("diagnose-paths-marginal", "diagnose-paths paths.csv --t 0.2 --out paths.json",
        files={"paths.csv": path_csv("0,0.0,0.0,1", "0,0.2,0.3,1", "1,0.0,0.0,1",
                                     "1,0.2,-0.1,1", "2,0.0,0.0,1", "2,0.2,nan,0")}),
    row("rwre-gaussian-environments", "simulate-rwre --env iid:0.5 --eps 0.05 --T 0.2 --envs 2 "
        "--paths 50 --seed 3 --out rwre.csv"),
    *[row(f"operator-report-{d}d", "diagnose-operator --config op.json --out report.json",
          files=operator_report_config(d, chi="chi2", **({"grid_points": 2} if d == 3 else {})),
          limit=60, check=finite_gaps) for d in (1, 2, 3)],
    # test functions 1e308 away from the box
    row("operator-test-functions-far-from-the-box",
        "diagnose-operator --config op.json --out report.json",
        files=operator_report_config(1, margin=1e308), limit=60, check=finite_gaps),
    # V ~ 729 at the start: the rescaled walk needs only the window's oscillation.
    row("test_expression_potential_far_from_the_origin", "simulate-potential --potential x1*x1 "
        "--start 27 --eps 0.05 --T 0.0025 --paths 4 --seed 3 --out far.csv"),
    # n_steps = 240 gives the window [-24.8, 24.8], where x^2 oscillates by 615;
    # each step sees only its own span.
    row("test_expression_potential_oscillating_widely_over_its_window", "simulate-potential "
        "--potential x1*x1 --eps 0.05 --T 0.6 --paths 4 --seed 1 --grid-points 3 --out wide.csv",
        check=all_lived),
    # Steps of about 0.32 carry every path beyond 0.8, the edge margin of the
    # first window [-1.2, 1.2]; the window doubles instead of absorbing them.
    row("test_expression_window_grows_past_steep_steps", "simulate-potential "
        "'--potential=min(max(-250*x1, -250), 250)' --eps 0.05 --T 0.01 --paths 8 --seed 2 "
        "--grid-points 3 --out steep.csv", check=ended_beyond_0_8),
    # The potential climbs by 40 per site right of the origin, to 1200 at the
    # window edge; the paths only ever see the first wall.
    row("test_lattice_file_climbing_far_beyond_one_span", "simulate-potential --potential "
        "climb.csv --mesh 0.1 --eps 0.1 --T 0.2 --paths 50 --seed 1 --out climb_out.csv",
        files={"climb.csv": lattice(range(1, 31), 40.0, range(-30, 31))}, check=all_lived),
    row("test_largest_seed_is_accepted", f"{SEED} --seed {2 ** 64 - 1}"),
    # Steps of about 0.26 outrun the window [-1.2, 1.2]; the doubled window
    # oscillates by 960, but one step's span only by about 52.
    row("test_steep_linear_expression_is_not_absorbed_silently", "simulate-potential "
        "--potential=-200*x1 --eps 0.05 --T 0.01 --paths 8 --seed 2 --out lin.csv",
        check=drifted_near_one),
    # the start 5e6 lies beyond the default escape radius 1e6
    row("test_start_beyond_the_escape_radius_is_absorbed_at_time_zero", "simulate-stable "
        "--n 10 --T 0.5 --start 5e6 --paths 3 --grid-points 6 --out far.csv",
        check=absorbed_at_time_zero),

    # An overflowing state escapes as inf, without a warning.
    *[row(f"test_overflow_is_an_escape_not_a_warning[{name}]",
          f"{argv} --paths 5 --seed 3 --out over.csv",
          files={"huge.json": '{"drift": [1e308], "gamma": [[1e308]]}'}) for name, argv in [
        ("stable-alpha", "simulate-stable --n 10 --T 0.2 --alpha-expr 1e-300"),
        ("stable-start", "simulate-stable --n 10 --T 0.2 --start 1e308"),
        ("rwre-env", "simulate-rwre --env bernoulli:1e300:1 --eps 0.05 --T 0.2"),
        ("euler-triplet", "simulate-euler --triplet-config huge.json --eps 0.05 --T 0.2"),
    ]],
    # An aligned lattice run reads no cell: p is 0 or 1 exactly where e^q
    # overflows or vanishes against 1.
    *[row(f"test_aligned_lattice_runs_take_any_finite_increment[{name}]",
          "simulate-potential --potential hostile.csv --mesh 0.05 --eps 0.05 --T 0.2 "
          "--paths 5 --seed 3 --out out.csv",
          files={"hostile.csv": lattice(sites, q)}, check=some_alive) for name, sites, q in [
        ("overflowing-exp", [3], 800.0),
        ("vanishing-exp", [3], -40.0),
        ("overflowing-sum", [1, 2, 3, 4], 1e308),
    ]],
    # Off the mesh, the cells beyond the overflowing sum are +inf.
    row("test_overflowing_lattice_sum_off_the_mesh_is_a_numeric_failure",
        "simulate-potential --potential hostile.csv --mesh 0.05 --eps 0.025 --T 0.2 "
        "--paths 5 --seed 3 --out out.csv", 2,
        files={"hostile.csv": lattice([1, 2, 3, 4], 1e308)}),
    # A lattice potential takes any window of sites; each run takes 40 steps of 0.05.
    *[row(f"test_lattice_run_far_from_the_origin[{name}]",
          f"{argv} --paths 50 --seed 3 --out far.csv", check=lived_near(start))
      for name, argv, start in [
        ("rwre", "simulate-rwre --env iid:1 --eps 0.05 --T 0.1 --start-site 1000", 50.0),
        ("zero-potential", "simulate-potential --potential zero --eps 0.05 --T 0.1 "
         "--start 1000", 1000.0),
    ]],
    # The window holds sites -21..20, but only -19..19 have a verified
    # up-probability; outside them the generic step fails cleanly.
    *[row(f"test_lattice_start_outside_the_verified_sites[{start}-{code}]",
          f"simulate-potential --potential lat.csv --mesh 0.1 --eps 0.1 --T 0.05 --paths 20 "
          f"--start {start} --out out.csv", code, files={"lat.csv": lattice()})
      for start, code in [("-2.5", 1), ("2.2", 1), ("-2.0", 2), ("2.0", 2)]],

    # oversized runs are refused before their arrays are allocated
    *[row(f"oversized-{name}", f"{argv} --out big.csv", 1) for name, argv in [
        ("clock", "diagnose-clock --eps 1e-9 --t 1 --threshold 0.5 --trials 1"),
        ("zero-potential-window", "simulate-potential --potential zero --eps 1e-5 --T 1 "
         "--paths 1"),
        ("rwre-window", "simulate-rwre --env iid:1 --eps 1e-4 --T 1000 --paths 1"),
        ("output-paths", "simulate-stable --n 10 --T 1 --paths 100000000000 --grid-points 2"),
        ("output-grid-points", "simulate-stable --n 10 --T 1 --grid-points 1000000000000"),
        ("output-dim", "simulate-stable --n 10 --T 1 --dim 1000000000"),
    ]],

    # potentials
    # The window is start +- 2 (n_steps + 8) eps = [-0.4, 1.4]; log is NaN left of 0.
    row("test_expression_potential_not_finite_in_its_window", "simulate-potential "
        "--potential log(x1) --start 0.5 --eps 0.05 --T 0.0025 --paths 4 --out log.csv", 1,
        "not finite"),
    # n_steps = 40000 gives the window [-4000.8, 4000.8]: resolving x^2 there
    # takes more cells than the cap.
    row("test_expression_potential_oscillating_beyond_its_budget", "simulate-potential "
        "--potential x1*x1 --eps 0.05 --T 100 --paths 4 --out wide.csv", 1,
        "validation error: the potential needs over"),
    # At slope 2000 the bracket span [0, 0.4] of the very first step oscillates by 800.
    row("test_steep_linear_expression_overflowing_one_span", "simulate-potential "
        "--potential=-2000*x1 --eps 0.05 --T 0.01 --paths 8 --seed 2 --out lin.csv", 2,
        "numeric failure: the potential oscillates"),
    row("potential-finer-than-the-walk-cap", "simulate-potential --potential fine.csv "
        "--eps 0.2 --T 0.08 --paths 5 --seed 1 --out fine_out.csv", 1,
        "validation error: a cell walk spans more than", files={"fine.csv": fine_grid}),
    row("nan-potential-value", "simulate-potential --potential nan.csv --eps 0.2 --T 0.2 "
        "--out nan_out.csv", 1, files={"nan.csv": two_columns((-1, 0), (0, "nan"), (1, 0))}),
    *[row(f"test_non_finite_potential_data_are_refused[{name}]",
          f"simulate-potential --potential bad.csv {flags} --T 0.2 --paths 4 --out bad_out.csv",
          1, files={"bad.csv": two_columns(*data)}) for name, data, flags in [
        ("nan-value", FIVE_KNOTS[:2] + [(0, "nan")] + FIVE_KNOTS[3:], "--eps 0.2"),
        ("inf-value", FIVE_KNOTS[:2] + [(0, "inf")] + FIVE_KNOTS[3:], "--eps 0.2"),
        ("nan-knot", FIVE_KNOTS[:2] + [("nan", 0)] + FIVE_KNOTS[3:], "--eps 0.2"),
        ("inf-knot", [("-inf", -0.2)] + FIVE_KNOTS[1:], "--eps 0.2"),
        ("inf-mesh", [(k, 0) for k in range(-20, 21)], "--mesh inf --eps 0.125"),
        ("nan-mesh", [(k, 0) for k in range(-20, 21)], "--mesh nan --eps 0.2"),
    ]],
    row("potential-csv-three-columns", "simulate-potential --potential three.csv --eps 0.1 "
        "--T 0.1 --out out.csv", 1, "needs two columns", files={"three.csv": "0,1,2\n1,2,3\n"}),
    row("lattice-file-skipping-a-k", "simulate-potential --potential lat.csv --mesh 0.1 "
        "--eps 0.1 --T 0.1 --out out.csv", 1, "consecutive k",
        files={"lat.csv": lattice(ks=[-2, -1, 1, 2])}),
    row("grid-file-with-one-knot", "simulate-potential --potential one.csv --eps 0.1 --T 0.1 "
        "--out out.csv", 1, "at least two aligned knots", files={"one.csv": "0,1\n"}),
    row("grid-file-with-unsorted-knots", "simulate-potential --potential unsorted.csv "
        "--eps 0.1 --T 0.1 --out out.csv", 1, "strictly increasing",
        files={"unsorted.csv": two_columns((0, 0), (-1, 0), (1, 0))}),

    # numbers and expressions
    *[row(f"test_non_finite_input_is_a_validation_error[{name}]", argv, 1,
          files={"nan.json": '{"drift": [NaN], "gamma": [[1.0]]}'}) for name, argv in [
        ("stable-alpha", f'{STABLE} --grid-points 3 --alpha-expr "1.2 + 0*log(x1 - 5)"'),
        ("euler-drift", f"{EULER_ON_CONFIG} --grid-points 3 --triplet-config nan.json"),
        ("stable-start", f"{STABLE} --grid-points 3 --start nan"),
        ("potential-start", f"{ZERO_POTENTIAL} --eps 0.1 --T 0.05 --start inf"),
    ]],
    # Text that does not convert to a number; bad.csv has a non-numeric cell.
    *[row(f"test_malformed_number_text_is_a_validation_error[{name}]", argv, 1, env=env,
          files={"bad.csv": "0.0,1.0\n0.5,abc\n"}) for name, argv, env in [
        ("stable-start", f"{STABLE} --start abc", {}),
        ("rwre-env", f"{RWRE} --env iid:abc --eps 0.1", {}),
        ("potential-file-cell", f"{ZERO_POTENTIAL} --potential bad.csv --eps 0.1", {}),
        ("seed-env", SEED, {"LEVYLAB_SEED": "x"}),
    ]],
    # Numbers that convert but are out of range, paths that are directories
    # and a config that is not UTF-8.
    *[row(f"test_out_of_range_input_is_a_validation_error[{name}]", argv, 1,
          files=OUT_OF_RANGE_FILES) for name, argv in [
        ("stable-T-nan", f"{STABLE} --T nan"),
        ("stable-n-nan", f"{STABLE} --n nan"),
        ("stable-n-huge", f"{STABLE} --n 1e300"),
        ("stable-escape-nan", f"{STABLE} --escape-radius nan"),
        ("stable-grid-zero", f"{STABLE} --grid-points 0"),
        ("stable-grid-negative", f"{STABLE} --grid-points -1"),
        ("euler-eps-tiny", f"{EULER_STABLE} --eps 1e-300"),
        ("euler-eps-nan", f"{EULER_STABLE} --eps nan"),
        ("euler-tau-nan", f"{EULER_STABLE} --tau nan"),
        ("euler-config-directory", f"{EULER_STABLE} --triplet-config adir"),
        ("euler-config-not-utf8", f"{EULER_STABLE} --triplet-config latin1.json"),
        ("potential-eps-tiny", f"{ZERO_POTENTIAL} --eps 1e-200"),
        ("potential-eps-nan", f"{ZERO_POTENTIAL} --eps nan"),
        ("potential-T-inf", f"{ZERO_POTENTIAL} --eps 0.1 --T inf"),
        ("rwre-eps-tiny", f"{RWRE} --env iid:1 --eps 1e-200"),
        ("rwre-eps-negative", f"{RWRE} --env iid:1 --eps -0.1"),
        ("rwre-q-nan", f"{RWRE} --env bernoulli:nan:1 --eps 0.1"),
        ("rwre-rate-nan", f"{RWRE} --env bernoulli:1:nan --eps 0.1"),
        ("rwre-sigma-zero", f"{RWRE} --env iid:0 --eps 0.1"),
        ("rwre-sigma-nan", f"{RWRE} --env iid:nan --eps 0.1"),
        ("rwre-sigma-huge", f"{RWRE} --env iid:1e200 --eps 0.1"),
        ("clock-t-nan", "diagnose-clock --eps 0.1 --t nan --threshold 0.5 --out out.csv"),
        ("operator-config-directory", "diagnose-operator --config adir --out out.csv"),
        ("paths-directory", "diagnose-paths adir --out out.csv"),
    ]],
    # rng streams key on the seed modulo 2^64, so -1 would alias 2^64 - 1
    *[row(f"test_seed_outside_key_range_is_a_validation_error[{flag}-{env}]",
          SEED + (f" --seed {flag}" if flag else ""), 1, "validation error: seed",
          env={"LEVYLAB_SEED": env} if env else {})
      for flag, env in [("-1", None), (str(2 ** 64), None), (None, "-1"), (None, str(2 ** 64))]],
    # a long expression is quoted by a prefix only
    *[row(f"test_hostile_expression_is_a_validation_error[{name}]",
          ["simulate-stable", f"--alpha-expr={text}", *shlex.split(STABLE)[1:]], 1)
      for name, text in [("nested-parentheses", "(" * 3000 + "1" + ")" * 3000),
                         ("unary-minus", "-" * 5000 + "1"),
                         ("long-sum", "+".join(["1"] * 20000))]],
    row("start-with-three-coordinates-in-2d", f"{STABLE} --dim 2 --start 1,2,3", 1,
        "start point has 3 coordinates, expected 2"),
    row("exp-with-two-arguments", f'{STABLE} --alpha-expr "exp(x1, 2)"', 1,
        "exp takes exactly one argument"),
    row("negative-scale-expression", f"{STABLE} --c-expr -1", 1,
        "the scale function must be finite and nonnegative"),
    row("zero-threads", f"{STABLE} --threads 0", 1, "threads must be >= 1"),
    row("unknown-environment", f"{RWRE} --env levy:1 --eps 0.1", 1, "unknown environment spec"),
    row("zero-environments", f"{RWRE} --env iid:1 --eps 0.1 --envs 0", 1,
        "need at least one environment"),

    # JSON configs
    *[row(f"test_malformed_json_config_is_a_validation_error[{name}]", argv, 1,
          "validation error: malformed config cfg.json", files=cfg(document))
      for name, argv, document in [
        ("stable-field-without-alpha", EULER_ON_CONFIG,
         {"kind": "stable-field", "dim": 1, "c_expr": "1"}),
        ("non-numeric-drift", EULER_ON_CONFIG, {"drift": "abc"}),
        ("stable-nu-without-c", EULER_ON_CONFIG, {"nu": {"kind": "stable", "alpha": 1.5}}),
        ("not-an-object", EULER_ON_CONFIG, [1, 2]),
        ("operator-without-fields", OPERATOR_ON_CONFIG,
         {k: v for k, v in OPERATOR_CONFIG.items() if k != "fields"}),
    ]],
    # Keys no reader uses, at each level of a config, and a stable field spelt
    # as diagnose-operator spells it: each used to run as a different model.
    *[row(f"test_unknown_config_key_is_a_validation_error[{name}]", argv, 1, named,
          files=cfg(document)) for name, argv, document, named in [
        ("stable-kind", EULER_ON_CONFIG,
         {"kind": "stable", "c_expr": "1", "alpha_expr": "1.5", "dim": 1}, "'stable'"),
        ("triplet", EULER_ON_CONFIG, {"drift": [0.1], "gama": [[1.0]]}, "'gama' in triplet"),
        ("nu", EULER_ON_CONFIG, {"nu": {"kind": "stable", "c": 1.0, "alpha": 1.5,
                                        "min_radus": 0.1}}, "'min_radus' in jump measure"),
        ("nu-without-kind", EULER_ON_CONFIG, {"nu": {"c": 1.0, "alpha": 1.5}}, "'alpha' in jump"),
        ("atom-entry", EULER_ON_CONFIG,
         {"nu": {**ATOMS_NU, "atoms": [{"point": [0.4], "mas": 1.5}]}}, "'mas' in atom entry 0"),
        ("operator-triplet", OPERATOR_ON_CONFIG,
         {**OPERATOR_CONFIG, "fields": [{"kind": "constant", "triplet": {
             "drift": [0.0], "nu": {**ATOMS_NU, "delta": 0.1}}}]}, "'delta' in jump measure"),
        ("stable-field", EULER_ON_CONFIG, {"kind": "stable-field", "dim": 1, "c_expr": "1",
                                           "alpha_expr": "1.5", "min_radius": 0.1},
         "'min_radius' in stable field"),
        ("operator-document", OPERATOR_ON_CONFIG, {**OPERATOR_CONFIG, "grid_point": 2},
         "'grid_point' in operator config"),
        ("operator-box", OPERATOR_ON_CONFIG,
         {**OPERATOR_CONFIG, "box": {"low": [-1.0], "high": [1.0], "mid": [0.0]}}, "'mid' in box"),
        ("operator-stable-field", OPERATOR_ON_CONFIG,
         {**OPERATOR_CONFIG, "fields": [{**OPERATOR_CONFIG["limit"], "min_radius": 0.1}]},
         "'min_radius' in stable field"),
        ("operator-constant-field", OPERATOR_ON_CONFIG,
         {**OPERATOR_CONFIG, "fields": [{"kind": "constant", "triplet": {"drift": [0.0]},
                                         "drift": [0.1]}]}, "'drift' in constant field"),
    ]],
    *[row(name, EULER_ON_CONFIG, 1, named, files=cfg({"nu": nu})) for name, nu, named in [
        ("atom-with-zero-mass", {"kind": "atoms", "atoms": [{"point": [0.4], "mass": 0}]},
         "atom masses must be positive"),
        ("negative-cemetery-mass", {**ATOMS_NU, "delta_mass": -0.5},
         "cemetery mass must be nonnegative"),
        ("atoms-of-mixed-dimension", {"kind": "atoms", "atoms": [
            {"point": [0.4], "mass": 1.0}, {"point": [0.4, 0.1], "mass": 1.0}]},
         "all atom locations must share one dimension"),
        ("atom-at-an-unknown-point", {"kind": "atoms", "atoms": [{"point": "foo", "mass": 1.0}]},
         "unknown atom location 'foo'"),
        ("stable-nu-with-negative-scale", {"kind": "stable", "c": -1.0, "alpha": 1.5},
         "scale c must be nonnegative"),
        ("stable-nu-with-negative-min-radius",
         {"kind": "stable", "c": 1.0, "alpha": 1.5, "min_radius": -0.1},
         "min_radius must be nonnegative"),
    ]],
    # Operator configs that used to run with silent gap values (NaN margin or
    # box), end in a traceback (short labels), label fields by characters, run
    # a fractional grid size, or misreport a reversed box.
    *[row(f"test_hostile_operator_config_is_a_validation_error[{name}]", OPERATOR_ON_CONFIG,
          1, named, files=cfg({**OPERATOR_CONFIG, **change})) for name, change, named in [
        ("nan-margin", {"margin": math.nan}, "margin must be positive"),
        ("nan-low", {"box": {"low": [math.nan], "high": [1.0]}}, "the box must be finite"),
        ("reversed-box", {"box": {"low": [1.0], "high": [-1.0]}}, "with low < high"),
        ("short-labels", {"fields": [OPERATOR_CONFIG["fields"][0]] * 2, "labels": ["a"]},
         "labels must be a list of 2 strings"),
        ("string-labels", {"fields": [OPERATOR_CONFIG["fields"][0]] * 2, "labels": "ab"},
         "labels must be a list of 2 strings"),
        ("fractional-grid", {"grid_points": 2.7}, "grid_points must be an integer"),
        ("jump-margin", {"jump_margin": 0.25}, "'jump_margin' in operator config"),
    ]],
    row("test_unknown_field_kind_is_a_validation_error", OPERATOR_ON_CONFIG, 1,
        "unknown field kind 'brownian'", files=cfg({**OPERATOR_CONFIG,
                                                     "fields": [{"kind": "brownian"}]})),
    row("unknown-compensation-function", OPERATOR_ON_CONFIG, 1,
        "unknown compensation function 'chi3'", files=cfg({**OPERATOR_CONFIG, "chi": "chi3"})),

    # path CSVs
    *[row(f"test_hostile_path_csv_is_a_validation_error[{name}]", DIAGNOSE_BAD, 1,
          files={"bad.csv": text}) for name, text in [
        ("ragged", path_csv("0,0.0,1.0,1", "0,1.0,2.0,1", "1,0.0,1.0,1")),
        ("non_numeric", path_csv("0,0.0,abc,1", "0,1.0,2.0,1")),
        ("column_count", "path_id,t,x1,x2,alive\n0,0.0,1.0,1\n0,1.0,2.0,1\n"),
        ("fractional_id", path_csv("0,0.0,1.0,1", "0.5,0.0,2.0,1")),
        ("short_row", path_csv("0,0.0,1.0,1", "0,1.0,2.0")),
        ("grid_mismatch", path_csv("0,0.0,1.0,1", "0,1.0,2.0,1", "1,0.0,1.0,1", "1,0.5,2.0,1")),
        # a t column that is not finite and strictly increasing
        ("unsorted_times", UNSORTED_TIMES),
        ("duplicate_times", path_csv("0,0.0,1.0,1", "0,0.5,2.0,1", "0,0.5,3.0,1")),
        ("nan_time", path_csv("0,0.0,1.0,1", "0,nan,2.0,1", "0,1.0,3.0,1")),
        ("inf_time", path_csv("0,0.0,1.0,1", "0,inf,2.0,1")),
    ]],
    row("path-csv-with-a-wrong-header", DIAGNOSE_BAD, 1, "does not look like a path CSV",
        files={"bad.csv": "id,t,x1,alive\n0,0.0,1.0,1\n"}),
    row("test_refused_time_column_names_its_file", "diagnose-paths good.csv bad.csv --out d.json",
        1, "validation error: bad.csv: the times must be finite and strictly increasing",
        files={"good.csv": TWO_POINTS, "bad.csv": UNSORTED_TIMES}),
    row("test_header_only_path_csv_holds_no_paths", "diagnose-paths empty.csv --out d.json", 1,
        "holds no paths", files={"empty.csv": path_csv()}),
    # Such a time used to be read as the last grid time, and written into the
    # report as NaN or Infinity, which strict JSON has no words for.
    *[row(f"test_diagnose_paths_at_a_non_finite_time[{t}]",
          f"diagnose-paths ok.csv --t {t} --out d.json", 1, "validation error: the marginal time",
          files={"ok.csv": TWO_POINTS}) for t in ("nan", "inf")],
]
BY_NAME = {case.name: case for case in CASES}
assert len(BY_NAME) == len(CASES), "row names must be unique"


def run_console(launcher):
    """Run every row through the launcher; return the number of rows that fail."""
    failed = 0
    env = {**os.environ, "PYTHONWARNINGS": "error"}
    if "PYTHONPATH" in env:  # rows run in their own directories: make PYTHONPATH=src absolute
        env["PYTHONPATH"] = os.pathsep.join(map(os.path.abspath,
                                                env["PYTHONPATH"].split(os.pathsep)))
    for case in CASES:
        with tempfile.TemporaryDirectory() as directory:
            before = setup(case, directory)
            started = time.monotonic()
            try:
                done = subprocess.run([*launcher, *case.argv], cwd=directory,
                                      env={**env, **case.env}, capture_output=True, text=True,
                                      timeout=case.limit)
                why = verdict(case, directory, before, done.returncode, done.stdout, done.stderr)
            except subprocess.TimeoutExpired:
                why = f"still running after {case.limit:g} s"
            failed += bool(why)
            print(f"{'FAIL' if why else 'ok  '} {time.monotonic() - started:5.1f} s  "
                  f"{case.name}{': ' + why if why else ''}", flush=True)
    print(f"{len(CASES)} rows, {failed} failed")
    return failed


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python tests/cli_cases.py LAUNCHER [ARG ...]")
    sys.exit(1 if run_console(sys.argv[1:]) else 0)
