import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from levylab import cli, embedding, environment, euler, potential
from levylab.cli import build_parser, paths_to_csv, read_paths_csv, run
from levylab.core import PathBatch
from levylab.errors import LevylabError

import cli_cases
from cli_cases import OPERATOR_CONFIG


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def pytest_generate_tests(metafunc):
    test = metafunc.definition.name
    if test == "test_cli_case":
        rows = {c.name: c for c in cli_cases.CASES if not c.name.startswith("test_")}
    else:
        rows = {c.name[len(test) + 1:-1]: c for c in cli_cases.CASES
                if c.name.startswith(test + "[")}
    if rows:
        metafunc.parametrize("case", list(rows.values()), ids=list(rows))


@pytest.fixture
def case(request):
    """The row named as a test that runs one row."""
    return cli_cases.BY_NAME[request.node.name]


@pytest.mark.filterwarnings("error")
def test_cli_case(case, workdir, capsys, monkeypatch):
    """One row of tests/cli_cases.py through cli.run, held to that module's contract."""
    before = cli_cases.setup(case, workdir)
    for key, value in case.env.items():
        monkeypatch.setenv(key, value)
    code = run(case.argv)
    out, err = capsys.readouterr()
    why = cli_cases.verdict(case, workdir, before, code, out, err)
    assert not why, why


# Rows folded from former per-case tests keep those tests' ids.
for _test in {c.name.partition("[")[0] for c in cli_cases.CASES if c.name.startswith("test_")}:
    globals()[_test] = test_cli_case


def run_ok(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0, f"command failed: {argv}"
    return json.loads(out[-1])


TRIPLET = {"drift": [0.0], "gamma": [[1.0]],
           "nu": {"kind": "atoms", "atoms": [{"point": [2.0], "mass": 0.5}]}}


def all_commands(tmp):
    with open("triplet.json", "w") as fh:
        json.dump(TRIPLET, fh)
    with open("operator.json", "w") as fh:
        json.dump(OPERATOR_CONFIG, fh)
    return [
        (["simulate-stable", "--c-expr", "1", "--alpha-expr", "1.2", "--n", "50",
          "--T", "0.2", "--paths", "40", "--seed", "5", "--grid-points", "5",
          "--out", "stable.csv"], ["stable.csv"]),
        (["simulate-euler", "--triplet-config", "triplet.json", "--chi", "chi2",
          "--eps", "0.05", "--T", "0.2", "--paths", "40", "--seed", "5",
          "--grid-points", "5", "--out", "euler.csv"], ["euler.csv"]),
        (["simulate-potential", "--potential", "zero", "--eps", "0.05", "--T", "0.2",
          "--paths", "40", "--seed", "5", "--grid-points", "5",
          "--out", "pot.csv"], ["pot.csv"]),
        (["simulate-rwre", "--env", "bernoulli:1:1", "--eps", "0.1", "--T", "0.2",
          "--envs", "2", "--paths", "30", "--seed", "5", "--grid-points", "3",
          "--out", "walks.csv"],
         ["walks_env000.csv", "walks_env001.csv", "walks_summary.json"]),
        (["diagnose-operator", "--config", "operator.json", "--out", "op.json"],
         ["op.json"]),
        (["diagnose-clock", "--eps", "0.02", "--t", "0.5", "--threshold", "0.4",
          "--trials", "400", "--seed", "5", "--out", "clock.json"], ["clock.json"]),
        (["diagnose-paths", "pot.csv", "euler.csv", "--t", "0.2",
          "--out", "paths.json"], ["paths.json"]),
    ]


def test_every_subcommand_is_byte_deterministic(workdir, capsys):
    for argv, outputs in all_commands(workdir):
        manifest = run_ok(argv, capsys)
        assert manifest["outputs"] == outputs
        first = {o: Path(o).read_bytes() for o in outputs}
        run_ok(argv, capsys)
        for o in outputs:
            assert Path(o).read_bytes() == first[o], f"{o} changed between runs"


def test_every_package_error_has_one_exit_code():
    subclasses, todo = [], [LevylabError]
    while todo:
        found = todo.pop().__subclasses__()
        subclasses += found
        todo += found
    assert len(subclasses) >= 9
    for cls in subclasses:
        caught = [issubclass(cls, cli._VALIDATION_ERRORS), issubclass(cls, cli._NUMERIC_ERRORS)]
        assert caught.count(True) == 1, cls.__name__


OVERSIZED_RUNS = {
    # 2 * 10^8 + 3 walk sites, refused by the walk's own cap
    "rwre-window": (None, ["simulate-rwre", "--env", "iid:1", "--eps", "1e-4", "--T", "1000",
                           "--paths", "1", "--out", "out.csv"]),
    # 2 * (100 + 8) + 1 = 217 sites against a cap of 100
    "zero-potential-window": ((environment, "MAX_WINDOW_SITES", 100),
                              ["simulate-potential", "--potential", "zero", "--eps", "0.1",
                               "--T", "1", "--paths", "1", "--out", "out.csv"]),
    # 100 clock knots against a chunk of 50 elements
    "clock-knots": ((embedding, "MAX_CHUNK_ELEMENTS", 50),
                    ["diagnose-clock", "--eps", "0.01", "--t", "1", "--threshold", "0.5",
                     "--trials", "1", "--out", "out.json"]),
    # paths x grid points x dimension above MAX_OUTPUT_ELEMENTS
    "output-paths": (None, ["simulate-stable", "--n", "10", "--T", "1", "--paths",
                            "100000000000", "--grid-points", "2", "--out", "out.csv"]),
    "output-grid-points": (None, ["simulate-stable", "--n", "10", "--T", "1",
                                  "--grid-points", "1000000000000", "--out", "out.csv"]),
    "output-dim": (None, ["simulate-stable", "--n", "10", "--T", "1", "--dim", "1000000000",
                          "--out", "out.csv"]),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED_RUNS))
def test_oversized_run_is_refused_before_allocating(workdir, capsys, monkeypatch, case):
    cap, argv = OVERSIZED_RUNS[case]
    if cap is not None:
        monkeypatch.setattr(*cap)
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("validation error:")
    assert not [f for f in os.listdir() if f.startswith("out")]


@pytest.mark.parametrize("argv, dim", [
    (["simulate-stable", "--n", "10", "--T", "1", "--dim", "2"], 2),
    (["simulate-euler", "--triplet-config", "t.json", "--eps", "0.05", "--T", "0.2"], 2),
    (["simulate-potential", "--potential", "zero", "--eps", "0.1", "--T", "0.2"], 1),
    (["simulate-rwre", "--env", "iid:1", "--eps", "0.25", "--T", "0.2"], 1),
], ids=["stable", "euler", "potential", "rwre"])
def test_output_cap_counts_paths_grid_points_and_dimension(workdir, capsys, monkeypatch,
                                                           argv, dim):
    # The cap holds 5 paths x 3 grid points x dim: one more grid point is refused.
    Path("t.json").write_text(json.dumps({"drift": [0.0, 0.0],
                                          "gamma": [[1.0, 0.0], [0.0, 1.0]]}))
    monkeypatch.setattr(cli, "MAX_OUTPUT_ELEMENTS", 5 * 3 * dim)
    assert run([*argv, "--paths", "5", "--grid-points", "4", "--out", "out.csv"]) == 1
    assert capsys.readouterr().err.startswith("validation error:")
    assert not [f for f in os.listdir() if f.startswith("out")]
    run_ok([*argv, "--paths", "5", "--grid-points", "3", "--out", "out.csv"], capsys)


def test_seed_env_fallback(workdir, capsys, monkeypatch):
    argv = ["simulate-potential", "--potential", "zero", "--eps", "0.1", "--T", "0.1",
            "--paths", "10", "--grid-points", "3", "--out", "a.csv"]
    monkeypatch.setenv("LEVYLAB_SEED", "99")
    m1 = run_ok(argv, capsys)
    assert m1["seed"] == 99
    monkeypatch.delenv("LEVYLAB_SEED")
    m2 = run_ok(argv[:-1] + ["b.csv", "--seed", "99"], capsys)
    assert Path("a.csv").read_bytes() == Path("b.csv").read_bytes()


def test_csv_round_trip(workdir, capsys):
    run_ok(["simulate-stable", "--c-expr", "1", "--alpha-expr", "0.7", "--n", "30",
            "--T", "0.3", "--paths", "25", "--seed", "8", "--grid-points", "4",
            "--escape-radius", "50", "--out", "s.csv"], capsys)
    batch = read_paths_csv("s.csv")
    assert len(batch) == 25
    assert batch.times.size == 4
    # writing the parsed batch again reproduces the file
    assert paths_to_csv(batch) == Path("s.csv").read_text()


def test_manifest_contents(workdir, capsys):
    m = run_ok(["simulate-potential", "--potential", "zero", "--eps", "0.1",
                "--T", "0.1", "--paths", "5", "--seed", "3", "--grid-points", "3",
                "--out", "m.csv"], capsys)
    assert m["subcommand"] == "simulate-potential"
    assert m["seed"] == 3
    assert "config_sha256" in m and len(m["config_sha256"]) == 64
    assert set(m["versions"]) == {"levylab", "numpy", "python"}
    assert m["wall_time_s"] >= 0


def test_rwre_summary_structure(workdir, capsys):
    run_ok(["simulate-rwre", "--env", "iid:1", "--eps", "0.1", "--T", "0.1",
            "--envs", "2", "--paths", "10", "--seed", "4", "--grid-points", "3",
            "--out", "w.csv"], capsys)
    summary = json.loads(Path("w_summary.json").read_text())
    assert summary["environments"] == 2
    assert len(summary["files"]) == 2
    for entry in summary["files"]:
        assert os.path.exists(entry["file"])
        assert "exploded_fraction" in entry


def test_no_temp_files_left(workdir, capsys):
    run_ok(["simulate-potential", "--potential", "zero", "--eps", "0.1", "--T", "0.1",
            "--paths", "5", "--seed", "1", "--grid-points", "3",
            "--out", "t.csv"], capsys)
    leftovers = [f for f in os.listdir(".") if f.startswith(".levylab-")]
    assert leftovers == []


def test_failed_rename_leaves_no_file(workdir, capsys, monkeypatch):
    # the temp file is removed when the rename onto the output fails
    def refuse(src, dst):
        raise OSError(f"cannot rename {src} to {dst}")

    monkeypatch.setattr(cli.os, "replace", refuse)
    assert run(["simulate-potential", "--potential", "zero", "--eps", "0.1", "--T", "0.1",
                "--paths", "5", "--seed", "1", "--grid-points", "3", "--out", "t.csv"]) == 1
    assert capsys.readouterr().err.startswith("validation error:")
    assert os.listdir(".") == []


def test_potential_file_inputs(workdir, capsys):
    # grid potential file (knot,value)
    knots = np.linspace(-6, 6, 25)
    np.savetxt("grid.csv", np.stack([knots, 0.2 * np.sin(knots)], axis=1),
               delimiter=",")
    run_ok(["simulate-potential", "--potential", "grid.csv", "--eps", "0.05",
            "--T", "0.05", "--paths", "10", "--seed", "2", "--grid-points", "3",
            "--out", "g.csv"], capsys)
    # lattice potential file (k, q_k) with --mesh
    ks = np.arange(-40, 41)
    np.savetxt("lat.csv", np.stack([ks, 0.1 * np.ones_like(ks)], axis=1),
               delimiter=",")
    run_ok(["simulate-potential", "--potential", "lat.csv", "--mesh", "0.05",
            "--eps", "0.05", "--T", "0.05", "--paths", "10", "--seed", "2",
            "--grid-points", "3", "--out", "l.csv"], capsys)
    # expression potential
    run_ok(["simulate-potential", "--potential", "0.1*x1", "--eps", "0.05",
            "--T", "0.01", "--paths", "4", "--seed", "2", "--grid-points", "2",
            "--out", "e.csv"], capsys)


def test_expression_potential_run_is_fast(workdir, capsys):
    # The same run as in test_potential_file_inputs; it walks Chebyshev cells.
    t0 = time.perf_counter()
    run_ok(["simulate-potential", "--potential", "0.1*x1", "--eps", "0.05",
            "--T", "0.01", "--paths", "4", "--seed", "2", "--grid-points", "2",
            "--out", "e.csv"], capsys)
    assert time.perf_counter() - t0 < 1.0


def test_potential_finer_than_the_cell_walk_budget(workdir, capsys, monkeypatch):
    # steps of about 0.2 cross about 20 grid cells of width 0.01, far from the edges
    monkeypatch.setattr(potential, "MAX_WALK_CELLS", 8)
    knots = np.linspace(-2.0, 2.0, 401)
    np.savetxt("fine.csv", np.stack([knots, knots / 10], axis=1), delimiter=",")
    code = run(["simulate-potential", "--potential", "fine.csv", "--eps", "0.2",
                "--T", "0.08", "--paths", "5", "--seed", "1", "--out", "fine_out.csv"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("validation error: a cell walk spans more than 8 cells")
    assert "left the potential window" not in err
    assert not os.path.exists("fine_out.csv")


def test_euler_stable_field_config(workdir, capsys):
    with open("sf.json", "w") as fh:
        json.dump({"kind": "stable-field", "dim": 1, "c_expr": "1",
                   "alpha_expr": "1.2 + 0.2*exp(-x1*x1)"}, fh)
    m = run_ok(["simulate-euler", "--triplet-config", "sf.json", "--eps", "0.02",
                "--tau", "0.001", "--T", "0.1", "--paths", "20", "--seed", "6",
                "--grid-points", "3", "--out", "sf.csv"], capsys)
    batch = read_paths_csv("sf.csv")
    assert len(batch) == 20


def test_parser_help_lists_subcommands():
    parser = build_parser()
    names = {"simulate-stable", "simulate-euler", "simulate-potential",
             "simulate-rwre", "diagnose-operator", "diagnose-clock",
             "diagnose-paths"}
    # the usage error path prints these; the parser must know them all
    sub = parser._subparsers._group_actions[0]
    assert names <= set(sub.choices)


# sha256 of CLI outputs recorded with the row-by-row writer and the
# per-scheme block loops; any writer or chain driver must reproduce them byte
# for byte.  The last three pin the Euler stable-field fast path, the generic
# psi solver on a grid potential, and a lattice file whose edge absorbs.
GOLDEN_OUTPUTS = {
    "simulate-stable": (
        ["simulate-stable", "--dim", "2", "--alpha-expr", "1.2", "--n", "50", "--T", "0.5",
         "--paths", "30", "--seed", "11", "--grid-points", "6", "--escape-radius", "1.5",
         "--out", "stable2d.csv"],
        {"stable2d.csv": "d99efece1d8c126468883fa965b1030af7b5d9adeda4c16ffe0e63a9776c6a4d"}),
    "simulate-euler": (
        ["simulate-euler", "--triplet-config", "triplet.json", "--eps", "0.05", "--T", "0.2",
         "--paths", "20", "--seed", "11", "--grid-points", "5", "--out", "euler.csv"],
        {"euler.csv": "3cc527c46365bf0bcff211c584a6cd7cce9c3370b8899cad38252c1db76b3c48"}),
    "simulate-potential": (
        ["simulate-potential", "--potential", "zero", "--eps", "0.1", "--T", "0.3",
         "--paths", "20", "--seed", "11", "--grid-points", "4", "--out", "pot.csv"],
        {"pot.csv": "7efee7324d1f74607d7bcddfcfd51bcc7b34e3e4bd1ccccbd689963866248a4c"}),
    "simulate-rwre": (
        ["simulate-rwre", "--env", "bernoulli:1:1", "--eps", "0.1", "--T", "0.2", "--envs", "2",
         "--paths", "15", "--seed", "11", "--grid-points", "3", "--out", "walks.csv"],
        {"walks_env000.csv": "bf9707c971e2490c031537829264e34355f4119c1976f93d57ac353f06ec4c9f",
         "walks_env001.csv": "8a2f0db500472a5d36aed263081716ce93957bde355c246dcb014d7c31fd5ed9"}),
    "simulate-euler-stable-field": (
        ["simulate-euler", "--triplet-config", "sf.json", "--eps", "0.02", "--tau", "0.001",
         "--T", "0.1", "--paths", "20", "--seed", "11", "--grid-points", "4",
         "--escape-radius", "0.5", "--out", "sfe.csv"],
        {"sfe.csv": "93cbc6ec70d12e4884f4dde676f021b28d623454de9b381fa69b6765442f850c"}),
    "simulate-potential-grid": (
        ["simulate-potential", "--potential", "vgrid.csv", "--eps", "0.2", "--T", "0.4",
         "--paths", "20", "--seed", "11", "--grid-points", "4", "--out", "grid.csv"],
        {"grid.csv": "28cdc79529b25e9dbc5618775c8890c743b4677ab0a06679f6fd3849f9c1ec59"}),
    "simulate-potential-lattice-file": (
        ["simulate-potential", "--potential", "lat.csv", "--mesh", "0.125", "--eps", "0.125",
         "--T", "0.5", "--paths", "200", "--seed", "11", "--grid-points", "5",
         "--out", "lat125.csv"],
        {"lat125.csv": "bb346896d59368d732a521403fe5b85330eb796a040d5354cbbfb6c193c4574b"}),
}


def write_golden_inputs():
    with open("triplet.json", "w") as fh:
        json.dump(TRIPLET, fh)
    with open("sf.json", "w") as fh:
        json.dump({"kind": "stable-field", "dim": 1, "c_expr": "1",
                   "alpha_expr": "1.2 + 0.2*exp(-x1*x1)"}, fh)
    knots = np.linspace(-3, 3, 13)
    np.savetxt("vgrid.csv", np.stack([knots, 0.5 * knots], axis=1), delimiter=",")
    write_zero_lattice_file("lat.csv")


def write_zero_lattice_file(name):
    """Increments q_k = 0 for k = -20..20: the potential window is 41 cells wide."""
    ks = np.arange(-20, 21)
    np.savetxt(name, np.stack([ks, np.zeros_like(ks)], axis=1), delimiter=",")


@pytest.mark.parametrize("case", list(GOLDEN_OUTPUTS))
def test_golden_output_bytes(workdir, capsys, case):
    argv, digests = GOLDEN_OUTPUTS[case]
    write_golden_inputs()
    run_ok(argv, capsys)
    for name, digest in digests.items():
        assert hashlib.sha256(Path(name).read_bytes()).hexdigest() == digest, name
    if argv[0] == "simulate-stable":
        assert ",nan,nan,0\n" in Path("stable2d.csv").read_text()


@pytest.mark.parametrize("chunk", [1, 3, 7, 150])
def test_golden_euler_stable_field_in_small_chunks(workdir, capsys, monkeypatch, chunk):
    # The stable-fast step draws its jumps a range of paths at a time.
    monkeypatch.setattr(euler, "_JUMP_CHUNK", chunk)
    test_golden_output_bytes(workdir, capsys, "simulate-euler-stable-field")


@pytest.mark.parametrize("mesh", ["0.1", "0.05"])
def test_lattice_file_walks_absorb_at_the_window_edge(workdir, capsys, mesh):
    # Edge sites of this window used to fail the lattice check with
    # "phi walk left the potential window".  Sites -19 and 19 absorb.
    write_zero_lattice_file("lat.csv")
    steps = round(0.5 / float(mesh) ** 2)
    run_ok(["simulate-potential", "--potential", "lat.csv", "--mesh", mesh, "--eps", mesh,
            "--T", "0.5", "--paths", "400", "--seed", "3", "--grid-points", str(steps + 1),
            "--out", "edge.csv"], capsys)
    batch = read_paths_csv("edge.csv")
    edge = 19 * float(mesh)
    assert np.nanmax(np.abs(batch.states)) <= edge * (1 + 1e-12)
    reached = np.any(np.abs(batch.states[:, :, 0]) >= edge * (1 - 1e-12), axis=1)
    assert np.isfinite(batch.xi).any()
    assert np.all(np.isfinite(batch.xi[reached]))


def test_absorbed_rows_are_never_marked_alive(workdir, capsys):
    # Paths absorbed at step 35 used to get xi = 35 * 0.01, which rounds
    # above the grid time 0.35 that shows their absorbing site, so that row
    # was written with alive=1.
    write_zero_lattice_file("lat.csv")
    run_ok(["simulate-potential", "--potential", "lat.csv", "--mesh", "0.1", "--eps", "0.1",
            "--T", "0.5", "--paths", "400", "--seed", "3", "--grid-points", "11",
            "--out", "edge.csv"], capsys)
    rows = np.loadtxt("edge.csv", delimiter=",", skiprows=1)
    alive = rows[:, 3] == 1
    assert np.all(np.isfinite(rows[alive, 2]))
    assert np.max(np.abs(rows[alive, 2])) <= 1.8 * (1 + 1e-12)
    assert np.all(np.isnan(rows[~alive, 2]))


def test_lattice_file_window_right_of_the_origin(workdir, capsys):
    # A --mesh lattice file listing k = 5..40 walks on sites 6..39.
    ks = np.arange(5, 41)
    np.savetxt("lat.csv", np.stack([ks, 0.3 * np.sin(ks)], axis=1), delimiter=",")
    run_ok(["simulate-potential", "--potential", "lat.csv", "--mesh", "0.05", "--eps", "0.05",
            "--T", "0.05", "--start", "1.0", "--paths", "40", "--seed", "2",
            "--grid-points", "5", "--out", "l.csv"], capsys)
    batch = read_paths_csv("l.csv")
    alive = batch.times[None, :] < batch.xi[:, None]
    assert np.all(np.isfinite(batch.states[alive]))
    assert np.all(np.abs(batch.states[alive] - 1.0) <= 20 * 0.05 * (1 + 1e-12))


def _strict_json(name):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    with open(name) as fh:
        return json.load(fh, parse_constant=refuse)


@pytest.mark.filterwarnings("error")
def test_empty_marginal_is_reported_as_null(workdir, capsys):
    write_text("dead.csv", "path_id,t,x1,alive\n0,0.0,1.0,1\n0,1.0,nan,0\n"
                           "1,0.0,2.0,1\n1,1.0,nan,0\n")
    run_ok(["diagnose-paths", "dead.csv", "--t", "1.0", "--out", "d.json"], capsys)
    summary, = _strict_json("d.json")["marginal_summary"]
    assert summary == {"file": "dead.csv", "count": 0, "mean": None, "std": None}


# A constant field carrying atoms and cemetery mass: its atom points are jump
# vectors, as in simulate-euler. sha256 recorded with the jump-vector field
# that diagnose-operator used before ConstantTripletField took its semantics.
ATOMS_OPERATOR_CONFIG = {
    "limit": {"kind": "constant", "triplet": {
        "drift": [0.1], "gamma": [[0.3]],
        "nu": {"kind": "atoms", "atoms": [{"point": [0.4], "mass": 1.5},
                                          {"point": [-0.7], "mass": 0.5},
                                          {"point": "DELTA", "mass": 0.25}]}}},
    "fields": [{"kind": "constant", "triplet": {
        "drift": [0.12], "gamma": [[0.3]],
        "nu": {"kind": "atoms", "atoms": [{"point": [0.45], "mass": 1.4},
                                          {"point": [-0.7], "mass": 0.5}],
               "delta_mass": 0.2}}}],
    "chi": "chi1",
    "box": {"low": [-1.0], "high": [1.0]},
    "grid_points": 3,
}


def test_operator_report_on_a_constant_atoms_field(workdir, capsys):
    with open("op.json", "w") as fh:
        json.dump(ATOMS_OPERATOR_CONFIG, fh)
    run_ok(["diagnose-operator", "--config", "op.json", "--out", "report.json"], capsys)
    assert hashlib.sha256(Path("report.json").read_bytes()).hexdigest() == \
        "db902a22a79335b4fb1e794e62e119261e942c24738f7b21aa0e29fc3161243f"


def test_importing_levylab_leaves_scipy_unloaded():
    # scipy.special, .integrate, .optimize and .stats take most of a CLI
    # process's start-up (import levylab.cli: 0.90 s with them, 0.29 s without,
    # medians of 7 on a 2-vCPU Intel Xeon). Quadrature, sphere_surface_area, the
    # maximum search and the KS and W1 helpers import them on first use.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys\n"
             "def loaded(): return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
             "import levylab\n"
             "print(loaded())\n"
             "import levylab.cli as cli\n"
             "assert callable(cli.ks_distance) and callable(cli.wasserstein1)\n"
             "print(loaded())\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["[]", "[]"]


def write_text(name, text):
    with open(name, "w") as fh:
        fh.write(text)


def test_reader_groups_rows_by_path_id(workdir):
    write_text("p.csv", "path_id,t,x1,alive\n3,0.0,1.5,1\n0,0.0,0.5,1\n"
                        "3,1.0,nan,0\n0,1.0,-2.0,1\n")
    batch = read_paths_csv("p.csv")
    assert batch.times.tolist() == [0.0, 1.0]
    assert batch.states[:, 0, 0].tolist() == [0.5, 1.5]
    assert batch.xi.tolist() == [math.inf, 1.0]


def row_loop_paths_to_csv(batch):
    """The original one-row-at-a-time writer, kept as the oracle."""
    d = batch.dim
    header = "path_id,t," + ",".join(f"x{i + 1}" for i in range(d)) + ",alive"
    lines = [header]
    times = batch.times
    for pid in range(len(batch)):
        alive_row = times < batch.xi[pid]
        for j, t in enumerate(times):
            if alive_row[j]:
                coords = ",".join(repr(float(v)) for v in batch.states[pid, j])
                lines.append(f"{pid},{t:.9f},{coords},1")
            else:
                coords = ",".join("nan" for _ in range(d))
                lines.append(f"{pid},{t:.9f},{coords},0")
    return "\n".join(lines) + "\n"


SPECIAL_STATES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                  1e300, -1e300, math.inf, -math.inf, 0.1, -1.0 / 3.0]
STATE_VALUES = st.one_of(st.sampled_from(SPECIAL_STATES), st.floats(allow_nan=False))


@st.composite
def path_batches(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    g = draw(st.integers(1, 6))
    n = draw(st.integers(1, 12))
    horizon = draw(st.floats(1e-3, 1e3))
    times = np.linspace(0.0, horizon, g)
    states = draw(arrays(np.float64, (n, g, d), elements=STATE_VALUES))
    mids = np.append((times[:-1] + times[1:]) / 2, times[-1] + 1.0)
    xi_choices = st.one_of(st.just(math.inf), st.just(0.0),
                           st.sampled_from(times.tolist()), st.sampled_from(mids.tolist()))
    xi = np.array(draw(st.lists(xi_choices, min_size=n, max_size=n)))
    return PathBatch(times, states, xi=xi)


@settings(max_examples=150, deadline=None)
@given(batch=path_batches(), chunk_rows=st.sampled_from([1, 2, 5, cli._CSV_CHUNK_ROWS]))
def test_writer_matches_row_loop_and_round_trips(batch, chunk_rows):
    with mock.patch.object(cli, "_CSV_CHUNK_ROWS", chunk_rows):
        text = paths_to_csv(batch)
    assert text == row_loop_paths_to_csv(batch)
    with tempfile.TemporaryDirectory() as tmp:
        name = os.path.join(tmp, "p.csv")
        write_text(name, text)
        assert paths_to_csv(read_paths_csv(name)) == text


def test_writer_matches_row_loop_across_default_chunks(tmp_path):
    rng = np.random.default_rng(3)
    n, g = 3000, 7                      # 21000 rows: three default-size chunks
    times = np.linspace(0.0, 2.0, g)
    states = rng.standard_cauchy((n, g, 2))
    states.flat[rng.integers(0, states.size, 200)] = rng.choice(SPECIAL_STATES, 200)
    xi = np.where(rng.random(n) < 0.3, rng.uniform(0.0, 2.5, n), math.inf)
    batch = PathBatch(times, states, xi=xi)
    assert n * g > 2 * cli._CSV_CHUNK_ROWS
    text = paths_to_csv(batch)
    assert text == row_loop_paths_to_csv(batch)
    (tmp_path / "p.csv").write_text(text)
    assert paths_to_csv(read_paths_csv(str(tmp_path / "p.csv"))) == text
