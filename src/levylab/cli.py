"""Batch command-line interface.

Every subcommand reads a configuration from flags (plus JSON files where
structured input is needed), runs deterministically from its seed, writes
outputs atomically (temp file + rename) and prints a run manifest as JSON
on stdout.  Exit codes: 0 success, 1 validation error, 2 numeric failure,
64 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
import warnings
from contextlib import contextmanager
from itertools import chain, count, repeat
from typing import Sequence

import numpy as np

from . import __version__, environment
from .core import (
    ConstantTripletField,
    PathBatch,
    SchemeConfig,
    _reject_unknown_keys,
    compensation_by_name,
    triplet_from_config,
)
from .diagnostics import explosion_stats, ks_distance, wasserstein1
from .embedding import doob_bound_check
from .environment import BernoulliPoisson, IIDScaled, rwre_simulate
from .errors import (
    ConfigurationError,
    DegenerateStateError,
    PotentialOverflowError,
    QuadratureError,
    RangeError,
    SchemeStepError,
    ValidationError,
    WindowEdgeError,
)
from .euler import IncrementPlan, StableTripletField, euler_chain_simulate
from .expr import compile_expression
from .operators import convergence_gaps, vanishing_test_functions
from .potential import (
    CallablePotential,
    GridPotential,
    PiecewiseConstantPotential,
    potential_chain_simulate,
    zero_potential,
)
from .stable import StableField, stable_chain_simulate

USAGE_EXIT = 64
VALIDATION_EXIT = 1
NUMERIC_EXIT = 2
# Largest paths x grid points x dimension a simulate run may write; a larger
# one is refused before its grid is built.
MAX_OUTPUT_ELEMENTS = 1 << 27

_VALIDATION_ERRORS = (ValidationError, ConfigurationError, RangeError, OSError,
                      UnicodeError, json.JSONDecodeError)
_NUMERIC_ERRORS = (QuadratureError, SchemeStepError, DegenerateStateError,
                   PotentialOverflowError, FloatingPointError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _convert(kind, text, what: str):
    """``kind(text)``, with text that does not convert reported as a validation error."""
    try:
        return kind(text)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what}: cannot read {str(text)[:60]!r} ({exc})") from None


def _seed_from(args) -> int:
    """The --seed flag, else LEVYLAB_SEED, else 0; a key word, so in [0, 2^64)."""
    env = os.environ.get("LEVYLAB_SEED")
    if args.seed is not None:
        seed = args.seed
    elif env is not None:
        seed = _convert(int, env, "LEVYLAB_SEED")
    else:
        seed = 0
    if not 0 <= seed < 2 ** 64:
        raise ValidationError(f"seed {seed} lies outside [0, 2^64)")
    return seed


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".levylab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Rows per writer chunk: big enough to amortise the per-chunk numpy calls,
# small enough that the chunk's string lists stay a few MB.
_CSV_CHUNK_ROWS = 8192


def paths_to_csv(batch: PathBatch) -> str:
    """CSV rows path_id,t,x1..xd,alive; alive=0 rows carry nan states.

    Coordinates are ``repr(float)``, the shortest round-trip decimal; times
    are fixed to 9 decimals.  Columns are formatted a chunk of paths at a time.
    """
    n, g, d = batch.states.shape
    header = "path_id,t," + ",".join(f"x{i + 1}" for i in range(d)) + ",alive"
    times = batch.times
    t_text = [f"{t:.9f}" for t in times.tolist()]
    per_chunk = max(1, _CSV_CHUNK_ROWS // max(g, 1))
    parts = [header]
    for p0 in range(0, n if g else 0, per_chunk):
        p1 = min(p0 + per_chunk, n)
        alive = (times[None, :] < batch.xi[p0:p1, None]).ravel()
        states = np.where(alive[:, None], batch.states[p0:p1].reshape(-1, d), np.nan)
        coords = [map(repr, states[:, k].tolist()) for k in range(d)]
        ids = chain.from_iterable(repeat(str(p), g) for p in range(p0, p1))
        flags = np.where(alive, "1", "0").tolist()
        parts.append("\n".join(map(",".join, zip(ids, t_text * (p1 - p0), *coords, flags))))
    return "\n".join(parts) + "\n"


def read_paths_csv(path: str) -> PathBatch:
    """Rebuild a batch from the CSV layout written by the simulators.

    Rows are grouped by ``path_id`` (file order kept within a path).  Every
    path must have the same ``t`` column; ``xi`` is the first grid time whose
    ``alive`` flag is not 1.
    """
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        if header[:2] != ["path_id", "t"] or header[-1] != "alive":
            raise ValidationError(f"{path} does not look like a path CSV")
        d = len(header) - 3
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                rows = np.loadtxt(handle, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise ValidationError(f"malformed row in {path}: {exc}") from None
    if rows.size == 0:
        raise ValidationError(f"{path} holds no paths")
    if rows.shape[1] != d + 3:
        raise ValidationError(f"malformed rows in {path}: {rows.shape[1]} columns, "
                              f"header has {d + 3}")
    if not np.array_equal(rows[:, 0], np.trunc(rows[:, 0])):
        raise ValidationError(f"{path} has a path_id that is not an integer")
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    _, counts = np.unique(rows[:, 0], return_counts=True)
    if np.any(counts != counts[0]):
        raise ValidationError(f"paths in {path} have different row counts "
                              f"({counts.min()} to {counts.max()})")
    rows = rows.reshape(counts.size, counts[0], d + 3)
    times = rows[0, :, 1].copy()
    if np.any(rows[:, :, 1] != times):
        raise ValidationError(f"paths in {path} do not share the first path's time grid")
    dead = rows[:, :, -1] != 1.0
    xi = np.where(dead.any(axis=1), times[dead.argmax(axis=1)], np.inf)
    return PathBatch(times, rows[:, :, 2:-1].copy(), xi=xi)


def _manifest(subcommand: str, seed: int, args_dict: dict, outputs: list[str],
              started: float) -> dict:
    canon = json.dumps(args_dict, sort_keys=True, default=str)
    return {
        "subcommand": subcommand,
        "seed": seed,
        "config": args_dict,
        "config_sha256": hashlib.sha256(canon.encode()).hexdigest(),
        "versions": {
            "levylab": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "wall_time_s": round(time.monotonic() - started, 6),
        "outputs": outputs,
    }


def _scheme_config(args, seed: int, horizon: float, dim: int) -> SchemeConfig:
    if args.grid_points < 1:
        raise ValidationError(f"--grid-points must be at least 1, got {args.grid_points}")
    size = int(args.paths) * int(args.grid_points) * int(dim)
    if size > MAX_OUTPUT_ELEMENTS:
        raise ValidationError(
            f"{args.paths} paths x {args.grid_points} grid points x {dim} coordinates is "
            f"{size} values, above the cap of {MAX_OUTPUT_ELEMENTS}; lower --paths, "
            "--grid-points or the dimension")
    # A horizon that is not positive and finite is refused by SchemeConfig.clock.
    with np.errstate(invalid="ignore"):
        grid = np.linspace(0.0, horizon, args.grid_points)
    return SchemeConfig(
        paths=int(args.paths), seed=seed, grid=grid,
        escape_radius=float(getattr(args, "escape_radius", 1e6)),
        threads=int(args.threads),
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="levylab", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--paths", type=int, default=1000)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
        p.add_argument("--grid-points", type=int, default=101)
        p.add_argument("--out", required=True)

    p = sub.add_parser("simulate-stable", help="stable-type chain scheme")
    p.add_argument("--c-expr", default="1")
    p.add_argument("--alpha-expr", default="1")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--start", default="0")
    p.add_argument("--escape-radius", type=float, default=1e6)
    common(p)

    p = sub.add_parser("simulate-euler", help="frozen Levy-increment scheme")
    p.add_argument("--triplet-config", required=True)
    p.add_argument("--chi", choices=["chi1", "chi2"], default="chi2")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--tau", type=float, default=1e-3)
    p.add_argument("--small-jump-mode", choices=["drift-compensate", "gaussian-surrogate"],
                   default="drift-compensate")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--start", default="0")
    p.add_argument("--escape-radius", type=float, default=1e6)
    common(p)

    p = sub.add_parser("simulate-potential", help="two-point scheme in a potential")
    p.add_argument("--potential", required=True,
                   help="'zero', a CSV file, or an expression in x1")
    p.add_argument("--mesh", type=float, default=None,
                   help="with a CSV file: read (k, q_k) lattice increments at this mesh")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--escape-radius", type=float, default=1e6)
    common(p)

    p = sub.add_parser("simulate-rwre", help="random walks in random environments")
    p.add_argument("--env", required=True, help="iid:SIGMA or bernoulli:Q:LAMBDA")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--envs", type=int, default=1)
    p.add_argument("--start-site", type=int, default=0)
    common(p)

    p = sub.add_parser("diagnose-operator", help="operator convergence gaps")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("diagnose-clock", help="clock deviation bound check")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("diagnose-paths", help="explosion and marginal diagnostics")
    p.add_argument("files", nargs="+")
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    return parser


def _parse_start(text: str, dim: int) -> np.ndarray:
    parts = [_convert(float, v, "--start") for v in str(text).split(",")]
    if len(parts) == 1 and dim > 1:
        parts = parts * dim
    if len(parts) != dim:
        raise ValidationError(f"start point has {len(parts)} coordinates, expected {dim}")
    return np.asarray(parts)


def _load_potential(args, n_steps: int, widen: int):
    spec = args.potential
    eps = float(args.eps)
    if spec == "zero":
        start_site = int(round(float(args.start) / eps))
        pad = n_steps + 8
        if 2 * pad + 1 > environment.MAX_WINDOW_SITES:
            raise ValidationError(
                f"the zero potential window needs {2 * pad + 1} sites, more than the cap of "
                f"{environment.MAX_WINDOW_SITES}; increase --eps or shorten --T")
        return zero_potential(eps, start_site - pad, start_site + pad)
    if os.path.exists(spec):
        data = _convert(lambda path: np.loadtxt(path, delimiter=",", ndmin=2), spec,
                        "potential file")
        if data.shape[1] != 2:
            raise ValidationError("potential CSV needs two columns")
        if args.mesh is not None:
            ks = data[:, 0].astype(int)
            if np.any(np.diff(ks) != 1):
                raise ValidationError("lattice potential file must list consecutive k")
            return PiecewiseConstantPotential(float(args.mesh), data[:, 1], int(ks[0]))
        return GridPotential(data[:, 0], data[:, 1])
    fn = compile_expression(spec, 1)
    # Twice the window `zero` gets, doubled `widen` times (see _cmd_simulate_potential).
    reach = 2.0 ** (1 + widen) * (n_steps + 8) * eps
    return CallablePotential(lambda x: fn(x[:, None]),
                             domain=(args.start - reach, args.start + reach))


def _parse_env(text: str):
    parts = text.split(":")
    if parts[0] == "iid" and len(parts) == 2:
        return IIDScaled(_convert(float, parts[1], "--env"))
    if parts[0] == "bernoulli" and len(parts) == 3:
        return BernoulliPoisson(q=_convert(float, parts[1], "--env"),
                                lam=_convert(float, parts[2], "--env"))
    raise ValidationError(f"unknown environment spec {text!r}")


def _cmd_simulate_stable(args, seed: int) -> list[str]:
    dim = int(args.dim)
    c_fn = compile_expression(args.c_expr, dim)
    a_fn = compile_expression(args.alpha_expr, dim)
    field = StableField(c=c_fn, alpha=a_fn, dim=dim)
    cfg = _scheme_config(args, seed, float(args.T), dim)
    batch = stable_chain_simulate(field, _parse_start(args.start, dim),
                                  float(args.n), float(args.T), cfg)
    atomic_write_text(args.out, paths_to_csv(batch))
    return [args.out]


@contextmanager
def _json_config(path: str):
    """Yield the JSON document at ``path`` to the block that builds a model;
    a missing key, wrong type or bad value met there is a ValidationError."""
    with open(path) as handle:
        cfg = json.load(handle)
    try:
        yield cfg
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"malformed config {path}: {type(exc).__name__}: {exc}") from None


def _stable_field_from_json(cfg: dict) -> StableField:
    _reject_unknown_keys(cfg, {"kind", "dim", "c_expr", "alpha_expr"}, "stable field")
    dim = int(cfg.get("dim", 1))
    return StableField(c=compile_expression(cfg["c_expr"], dim),
                       alpha=compile_expression(cfg["alpha_expr"], dim), dim=dim)


def _cmd_simulate_euler(args, seed: int) -> list[str]:
    with _json_config(args.triplet_config) as cfg_json:
        kind = cfg_json.get("kind")
        if kind == "stable-field":
            field = StableTripletField(_stable_field_from_json(cfg_json))
        elif kind is None:
            field = ConstantTripletField(triplet_from_config(cfg_json))
        else:
            raise ValidationError(f"unknown triplet config kind {kind!r}; simulate-euler "
                                  "reads a triplet or a 'stable-field'")
    chi = compensation_by_name(args.chi)
    plan = IncrementPlan(tau=float(args.tau), small_jump_mode=args.small_jump_mode)
    cfg = _scheme_config(args, seed, float(args.T), field.dim)
    batch = euler_chain_simulate(field, chi, _parse_start(args.start, field.dim),
                                 float(args.eps), float(args.T), plan, cfg)
    atomic_write_text(args.out, paths_to_csv(batch))
    return [args.out]


def _cmd_simulate_potential(args, seed: int) -> list[str]:
    eps = float(args.eps)
    if not eps > 0:
        raise ValidationError("--eps must be positive")
    if not np.isfinite(args.start):
        raise ValidationError("start points must be finite")
    cfg = _scheme_config(args, seed, float(args.T), 1)
    dt = eps * eps
    n_steps = cfg.clock(float(args.T), lambda t: t / dt)[1]
    # An expression's window is only a working range, so instead of absorbing
    # a path at its edge the run restarts on a doubled window; steps never
    # exceed 1024 eps, so this ends.
    for widen in count():
        potential = _load_potential(args, n_steps, widen)
        try:
            batch = potential_chain_simulate(potential, float(args.start), eps,
                                             float(args.T), cfg)
            break
        except WindowEdgeError:
            continue
    atomic_write_text(args.out, paths_to_csv(batch))
    return [args.out]


def _cmd_simulate_rwre(args, seed: int) -> list[str]:
    env = _parse_env(args.env)
    cfg = _scheme_config(args, seed, float(args.T), 1)
    runs = rwre_simulate(env, float(args.eps), int(args.start_site), float(args.T),
                         int(args.envs), cfg)
    stem, ext = os.path.splitext(args.out)
    ext = ext or ".csv"
    outputs = []
    summary = {"eps": float(args.eps), "environments": len(runs), "files": []}
    horizon = float(args.T)
    pooled = []
    for i, run in enumerate(runs):
        name = f"{stem}_env{i:03d}{ext}"
        atomic_write_text(name, paths_to_csv(run.walks))
        outputs.append(name)
        stats = explosion_stats(run.walks)
        marg = run.walks.marginal(horizon)[0][:, 0]
        pooled.append(marg)
        summary["files"].append({
            "file": name,
            "window": [run.potential.k_min, run.potential.k_max],
            "exploded_fraction": stats.fraction,
            "environment_seed": run.environment_seed,
            "marginal_mean": float(np.mean(marg)) if marg.size else None,
            "marginal_var": float(np.var(marg, ddof=1)) if marg.size > 1 else None,
        })
    # Quenched statistics (per environment, averaged) against the pooled
    # (annealed) batch; reported side by side, never asserted equal.
    means = [f["marginal_mean"] for f in summary["files"] if f["marginal_mean"] is not None]
    variances = [f["marginal_var"] for f in summary["files"] if f["marginal_var"] is not None]
    all_m = np.concatenate(pooled) if pooled else np.empty(0)
    summary["quenched_mean_of_means"] = float(np.mean(means)) if means else None
    summary["quenched_mean_of_vars"] = float(np.mean(variances)) if variances else None
    summary["annealed_mean"] = float(np.mean(all_m)) if all_m.size else None
    summary["annealed_var"] = float(np.var(all_m, ddof=1)) if all_m.size > 1 else None
    summary_path = f"{stem}_summary.json"
    atomic_write_text(summary_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    outputs.append(summary_path)
    return outputs


def _field_from_json(cfg: dict):
    kind = cfg.get("kind", "constant")
    if kind == "constant":
        _reject_unknown_keys(cfg, {"kind", "triplet"}, "constant field")
        return ConstantTripletField(triplet_from_config(cfg["triplet"]))
    if kind == "stable":
        return StableTripletField(_stable_field_from_json(cfg))
    raise ValidationError(f"unknown field kind {kind!r}")


def _cmd_diagnose_operator(args, seed: int) -> list[str]:
    with _json_config(args.config) as cfg:
        _reject_unknown_keys(cfg, {"limit", "fields", "chi", "box", "margin", "grid_points",
                                   "jump_margin", "labels"}, "operator config")
        _reject_unknown_keys(cfg["box"], {"low", "high"}, "box")
        limit = _field_from_json(cfg["limit"])
        fields = [_field_from_json(f) for f in cfg["fields"]]
        chi = compensation_by_name(cfg.get("chi", "chi2"))
        low = np.asarray(cfg["box"]["low"], dtype=float)
        high = np.asarray(cfg["box"]["high"], dtype=float)
        testfns = vanishing_test_functions(low, high, limit.dim,
                                           margin=float(cfg.get("margin", 0.5)))
        options = dict(grid_points=int(cfg.get("grid_points", 16)),
                       jump_margin=float(cfg.get("jump_margin", 0.25)),
                       labels=cfg.get("labels"))
    reports = convergence_gaps(fields, limit, chi, low, high, testfns=testfns, **options)
    payload = {"chi": chi.name, "reports": [r.to_dict() for r in reports]}
    atomic_write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return [args.out]


def _cmd_diagnose_clock(args, seed: int) -> list[str]:
    report = doob_bound_check(float(args.eps), float(args.t), float(args.threshold),
                              int(args.trials), seed=seed)
    atomic_write_text(args.out, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return [args.out]


def _cmd_diagnose_paths(args, seed: int) -> list[str]:
    batches = [read_paths_csv(f) for f in args.files]
    payload = {"files": list(args.files), "explosion": []}
    for f, b in zip(args.files, batches):
        payload["explosion"].append({"file": f, **explosion_stats(b).to_dict()})
    if args.t is not None:
        t = float(args.t)
        marginals = [b.marginal(t)[0][:, 0] for b in batches]
        payload["marginal_time"] = t
        payload["marginal_summary"] = [
            {"file": f, "count": int(m.size), "mean": float(np.mean(m)) if m.size else None,
             "std": float(np.std(m, ddof=1)) if m.size > 1 else None}
            for f, m in zip(args.files, marginals)
        ]
        if len(batches) == 2:
            stat, p = ks_distance(marginals[0], marginals[1])
            payload["compare"] = {
                "ks_stat": stat, "ks_p_value": p,
                "wasserstein1": wasserstein1(marginals[0], marginals[1]),
            }
    atomic_write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return [args.out]


_COMMANDS = {
    "simulate-stable": _cmd_simulate_stable,
    "simulate-euler": _cmd_simulate_euler,
    "simulate-potential": _cmd_simulate_potential,
    "simulate-rwre": _cmd_simulate_rwre,
    "diagnose-operator": _cmd_diagnose_operator,
    "diagnose-clock": _cmd_diagnose_clock,
    "diagnose-paths": _cmd_diagnose_paths,
}


def run(argv: Sequence[str]) -> int:
    started = time.monotonic()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    try:
        seed = _seed_from(args)
        outputs = _COMMANDS[args.subcommand](args, seed)
    except _VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    manifest = _manifest(args.subcommand, seed, {
        k: v for k, v in vars(args).items() if k not in ("subcommand",)
    }, outputs, started)
    print(json.dumps(manifest, sort_keys=True))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
