"""Command-line interface: solve a stored problem, run experiment batteries,
or query the brute-force reference solver.

All inputs and outputs are files (JSON problems, CSV trajectories); see the
README for formats.  A JSON config file supplies flag defaults: each key
names a flag of the subcommand ({"max_equiv_iters": 500} or
{"max-equiv-iters": "500"}), string values are parsed like the flag, an
unknown key or a value outside the flag's choices is an error, and explicit
flags win over the config.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import distributed, engine, formulation, oracle, problems
from .stationarity import ReductionSingularError, build_system


# ---------------------------------------------------------------------------
# encoding

def encode(problem) -> formulation.AsyncFormProblem:
    if isinstance(problem, formulation.AsyncFormProblem):
        return problem
    if isinstance(problem, formulation.StandardLP):
        return formulation.to_asynchronous_form(problem)
    if isinstance(problem, problems.ChebyshevInstance):
        return problems.chebyshev_encode(problem)
    if isinstance(problem, problems.BasisPursuitInstance):
        return problems.basis_pursuit_encode(problem)
    raise TypeError(f"cannot encode {type(problem).__name__}")


# ---------------------------------------------------------------------------
# references

def _oracle(problem) -> oracle.OracleSolution | None:
    """Vertex enumeration for a standard LP, the inscribed-ball reference for
    a Chebyshev instance, None for the kinds the oracle does not cover."""
    if isinstance(problem, formulation.StandardLP):
        return oracle.solve_vertex_enum(problem)
    if isinstance(problem, problems.ChebyshevInstance):
        return oracle.solve_chebyshev_reference(problem.A, problem.b)
    return None


def _reference_for(problem) -> dict[str, np.ndarray] | None:
    """The planted solution of a basis-pursuit instance; else the oracle's
    optimum where it covers the kind and can enumerate it; else None."""
    if isinstance(problem, problems.BasisPursuitInstance):
        return {"x": problem.x_true}
    try:
        sol = _oracle(problem)
    except ValueError:  # the oracle refuses instances too large to enumerate
        return None
    if sol is None or sol.status not in ("optimal", "degenerate"):
        return None
    if isinstance(problem, formulation.StandardLP):
        return {"x1": sol.x_star}
    N = problem.A.shape[1]   # x_star = [x_c, r] of the inscribed ball
    return {"x_c": sol.x_star[:N], "r1": sol.x_star[N:]}


# ---------------------------------------------------------------------------
# commands

def _invalid(path, exc: Exception) -> int:
    print(f"invalid problem {path}: {exc}", file=sys.stderr)
    return 2


def cmd_solve(args) -> int:
    try:
        problem = problems.load_problem(args.problem)
        system = build_system(encode(problem))
    except (OSError, ValueError, ReductionSingularError) as exc:
        return _invalid(args.problem, exc)
    reference = _reference_for(problem) if args.with_reference else None
    schedule = engine.ScheduleConfig(args.mode, args.p, args.workers, args.seed,
                                     args.homotopy)
    state, traj = engine.run(system, schedule, max_equiv_iters=args.max_equiv_iters,
                             tol=args.tol, reference=reference)
    if args.mode == "distributed":
        head = {"workers": args.workers}
        tail = {"worker_reports": [r.to_dict() for r in distributed.worker_reports(
            system, args.workers, args.seed, state.fired_updates)]}
    else:
        head, tail = {"p": args.p if args.mode == "bernoulli" else None}, {}
    values = system.recover_variables(state.d2, state.c2)
    result = {
        "mode": args.mode,
        **head,
        "converged": bool(state.converged),
        "residual": system.residual(state.d2),
        "equivalent_iterations": state.equivalent_iterations,
        "objective": system.objective(state.d2, state.c2),
        "variables": {k: v.tolist() for k, v in values.items()},
        **tail,
    }
    os.makedirs(args.out, exist_ok=True)
    traj.to_csv(os.path.join(args.out, "trajectory.csv"))
    with open(os.path.join(args.out, "solution.json"), "w") as fh:
        json.dump(result, fh, indent=2)
    if args.dump_system:
        system.dump(os.path.join(args.out, "system.npz"))
    status = "converged" if result["converged"] else "NOT converged"
    print(f"{status}: residual {result['residual']:.3e} "
          f"after {result['equivalent_iterations']:.1f} equivalent iterations, "
          f"objective {result['objective']:.6g}")
    print(f"wrote {args.out}/solution.json and {args.out}/trajectory.csv")
    return 0 if result["converged"] else 1


def _gen_instance(args, trial_seed: int):
    if args.preset == "chebyshev":
        return problems.gen_chebyshev(args.n, args.m, seed=trial_seed)
    return problems.gen_basis_pursuit(args.n, args.m, args.sparsity,
                                      seed=trial_seed)


def _unit_grid(traj: engine.Trajectory, units: int) -> np.ndarray:
    """(objective, log10 residual, log10 dist_to_ref) x units 0..units.

    A run records one row per equivalent iteration, at units 0, 1, ..., so
    row u is unit u; a run that stops early holds its final row.
    """
    grid = np.array([traj.objective, traj.residual,
                     traj.dist_to_ref])[:, :units + 1]
    grid = np.pad(grid, ((0, 0), (0, units + 1 - grid.shape[1])), mode="edge")
    grid[1:] = np.log10(np.maximum(grid[1:], 1e-300))
    return grid


_HEADER = ["equiv_iter", "objective_mean", "objective_median",
           "log10_residual_mean", "log10_residual_median",
           "log10_dist_mean", "log10_dist_median"]


def _groups(args) -> list[tuple[str, float]]:
    """An experiment's (label, firing probability) groups."""
    if args.mode == "bernoulli":
        return [("p=" + str(p), p) for p in args.p_list]
    return [(args.mode, engine.ScheduleConfig.p)]


# bytes of trials one engine.run_trials call may hold, by engine.trial_bytes;
# a trial larger than this runs alone.  Timed on batteries of 4 groups at
# K = 13-64, which tick as one stack: the time per trial-group keeps falling
# up to 100-300 rows.  From engine._FIRED_ROWS_K coordinates up the trials
# tick one by one with no stacked copy of G' (a 512x200 trial of 4 groups
# is 10-13 MB, against 16-19 MB with the copies), so there the cap bounds
# only memory.
_CHUNK_BYTES = 24 << 20


def _battery(args, groups):
    """(label, converged, final residual, trajectory) of every trial and
    group, in trial order.

    Trial t draws seed seed + t for its instance and its schedule, and is set
    up once for all groups.  The trials run as stacked chunks through
    engine.run_trials, bitwise the per-trial runs, each chunk built when the
    one before it is done.
    """
    def trials():
        for t in range(args.trials):
            inst = _gen_instance(args, args.seed + t)
            yield args.seed + t, build_system(encode(inst)), _reference_for(inst)

    chunk = []
    for t, trial in enumerate(trials(), 1):
        chunk.append(trial)
        size = engine.trial_bytes(trial[1], len(groups), args.max_equiv_iters)
        if t < args.trials and (len(chunk) + 1) * size <= _CHUNK_BYTES:
            continue
        stack = [(system, label, reference,
                  engine.ScheduleConfig(args.mode, p, args.workers, seed,
                                        args.homotopy))
                 for seed, system, reference in chunk for label, p in groups]
        systems, labels, references, schedules = map(list, zip(*stack))
        results = engine.run_trials(systems, schedules, args.max_equiv_iters,
                                    args.tol, references)
        for system, label, (state, traj) in zip(systems, labels, results):
            yield label, state.converged, system.residual(state.d2), traj
        chunk = []


def _csv_lines(table: np.ndarray) -> list[str]:
    """The CSV lines `u,<row u>` of a grid table, as csv.writer writes them:
    each float as its repr, never quoted, and lines ending in \\r\\n.  A row
    bitwise equal to the one before it (a stopped trial's grid repeats its
    last row) reuses its text."""
    bits = table.view(np.int64)
    new = np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)]
    line = ",".join(["%r"] * table.shape[1]) + "\r\n"
    text = [line % tuple(row) for row in table[new].tolist()]
    return [f"{u},{text[i]}" for u, i in enumerate((np.cumsum(new) - 1).tolist())]


def cmd_experiment(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    units = int(args.max_equiv_iters)
    groups = _groups(args)

    summary = {"preset": args.preset, "n": args.n, "m": args.m,
               "sparsity": args.sparsity if args.preset == "bp" else None,
               "trials": args.trials, "mode": args.mode,
               "homotopy": args.homotopy, "groups": {}}
    runs = {label: [] for label, _ in groups}
    for label, converged, residual, traj in _battery(args, groups):
        runs[label].append((converged, residual, _unit_grid(traj, units)))

    combined = []
    for label, _ in groups:
        flags, residuals, grids = zip(*runs[label])
        # (column, unit, trial): each unit's trials lie contiguous on the last
        # axis, so every mean is the same pairwise sum as np.mean of that
        # unit's 1-D column (a reduction over axis 0 sums in another order)
        stacked = np.stack(grids, axis=-1)
        table = np.stack([stacked.mean(axis=-1), np.median(stacked, axis=-1)],
                         axis=1).reshape(6, units + 1).T
        lines = _csv_lines(table)
        with open(os.path.join(args.out, f"experiment_{label.replace('=', '')}.csv"),
                  "w", newline="") as fh:
            csv.writer(fh).writerow(_HEADER)
            fh.writelines(lines)
        # the combined file repeats these lines, each behind its group label
        combined += [f"{label},{line}" for line in lines]
        converged = sum(flags)
        median_final = float(np.median(residuals))
        summary["groups"][label] = {"trials": args.trials, "converged": converged,
                                    "median_final_residual": median_final}
        print(f"{label}: {converged}/{args.trials} converged, "
              f"median final residual {median_final:.3e}")

    with open(os.path.join(args.out, "experiment_combined.csv"), "w",
              newline="") as fh:
        csv.writer(fh).writerow(["group"] + _HEADER)
        fh.writelines(combined)
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"wrote per-group CSVs, experiment_combined.csv and summary.json "
          f"to {args.out}")
    return 0


def cmd_oracle(args) -> int:
    try:
        problem = problems.load_problem(args.problem)
    except (OSError, ValueError) as exc:
        return _invalid(args.problem, exc)
    try:
        sol = _oracle(problem)
    except ValueError as exc:  # too large to enumerate
        print(f"oracle cannot solve {args.problem}: {exc}", file=sys.stderr)
        return 2
    if sol is None:
        print("oracle supports standard_lp and chebyshev problem kinds",
              file=sys.stderr)
        return 2
    out = {"status": sol.status}
    if sol.x_star is not None:
        out["x_star"] = sol.x_star.tolist()
        out["objective"] = sol.objective
    print(json.dumps(out, indent=2))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "oracle.json"), "w") as fh:
            json.dump(out, fh, indent=2)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

# per-preset sizes, filled in after parsing where no flag or config gave one
_PRESET_SIZES = {
    "chebyshev": {"n": 10, "m": 20, "sparsity": None},
    "bp": {"n": 64, "m": 32, "sparsity": 4},
}


def _refuse_bad_values(args, command: argparse.ArgumentParser) -> None:
    """Refuse, as a usage error, flag values the run would fail on, before
    anything is written.

    Builds what the command builds from its flags (the gamma schedule, one
    ScheduleConfig per firing probability, the first trial's instance and
    its encoding) and turns the library's ValueError into command.error;
    only the rules no library call checks before the run are written here.
    """
    try:
        if not np.isfinite(args.max_equiv_iters):
            raise ValueError("--max-equiv-iters must be finite")
        if not args.tol >= 0:   # a residual is never below it, nor NaN
            raise ValueError("--tol must be a number >= 0")
        if args.command == "solve":
            ps = [args.p]
        else:
            if args.trials < 1:
                raise ValueError("--trials must be at least 1")
            # the grid runs over whole units 0..int(budget)
            if args.max_equiv_iters < 1:
                raise ValueError("--max-equiv-iters must be at least 1")
            ps = [p for _, p in _groups(args)]
            if not ps:
                raise ValueError("--p-list names no firing probability")
            if len(set(ps)) < len(ps):   # one group, and one label, per p
                raise ValueError("--p-list names a firing probability twice")
            encode(_gen_instance(args, args.seed))
        for p in ps:
            engine.ScheduleConfig(args.mode, p, args.workers, args.seed,
                                  args.homotopy)
    except ValueError as exc:
        command.error(str(exc))


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=engine._MODES,
                   default="bernoulli",
                   help="update schedule (default %(default)s; sync needs a "
                        "full-length ramp homotopy to converge)")
    p.add_argument("--workers", type=int, default=1,
                   help="simulated workers (distributed); each read lags "
                        "by workers - 1 updates (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed (default %(default)s)")
    p.add_argument("--max-equiv-iters", type=float, default=2000.0,
                   help="budget in equivalent iterations (default %(default)s)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="stopping residual at gamma=1 (default %(default)s)")
    p.add_argument("--homotopy", default="bp",
                   help="none | bp | ramp:alpha0:steps (default %(default)s)")
    p.add_argument("--out", default=".",
                   help="output directory (default %(default)s)")
    p.add_argument("--config",
                   help="JSON file of flag defaults (keys name flags of this "
                        "subcommand; explicit flags win)")


def build_parser() -> tuple[argparse.ArgumentParser,
                            dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name."""
    # no prefix matching anywhere: an abbreviation would silently change
    # meaning once a flag sharing its prefix is added
    parser = argparse.ArgumentParser(
        prog="asynclp", allow_abbrev=False,
        description="Solve linear programs by asynchronous fixed-point "
                    "iteration of an orthogonal signal-flow system.")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one stored problem",
                        allow_abbrev=False)
    ps.add_argument("--problem", required=True, help="problem JSON file")
    ps.add_argument("--with-reference", action="store_true",
                    help="compute a reference solution for the dist_to_ref column")
    ps.add_argument("--dump-system", action="store_true",
                    help="also write the reduced operator data (system.npz)")
    ps.add_argument("--p", type=float, default=0.5,
                    help="firing probability for bernoulli (default %(default)s)")
    _add_common(ps)

    pe = sub.add_parser("experiment", help="run a trial battery and aggregate",
                        allow_abbrev=False)
    pe.add_argument("--preset", choices=tuple(_PRESET_SIZES), required=True)
    pe.add_argument("--n", type=int, help="dimension (default 10 / 64)")
    pe.add_argument("--m", type=int, help="constraints/measurements "
                                          "(default 20 / 32)")
    pe.add_argument("--sparsity", type=int, help="bp nonzeros (default 4)")
    pe.add_argument("--trials", type=int, default=50,
                    help="number of trials (default %(default)s)")
    pe.add_argument("--p-list", type=_float_list, default="0.2,0.4,0.6,0.8",
                    help="comma-separated firing probabilities "
                         "(default %(default)s)")
    _add_common(pe)

    po = sub.add_parser("oracle", help="brute-force reference solution",
                        allow_abbrev=False)
    po.add_argument("--problem", required=True, help="problem JSON file")
    po.add_argument("--out", help="also write oracle.json here")
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    command = commands[args.command]
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:   # ValueError: not JSON
            command.error(f"config file {args.config}: {exc}")
        if not isinstance(config, dict):
            command.error(f"config file {args.config}: expected a JSON object "
                          f"of flag defaults, got {type(config).__name__}")
        config = {key.replace("-", "_"): value for key, value in config.items()}
        unknown = [key for key in config
                   if key not in vars(args) or key == "command"]
        if unknown:
            command.error(f"config key(s) name no flag of {args.command!r}: "
                          + ", ".join(unknown))
        # argparse passes a value that is not a string on as it is: it must
        # be one the flag's type gives back from its text (500 for a float
        # flag, [0.2, 0.5] for --p-list); switches (nargs 0) take any value
        for action in command._actions:
            value = config.get(action.dest)
            if action.dest in config and action.nargs != 0 \
                    and not isinstance(value, str):
                text = ",".join(map(str, value)) if isinstance(value, list) \
                    else str(value)
                try:
                    taken = (action.type or str)(text) == value
                except ValueError:
                    taken = False
                if not taken:
                    command.error(f"config key {action.dest!r}: invalid value "
                                  f"{value!r}")
        # config values become flag defaults, so explicit flags still win and
        # string values go through the flag's type
        command.set_defaults(**config)
        args = parser.parse_args(argv)
        # argparse checks choices only on the command line, not on defaults
        for action in command._actions:
            if action.dest not in config or action.choices is None:
                continue
            value = getattr(args, action.dest)
            if value not in action.choices:
                command.error(f"config key {action.dest!r}: invalid choice "
                              f"{value!r} (choose from "
                              + ", ".join(map(repr, action.choices)) + ")")
    if args.command == "oracle":
        return cmd_oracle(args)
    if args.command == "experiment":
        for key, default in _PRESET_SIZES[args.preset].items():
            if getattr(args, key) is None:
                setattr(args, key, default)
    _refuse_bad_values(args, command)
    if args.command == "solve":
        return cmd_solve(args)
    return cmd_experiment(args)


if __name__ == "__main__":
    sys.exit(main())
