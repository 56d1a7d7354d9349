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
from .stationarity import build_system


# ---------------------------------------------------------------------------
# loading and encoding

def load_any(path):
    """Load a problem file of any supported kind."""
    with open(path) as fh:
        d = json.load(fh)
    kind = d.get("kind")
    if kind in ("standard_lp", "async_form"):
        return formulation.problem_from_dict(d)
    return problems.instance_from_dict(d)


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
# shared runners

def _run_once(system, args, seed, p, reference=None):
    """One solve with the configured mode (bernoulli firing probability p);
    returns a result dict + trajectory."""
    if args.mode == "distributed":
        d2, c2, traj, reports, converged = distributed.run_distributed(
            system, workers=args.workers, max_equiv_iters=args.max_equiv_iters,
            tol=args.tol, seed=seed, homotopy=args.homotopy, reference=reference)
        equiv = traj.equiv_iter[-1] if len(traj) else 0.0
        head = {"mode": "distributed", "workers": args.workers}
        tail = {"worker_reports": [r.to_dict() for r in reports]}
    else:
        schedule = engine.ScheduleConfig(mode=args.mode, p=p, seed=seed,
                                         homotopy=args.homotopy)
        state, traj = engine.run(system, schedule,
                                 max_equiv_iters=args.max_equiv_iters,
                                 tol=args.tol, reference=reference)
        d2, c2, converged = state.d2, state.c2, state.converged
        equiv = state.equivalent_iterations
        head = {"mode": args.mode,
                "p": p if args.mode == "bernoulli" else None}
        tail = {}
    values = system.recover_variables(d2, c2)
    result = {
        **head,
        "converged": bool(converged),
        "residual": system.residual(d2),
        "equivalent_iterations": equiv,
        "objective": system.objective(d2, c2),
        "variables": {k: v.tolist() for k, v in values.items()},
        **tail,
    }
    return result, traj


def _deep_reference(system, budget: float) -> dict[str, np.ndarray] | None:
    """Reference solution by a long randomized run.

    Randomized firing keeps contracting at gamma=1, whereas a synchronous
    sweep stalls on an orthogonal rotation once the ramp ends, so a
    high-precision reference must come from a randomized schedule.  The seed
    is fixed so reruns produce identical references.
    """
    steps = max(2.0 * budget, 4000.0)
    schedule = engine.ScheduleConfig(mode="bernoulli", p=0.5,
                                     seed=987654321, homotopy="bp")
    state, _ = engine.run(system, schedule, max_equiv_iters=steps, tol=1e-10)
    if system.residual(state.d2) > 1e-6:
        return None
    return system.recover_variables(state.d2, state.c2)


def _reference_for(problem, system, args) -> dict[str, np.ndarray] | None:
    """Oracle reference when enumerable, else a deep solve (see README)."""
    try:
        if isinstance(problem, formulation.StandardLP):
            sol = oracle.solve_vertex_enum(problem)
            if sol.status in ("optimal", "degenerate"):
                return {"x1": sol.x_star}
        elif isinstance(problem, problems.ChebyshevInstance):
            N = problem.A.shape[1]
            sol = oracle.solve_chebyshev_reference(problem.A, problem.b)
            if sol.status in ("optimal", "degenerate"):
                return {"x_c": sol.x_star[:N], "r1": sol.x_star[N:]}
        elif not isinstance(problem, problems.BasisPursuitInstance):
            return None
    except ValueError:  # the oracle refuses instances too large to enumerate
        pass
    return _deep_reference(system, 2 * args.max_equiv_iters)


# ---------------------------------------------------------------------------
# commands

def cmd_solve(args) -> int:
    problem = load_any(args.problem)
    system = build_system(encode(problem))
    reference = _reference_for(problem, system, args) if args.with_reference else None
    result, traj = _run_once(system, args, args.seed, args.p, reference)
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
    if args.preset == "bp":
        return problems.gen_basis_pursuit(args.n, args.m, args.sparsity,
                                          seed=trial_seed)
    raise ValueError(f"unknown preset {args.preset!r}")


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


def cmd_experiment(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    units = int(args.max_equiv_iters)
    if args.mode == "bernoulli":
        groups = [("p=" + str(p), p) for p in args.p_list]
    else:
        groups = [(args.mode, args.p)]

    summary = {"preset": args.preset, "n": args.n, "m": args.m,
               "sparsity": args.sparsity if args.preset == "bp" else None,
               "trials": args.trials, "mode": args.mode,
               "homotopy": args.homotopy, "groups": {}}
    runs = {label: [] for label, _ in groups}
    for t in range(args.trials):
        trial_seed = args.seed + t
        inst = _gen_instance(args, trial_seed)
        system = build_system(encode(inst))
        if args.preset == "bp":
            reference = {"x": inst.x_true}
        else:
            reference = _reference_for(inst, system, args)
        for label, p in groups:
            result, traj = _run_once(system, args, trial_seed, p, reference)
            runs[label].append((result["converged"], result["residual"],
                                _unit_grid(traj, units)))

    combined_rows = []
    for label, _ in groups:
        flags, residuals, grids = zip(*runs[label])
        # (column, unit, trial): each unit's trials lie contiguous on the last
        # axis, so every mean is the same pairwise sum as np.mean of that
        # unit's 1-D column (a reduction over axis 0 sums in another order)
        stacked = np.stack(grids, axis=-1)
        table = np.stack([stacked.mean(axis=-1), np.median(stacked, axis=-1)],
                         axis=1).reshape(6, units + 1).T
        rows = [[u] + row for u, row in enumerate(table.tolist())]
        with open(os.path.join(args.out, f"experiment_{label.replace('=', '')}.csv"),
                  "w", newline="") as fh:
            csv.writer(fh).writerows([_HEADER] + rows)
        combined_rows.extend([label] + row for row in rows)
        converged = sum(flags)
        median_final = float(np.median(residuals))
        summary["groups"][label] = {"trials": args.trials, "converged": converged,
                                    "median_final_residual": median_final}
        print(f"{label}: {converged}/{args.trials} converged, "
              f"median final residual {median_final:.3e}")

    with open(os.path.join(args.out, "experiment_combined.csv"), "w",
              newline="") as fh:
        csv.writer(fh).writerows([["group"] + _HEADER] + combined_rows)
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"wrote per-group CSVs, experiment_combined.csv and summary.json "
          f"to {args.out}")
    return 0


def cmd_oracle(args) -> int:
    problem = load_any(args.problem)
    if isinstance(problem, formulation.StandardLP):
        sol = oracle.solve_vertex_enum(problem)
    elif isinstance(problem, problems.ChebyshevInstance):
        sol = oracle.solve_chebyshev_reference(problem.A, problem.b)
    else:
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


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=engine._MODES + ("distributed",),
                   default="bernoulli",
                   help="update schedule (default %(default)s; sync needs a "
                        "full-length ramp homotopy to converge)")
    p.add_argument("--p", type=float, default=0.5,
                   help="firing probability for bernoulli (default %(default)s)")
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
    parser = argparse.ArgumentParser(
        prog="asynclp",
        description="Solve linear programs by asynchronous fixed-point "
                    "iteration of an orthogonal signal-flow system.")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one stored problem")
    ps.add_argument("--problem", required=True, help="problem JSON file")
    ps.add_argument("--with-reference", action="store_true",
                    help="compute a reference solution for the dist_to_ref column")
    ps.add_argument("--dump-system", action="store_true",
                    help="also write the reduced operator data (system.npz)")
    _add_common(ps)

    pe = sub.add_parser("experiment", help="run a trial battery and aggregate")
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

    po = sub.add_parser("oracle", help="brute-force reference solution")
    po.add_argument("--problem", required=True, help="problem JSON file")
    po.add_argument("--out", help="also write oracle.json here")
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = {key.replace("-", "_"): value
                      for key, value in json.load(fh).items()}
        command = commands[args.command]
        unknown = [key for key in config
                   if key not in vars(args) or key == "command"]
        if unknown:
            command.error(f"config key(s) name no flag of {args.command!r}: "
                          + ", ".join(unknown))
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
    if args.command == "solve":
        return cmd_solve(args)
    if args.command == "oracle":
        return cmd_oracle(args)
    for key, default in _PRESET_SIZES[args.preset].items():
        if getattr(args, key) is None:
            setattr(args, key, default)
    return cmd_experiment(args)


if __name__ == "__main__":
    sys.exit(main())
