"""Command-line interface: solve a stored problem, run experiment batteries,
or query the brute-force reference solver.

All inputs and outputs are files (JSON problems, CSV trajectories); see the
README for formats.  A JSON config file may mirror any long flag (keys use
underscores: {"max_equiv_iters": 500}); explicit flags win over the config.
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

def _run_once(system, args, seed, reference=None):
    """One solve with the configured mode; returns a result dict + trajectory."""
    if args.mode == "distributed":
        d2, c2, traj, reports, converged = distributed.run_distributed(
            system, workers=args.workers, max_equiv_iters=args.max_equiv_iters,
            tol=args.tol, seed=seed, homotopy=args.homotopy, reference=reference)
        equiv = traj.equiv_iter[-1] if len(traj) else 0.0
        head = {"mode": "distributed", "workers": args.workers}
        tail = {"worker_reports": [r.to_dict() for r in reports]}
    else:
        schedule = engine.ScheduleConfig(mode=args.mode, p=args.p, seed=seed,
                                         homotopy=args.homotopy)
        state, traj = engine.run(system, schedule,
                                 max_equiv_iters=args.max_equiv_iters,
                                 tol=args.tol, reference=reference)
        d2, c2, converged = state.d2, state.c2, state.converged
        equiv = state.equivalent_iterations
        head = {"mode": args.mode,
                "p": args.p if args.mode == "bernoulli" else None}
        tail = {}
    values = system.recover_variables(d2, c2)
    result = {
        **head,
        "converged": bool(converged),
        "residual": system.residual(d2),
        "equivalent_iterations": equiv,
        "objective": system.problem.objective_value(values),
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
    result, traj = _run_once(system, args, args.seed, reference)
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


def _unit_grid(traj: engine.Trajectory, units: int):
    """Map a trajectory to per-unit rows 0..units, padding with final values."""
    obj = np.full(units + 1, np.nan)
    res = np.full(units + 1, np.nan)
    dist = np.full(units + 1, np.nan)
    for eq, o, r, d in zip(traj.equiv_iter, traj.objective, traj.residual,
                           traj.dist_to_ref):
        u = int(eq + 1e-9)
        if u <= units:
            obj[u], res[u], dist[u] = o, r, d
    # forward-fill: converged runs hold their final values
    for arr in (obj, res, dist):
        last = arr[0]
        for i in range(units + 1):
            if np.isnan(arr[i]):
                arr[i] = last
            else:
                last = arr[i]
    return obj, res, dist


def _log10(arr: np.ndarray) -> np.ndarray:
    return np.log10(np.maximum(np.asarray(arr, dtype=float), 1e-300))


def cmd_experiment(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    units = int(args.max_equiv_iters)
    if args.mode == "bernoulli":
        groups = [("p=" + str(p), p) for p in args.p_list]
    else:
        groups = [(args.mode, None)]

    summary = {"preset": args.preset, "n": args.n, "m": args.m,
               "sparsity": args.sparsity if args.preset == "bp" else None,
               "trials": args.trials, "mode": args.mode,
               "homotopy": args.homotopy, "groups": {}}
    stats = {label: {"objective": [], "log_residual": [], "log_dist": [],
                     "converged": 0, "final_residual": []}
             for label, _ in groups}
    for t in range(args.trials):
        trial_seed = args.seed + t
        inst = _gen_instance(args, trial_seed)
        system = build_system(encode(inst))
        if args.preset == "bp":
            reference = {"x": inst.x_true}
        else:
            reference = _reference_for(inst, system, args)
        for label, p in groups:
            run_args = argparse.Namespace(**vars(args))
            if p is not None:
                run_args.p = p
            result, traj = _run_once(system, run_args, trial_seed, reference)
            group = stats[label]
            group["converged"] += bool(result["converged"])
            group["final_residual"].append(result["residual"])
            obj, res, dist = _unit_grid(traj, units)
            group["objective"].append(obj)
            group["log_residual"].append(_log10(res))
            group["log_dist"].append(_log10(dist))

    combined_rows = []
    for label, _ in groups:
        group = stats[label]
        converged_count = group["converged"]
        final_residuals = group["final_residual"]
        O = np.vstack(group["objective"])
        R = np.vstack(group["log_residual"])
        D = np.vstack(group["log_dist"])
        rows = []
        for u in range(units + 1):
            rows.append([
                u,
                float(np.mean(O[:, u])), float(np.median(O[:, u])),
                float(np.mean(R[:, u])), float(np.median(R[:, u])),
                float(np.mean(D[:, u])), float(np.median(D[:, u])),
            ])
        fname = os.path.join(args.out, f"experiment_{label.replace('=', '')}.csv")
        header = ["equiv_iter", "objective_mean", "objective_median",
                  "log10_residual_mean", "log10_residual_median",
                  "log10_dist_mean", "log10_dist_median"]
        with open(fname, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        combined_rows.extend([[label] + row for row in rows])
        summary["groups"][label] = {
            "trials": args.trials,
            "converged": converged_count,
            "median_final_residual": float(np.median(final_residuals)),
        }
        print(f"{label}: {converged_count}/{args.trials} converged, "
              f"median final residual {np.median(final_residuals):.3e}")

    with open(os.path.join(args.out, "experiment_combined.csv"), "w",
              newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["group", "equiv_iter", "objective_mean", "objective_median",
                    "log10_residual_mean", "log10_residual_median",
                    "log10_dist_mean", "log10_dist_median"])
        w.writerows(combined_rows)
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

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=engine._MODES + ("distributed",),
                   help="update schedule (default bernoulli; sync needs a "
                        "full-length ramp homotopy to converge)")
    p.add_argument("--p", type=float, help="firing probability for bernoulli")
    p.add_argument("--workers", type=int, help="simulated workers (distributed); each read lags "
                        "by workers - 1 updates")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p.add_argument("--max-equiv-iters", type=float,
                   help="budget in equivalent iterations (default 2000)")
    p.add_argument("--tol", type=float,
                   help="stopping residual at gamma=1 (default 1e-8)")
    p.add_argument("--homotopy",
                   help="none | bp | ramp:alpha0:steps (default bp)")
    p.add_argument("--out", help="output directory (default .)")
    p.add_argument("--config", help="JSON file mirroring these flags")


def build_parser() -> argparse.ArgumentParser:
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
    pe.add_argument("--preset", choices=("chebyshev", "bp"), required=True)
    pe.add_argument("--n", type=int, help="dimension (default 10 / 64)")
    pe.add_argument("--m", type=int, help="constraints/measurements "
                                          "(default 20 / 32)")
    pe.add_argument("--sparsity", type=int, help="bp nonzeros (default 4)")
    pe.add_argument("--trials", type=int, help="number of trials (default 50)")
    pe.add_argument("--p-list", help="comma-separated firing probabilities "
                                     "(default 0.2,0.4,0.6,0.8)")
    _add_common(pe)

    po = sub.add_parser("oracle", help="brute-force reference solution")
    po.add_argument("--problem", required=True, help="problem JSON file")
    po.add_argument("--out", help="also write oracle.json here")
    return parser


_DEFAULTS = {
    "mode": None,  # per-command default applied below
    "p": 0.5,
    "workers": 1,
    "seed": 0,
    "max_equiv_iters": 2000.0,
    "tol": 1e-8,
    "homotopy": "bp",
    "out": ".",
}

_EXPERIMENT_DEFAULTS = {
    "chebyshev": {"n": 10, "m": 20, "sparsity": None},
    "bp": {"n": 64, "m": 32, "sparsity": 4},
}


def _apply_config_and_defaults(args: argparse.Namespace) -> argparse.Namespace:
    config = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = json.load(fh)
    for key, value in config.items():
        attr = key.replace("-", "_")
        if getattr(args, attr, None) is None:
            setattr(args, attr, value)
    for key, default in _DEFAULTS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, default)
    if args.mode is None:
        args.mode = "bernoulli"
    if args.command == "experiment":
        for key, default in _EXPERIMENT_DEFAULTS[args.preset].items():
            if getattr(args, key, None) is None:
                setattr(args, key, default)
        if getattr(args, "p_list", None) is None:
            args.p_list = "0.2,0.4,0.6,0.8"
        if isinstance(args.p_list, str):
            args.p_list = [float(tok) for tok in args.p_list.split(",") if tok]
        if getattr(args, "trials", None) is None:
            args.trials = 50
    return args


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "oracle":
        return cmd_oracle(args)
    args = _apply_config_and_defaults(args)
    if args.command == "solve":
        return cmd_solve(args)
    if args.command == "experiment":
        return cmd_experiment(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
