import csv
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import asynclp
from asynclp import cli, distributed, engine, oracle, problems, stationarity
from asynclp.formulation import StandardLP, to_asynchronous_form
from asynclp.problems import save_problem


@pytest.fixture
def lp_file(tmp_path):
    lp = StandardLP(f=[-1.0, -2.0], A=[[1.0, 1.0], [2.0, 1.0]], b=[4.0, 6.0])
    path = tmp_path / "lp.json"
    save_problem(lp, path)
    return path


@pytest.fixture
def cheb_file(tmp_path):
    inst = problems.gen_chebyshev(3, 6, seed=0)
    path = tmp_path / "cheb.json"
    save_problem(inst, path)
    return path


def _read_solution(out_dir):
    with open(out_dir / "solution.json") as fh:
        return json.load(fh)


def test_solve_standard_lp(lp_file, tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["solve", "--problem", str(lp_file), "--tol", "1e-9",
                   "--out", str(out)])
    assert rc == 0
    sol = _read_solution(out)
    assert sol["converged"] and sol["mode"] == "bernoulli"
    assert sol["objective"] == pytest.approx(-8.0, abs=1e-6)
    assert np.allclose(sol["variables"]["x1"], [0.0, 4.0], atol=1e-6)
    with open(out / "trajectory.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["equiv_iter", "objective", "residual", "dist_to_ref"]
    assert len(rows) > 2


def test_solve_async_form_file(tmp_path):
    prob = to_asynchronous_form(
        StandardLP(f=[-1.0, -2.0], A=[[1.0, 1.0], [2.0, 1.0]], b=[4.0, 6.0]))
    path = tmp_path / "prob.json"
    save_problem(prob, path)
    out = tmp_path / "run"
    rc = cli.main(["solve", "--problem", str(path), "--mode", "randomk",
                   "--tol", "1e-9", "--out", str(out)])
    assert rc == 0
    sol = _read_solution(out)
    assert sol["converged"] and sol["mode"] == "randomk"
    assert sol["objective"] == pytest.approx(-8.0, abs=1e-6)


def test_solve_distributed_writes_reports(cheb_file, tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["solve", "--problem", str(cheb_file), "--mode", "distributed",
                   "--workers", "2", "--tol", "1e-8", "--out", str(out)])
    assert rc == 0
    sol = _read_solution(out)
    assert sol["workers"] == 2 and len(sol["worker_reports"]) == 2
    assert sol["converged"]


def test_distributed_one_worker_writes_randomk_solution(cheb_file, tmp_path):
    # one worker applies randomk's updates; at a fractional budget both stop
    # mid-unit, after the trajectory's last row, and must report the same
    # equivalent iterations
    sols = {}
    for mode in ("randomk", "distributed"):
        out = tmp_path / mode
        cli.main(["solve", "--problem", str(cheb_file), "--mode", mode,
                  "--max-equiv-iters", "2.5", "--out", str(out)])
        sols[mode] = _read_solution(out)
    for key in ("equivalent_iterations", "residual", "objective", "variables"):
        assert sols["distributed"][key] == sols["randomk"][key], key
    assert sols["randomk"]["equivalent_iterations"] > 2.5


def test_solve_with_reference_and_dump(cheb_file, tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["solve", "--problem", str(cheb_file), "--with-reference",
                   "--dump-system", "--tol", "1e-9", "--out", str(out)])
    assert rc == 0
    data = np.load(out / "system.npz")
    assert "Gprime" in data.files and "e" in data.files
    with open(out / "trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    dist = [float(r["dist_to_ref"]) for r in rows]
    assert np.isfinite(dist).all()
    assert dist[-1] <= 1e-4


def test_solve_sync_with_ramp(lp_file, tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["solve", "--problem", str(lp_file), "--mode", "sync",
                   "--homotopy", "ramp:0.5:2500", "--max-equiv-iters", "2600",
                   "--tol", "1e-8", "--out", str(out)])
    assert rc == 0
    assert _read_solution(out)["converged"]


def test_solve_infeasible_exits_not_converged(tmp_path, capsys):
    path = tmp_path / "infeasible.json"
    save_problem(StandardLP(f=[1.0], A=[[1.0]], b=[-1.0]), path)
    rc = cli.main(["solve", "--problem", str(path), "--max-equiv-iters", "200",
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "NOT converged" in capsys.readouterr().out


def test_oracle_command(lp_file, capsys, tmp_path):
    rc = cli.main(["oracle", "--problem", str(lp_file),
                   "--out", str(tmp_path / "o")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "optimal"
    assert np.allclose(out["x_star"], [0.0, 4.0], atol=1e-9)
    with open(tmp_path / "o" / "oracle.json") as fh:
        assert json.load(fh)["status"] == "optimal"


def test_oracle_rejects_basis_pursuit(tmp_path, capsys):
    inst = problems.gen_basis_pursuit(8, 4, 2, seed=0)
    path = tmp_path / "bp.json"
    save_problem(inst, path)
    rc = cli.main(["oracle", "--problem", str(path)])
    assert rc == 2


# malformed files the constructors, problem_from_dict or reduce refuse, and
# (None) a path with no file
_INVALID_FILES = {
    "missing": None,
    "nan": {"kind": "chebyshev", "A": [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
            "b": [1.0, float("nan"), 1.0]},
    "unknown-key": {"kind": "standard_lp", "f": [1.0], "A": [[1.0]],
                    "b": [1.0], "c": [1.0]},
    "no-affine": {"kind": "async_form", "B": [[1.0]],
                  "inputs": [{"name": "u", "role": "input",
                              "kind": "non_negative", "length": 1}],
                  "outputs": [{"name": "v", "role": "output",
                               "kind": "non_negative", "length": 1}]},
    "float-length": {"kind": "async_form", "B": [[1.0]],
                     "inputs": [{"name": "u", "role": "input", "kind": "fixed",
                                 "length": 1.0, "rho": [1.0]}],
                     "outputs": [{"name": "v", "role": "output",
                                  "kind": "non_negative", "length": 1}]},
}


@pytest.mark.parametrize("name", list(_INVALID_FILES))
@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_invalid_problem_file_exits_2(command, name, tmp_path, capsys):
    # invalid input is labelled with exit 2 and one line, never a traceback
    # or an answer; exit 1 stays "NOT converged"
    path = tmp_path / f"{name}.json"
    if _INVALID_FILES[name] is not None:
        path.write_text(json.dumps(_INVALID_FILES[name]))
    rc = cli.main([command, "--problem", str(path),
                   "--out", str(tmp_path / "run")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    if command == "solve" or name != "no-affine":
        assert err[0].startswith(f"invalid problem {path}: ")
    assert not (tmp_path / "run").exists()


def test_solve_basis_pursuit_reference_is_the_planted_solution(tmp_path):
    inst = problems.gen_basis_pursuit(16, 8, 2, seed=1)
    path = tmp_path / "bp.json"
    save_problem(inst, path)
    out = tmp_path / "run"
    rc = cli.main(["solve", "--problem", str(path), "--with-reference",
                   "--tol", "1e-9", "--out", str(out)])
    assert rc == 0
    with open(out / "trajectory.csv") as fh:
        dist = [float(r["dist_to_ref"]) for r in csv.DictReader(fh)]
    system = stationarity.build_system(problems.basis_pursuit_encode(inst))
    start = engine.init_state(system)
    x0 = problems.basis_pursuit_recover(system, start.d2, start.c2)
    assert dist[0] == pytest.approx(np.linalg.norm(x0 - inst.x_true),
                                    rel=1e-12)
    assert dist[-1] <= 1e-6


def test_config_file_merge_and_flag_precedence(lp_file, tmp_path):
    # sync mode fires exactly K updates per step, so the budget is hit exactly
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_equiv_iters": 7, "seed": 3,
                                  "tol": 0.0, "mode": "sync"}))
    out = tmp_path / "run"
    cli.main(["solve", "--problem", str(lp_file), "--config", str(config),
              "--out", str(out)])
    sol = _read_solution(out)
    assert sol["mode"] == "sync"
    assert sol["equivalent_iterations"] == pytest.approx(7.0)

    out2 = tmp_path / "run2"
    cli.main(["solve", "--problem", str(lp_file), "--config", str(config),
              "--max-equiv-iters", "4", "--out", str(out2)])
    sol2 = _read_solution(out2)
    assert sol2["equivalent_iterations"] == pytest.approx(4.0)


@pytest.mark.parametrize("command", ["solve", "experiment"])
def test_config_value_outside_choices_is_an_error(command, lp_file, tmp_path,
                                                  capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode": "bogus"}))
    argv = {"solve": ["solve", "--problem", str(lp_file)],
            "experiment": ["experiment", "--preset", "bp", "--n", "8", "--m",
                           "4", "--sparsity", "1", "--trials", "1"]}[command]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--config", str(config), "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'mode'" in err and "bogus" in err and "randomk" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("content, message", [
    ('{"max_iters": 3}', "max_iters"),
    (None, "config file"),
    ("{not json", "config file"),
    ("[1, 2]", "config file"),
    # values the flag's type cannot take
    ('{"tol": null}', "'tol'"),
    ('{"max_equiv_iters": null}', "'max_equiv_iters'"),
    ('{"tol": [1]}', "'tol'"),
], ids=["unknown-key", "missing", "not-json", "json-list", "tol-null",
        "budget-null", "tol-list"])
def test_broken_config_is_an_error(content, message, lp_file, tmp_path,
                                   capsys):
    config = tmp_path / "config.json"
    if content is not None:
        config.write_text(content)
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--problem", str(lp_file), "--config", str(config),
                  "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


_EXPERIMENT = ["experiment", "--preset", "chebyshev", "--n", "3", "--m", "6",
               "--trials", "1", "--max-equiv-iters", "5"]


@pytest.mark.parametrize("argv", [
    ["solve", "--p", "2"],
    ["solve", "--seed", "-1"],
    ["solve", "--mode", "distributed", "--workers", "0"],
    ["solve", "--homotopy", "bogus"],
    ["solve", "--homotopy", "ramp:1.5:10"],
    ["solve", "--max-equiv-iters", "nan"],
    ["solve", "--max-equiv-iters", "inf"],
    _EXPERIMENT + ["--p-list", "0"],
    _EXPERIMENT + ["--n", "0"],
    _EXPERIMENT + ["--trials", "0"],
    _EXPERIMENT + ["--p-list", ""],
    # one group per firing probability: a repeat would count its trials twice
    _EXPERIMENT + ["--p-list", "0.5,0.5"],
    _EXPERIMENT + ["--mode", "distributed", "--workers", "0"],
    # the generator accepts m = 0 and the encoder refuses it
    ["experiment", "--preset", "bp", "--trials", "1", "--m", "0"],
    _EXPERIMENT + ["--max-equiv-iters", "-1"],
    _EXPERIMENT + ["--max-equiv-iters", "0.5"],
    # no residual is ever at or below these, so the whole budget is spent
    ["solve", "--tol", "nan"],
    ["solve", "--tol", "-1"],
    _EXPERIMENT + ["--tol", "nan"],
    _EXPERIMENT + ["--tol", "-1"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_bad_flag_values_are_usage_errors(argv, lp_file, tmp_path, capsys):
    # refused before anything is written, as exit 2 (exit 1 means "NOT
    # converged"); an uncaught exception would escape pytest.raises
    if argv[0] == "solve":
        argv = argv[:1] + ["--problem", str(lp_file)] + argv[1:]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_config_value_inside_choices_runs(lp_file, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode": "randomk", "max_equiv_iters": 5}))
    out = tmp_path / "run"
    cli.main(["solve", "--problem", str(lp_file), "--config", str(config),
              "--out", str(out)])
    assert _read_solution(out)["mode"] == "randomk"


def test_config_string_values_parse_like_flags(lp_file, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_equiv_iters": "5", "tol": "0",
                                  "mode": "sync"}))
    out = tmp_path / "run"
    cli.main(["solve", "--problem", str(lp_file), "--config", str(config),
              "--out", str(out)])
    assert _read_solution(out)["equivalent_iterations"] == 5.0


@pytest.mark.parametrize("p_list", ["0.2,0.5", [0.2, 0.5]], ids=["string", "list"])
def test_config_p_list_as_string_or_list(p_list, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"p-list": p_list, "max-equiv-iters": 5}))
    out = tmp_path / "exp"
    rc = cli.main(["experiment", "--preset", "bp", "--n", "8", "--m", "4",
                   "--sparsity", "1", "--trials", "1", "--config", str(config),
                   "--out", str(out)])
    assert rc == 0
    with open(out / "summary.json") as fh:
        assert list(json.load(fh)["groups"]) == ["p=0.2", "p=0.5"]


def test_experiment_bp_battery(tmp_path):
    out = tmp_path / "exp"
    rc = cli.main(["experiment", "--preset", "bp", "--n", "16", "--m", "8",
                   "--sparsity", "2", "--trials", "2", "--p-list", "0.5,1.0",
                   "--max-equiv-iters", "400", "--tol", "1e-9",
                   "--out", str(out)])
    assert rc == 0
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["groups"]["p=0.5"]["converged"] == 2
    for name in ("experiment_p0.5.csv", "experiment_p1.0.csv",
                 "experiment_combined.csv"):
        assert (out / name).exists()
    with open(out / "experiment_p0.5.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 401
    # converged trials hold their final values to the end of the grid
    assert float(rows[-1]["log10_residual_median"]) < -8.0
    # the planted solution is the reference, so dist must fall with residual
    assert float(rows[-1]["log10_dist_median"]) < -6.0
    # p=1 is the synchronous recurrence: an explicit sync-mode experiment
    # must reproduce the p=1.0 aggregate bit-for-bit
    out_sync = tmp_path / "exp_sync"
    rc = cli.main(["experiment", "--preset", "bp", "--n", "16", "--m", "8",
                   "--sparsity", "2", "--trials", "2", "--mode", "sync",
                   "--max-equiv-iters", "400", "--tol", "1e-9",
                   "--out", str(out_sync)])
    assert rc == 0
    assert (out / "experiment_p1.0.csv").read_text() == \
        (out_sync / "experiment_sync.csv").read_text()


def test_experiment_chebyshev_bernoulli(tmp_path):
    out = tmp_path / "exp"
    rc = cli.main(["experiment", "--preset", "chebyshev", "--n", "3",
                   "--m", "6", "--trials", "2", "--mode", "bernoulli",
                   "--p-list", "0.5", "--max-equiv-iters", "1500",
                   "--tol", "1e-8", "--out", str(out)])
    assert rc == 0
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert list(summary["groups"]) == ["p=0.5"]
    assert summary["groups"]["p=0.5"]["converged"] == 2
    assert summary["groups"]["p=0.5"]["median_final_residual"] < 1e-6
    assert (out / "experiment_p0.5.csv").exists()


def test_experiment_sets_up_each_trial_once(tmp_path, monkeypatch):
    calls = []
    reference = oracle.solve_chebyshev_reference

    def counted(A, b):
        calls.append(1)
        return reference(A, b)

    monkeypatch.setattr(oracle, "solve_chebyshev_reference", counted)
    rc = cli.main(["experiment", "--preset", "chebyshev", "--n", "3",
                   "--m", "6", "--trials", "2", "--p-list", "0.2,0.5,0.8",
                   "--max-equiv-iters", "50", "--out", str(tmp_path / "exp")])
    assert rc == 0
    assert len(calls) == 2


def test_experiment_aggregates_each_unit_over_trials(tmp_path, monkeypatch):
    # synthetic trajectories of random lengths: every CSV value must equal,
    # bit for bit, np.mean / np.median of that unit's 1-D column over the
    # trials (nine trials, so a pairwise and a running sum differ), and a
    # trial that stops early holds its final row to the end of the grid
    units, trials = 30, 9
    trajs = {}

    def fake_run_trials(systems, schedules, max_equiv_iters, tol, references):
        results = []
        for system, schedule in zip(systems, schedules):
            seed, p = schedule.seed, schedule.p
            rng = np.random.default_rng([seed, round(10 * p)])
            # trial 0 stops at unit 0, trial 1 records past the grid
            length = {0: 1, 1: units + 2}.get(seed,
                                             int(rng.integers(2, units + 1)))
            traj = engine.Trajectory()
            for u in range(length):
                traj.append(float(u), rng.normal(),
                            rng.random() * 10.0 ** -rng.integers(12),
                            rng.random())
            trajs.setdefault(p, []).append(traj)
            state = engine.init_state(system)
            state.converged = True
            results.append((state, traj))
        return results

    monkeypatch.setattr(engine, "run_trials", fake_run_trials)
    out = tmp_path / "exp"
    rc = cli.main(["experiment", "--preset", "bp", "--n", "8", "--m", "4",
                   "--sparsity", "1", "--trials", str(trials),
                   "--p-list", "0.3,0.7", "--max-equiv-iters", str(units),
                   "--out", str(out)])
    assert rc == 0
    assert sorted(trajs) == [0.3, 0.7]
    for p, group in trajs.items():
        assert len(group) == trials
        # the loop reference: each trial's row at unit u, or its final row
        columns = {"objective": [], "log10_residual": [], "log10_dist": []}
        for traj in group:
            held = np.minimum(np.arange(units + 1), len(traj) - 1)
            columns["objective"].append(np.asarray(traj.objective)[held])
            for name, values in (("log10_residual", traj.residual),
                                 ("log10_dist", traj.dist_to_ref)):
                values = np.asarray(values)[held]
                columns[name].append(np.log10(np.maximum(values, 1e-300)))
        with open(out / f"experiment_p{p}.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["equiv_iter"] for row in rows] == [str(u) for u in range(units + 1)]
        for u, row in enumerate(rows):
            for name, per_trial in columns.items():
                column = np.array([values[u] for values in per_trial])
                assert float(row[f"{name}_mean"]) == np.mean(column), (p, u, name)
                assert float(row[f"{name}_median"]) == np.median(column), (p, u, name)


@pytest.mark.parametrize("mode", ["sync", "sweep", "bernoulli", "randomk",
                                  "distributed"])
def test_stacked_experiment_never_runs_trials_one_by_one(mode, tmp_path,
                                                         monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("engine.run called by a stacked battery")

    # run_distributed runs under engine.run
    monkeypatch.setattr(engine, "run", refuse)
    out = tmp_path / "exp"
    rc = cli.main(["experiment", "--preset", "bp", "--n", "16", "--m", "8",
                   "--sparsity", "2", "--trials", "3", "--mode", mode,
                   "--workers", "3" if mode == "distributed" else "1",
                   "--p-list", "0.3,1.0", "--max-equiv-iters", "40",
                   "--out", str(out)])
    assert rc == 0
    with open(out / "summary.json") as fh:
        groups = json.load(fh)["groups"]
    assert list(groups) == (["p=0.3", "p=1.0"] if mode == "bernoulli"
                            else [mode])


def test_experiment_stacks_trials_in_chunks(tmp_path, monkeypatch):
    # a cap of two trials' bytes: three calls for five trials of
    # two groups, and outputs bitwise those of one stack
    _assert_chunks_equal_one_stack(tmp_path, monkeypatch)


def test_experiment_chunks_trials_that_tick_one_by_one(tmp_path, monkeypatch):
    # the same with the size threshold of fired-column ticks lowered to
    # K = 7, where trials tick one by one and trial_bytes counts one G'^T
    # per trial in place of a stacked copy of G' per group
    monkeypatch.setattr(engine, "_FIRED_ROWS_K", 7)
    _assert_chunks_equal_one_stack(tmp_path, monkeypatch)


def _assert_chunks_equal_one_stack(tmp_path, monkeypatch):
    argv = ["experiment", "--preset", "chebyshev", "--n", "3", "--m", "6",
            "--trials", "5", "--p-list", "0.4,0.9", "--max-equiv-iters", "60"]
    assert cli.main(argv + ["--out", str(tmp_path / "one")]) == 0
    calls = []
    run_trials = engine.run_trials

    def counted(systems, *args):
        calls.append(len(systems))
        return run_trials(systems, *args)

    system = stationarity.build_system(problems.chebyshev_encode(
        problems.gen_chebyshev(3, 6)))
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 2 * engine.trial_bytes(system, 2, 60))
    monkeypatch.setattr(engine, "run_trials", counted)
    assert cli.main(argv + ["--out", str(tmp_path / "chunks")]) == 0
    assert calls == [4, 4, 2]
    for name in ("experiment_p0.4.csv", "experiment_p0.9.csv",
                 "experiment_combined.csv", "summary.json"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "chunks" / name).read_bytes()


def test_reference_falls_back_above_the_oracle_size_limit():
    # C(25, 13) = 5.2M subsets is past the oracle's enumeration limit and
    # C(13, 7) = 1,716 is not; the same holds for C(32, 12) and C(4, 2).
    # Past the limit there is no reference.
    large = problems.gen_chebyshev(12, 24, seed=0)
    assert cli._reference_for(large) is None
    small = cli._reference_for(problems.gen_chebyshev(6, 12, seed=0))
    assert small is not None and set(small) == {"x_c", "r1"}
    rng = np.random.default_rng(0)
    wide = StandardLP(f=-np.ones(12), A=rng.random((20, 12)), b=np.ones(20))
    assert cli._reference_for(wide) is None
    lp = StandardLP(f=[-1.0, -2.0], A=[[1.0, 1.0], [2.0, 1.0]], b=[4.0, 6.0])
    assert cli._reference_for(lp) is not None


def test_oracle_refuses_an_instance_too_large_to_enumerate(tmp_path, capsys):
    # a valid file past the enumeration limit: exit 2 and one line, never a
    # traceback or exit 1, the "NOT converged" code
    path = tmp_path / "cheb.json"
    save_problem(problems.gen_chebyshev(12, 24, seed=0), path)
    rc = cli.main(["oracle", "--problem", str(path),
                   "--out", str(tmp_path / "run")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and str(path) in err[0] and "too large" in err[0]
    assert not (tmp_path / "run").exists()


def test_experiment_has_no_p_flag(tmp_path):
    # bernoulli groups take --p-list, and no other mode reads p
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiment", "--preset", "bp", "--n", "8", "--m", "4",
                  "--sparsity", "1", "--trials", "1", "--max-equiv-iters", "1",
                  "--p", "0.3", "--out", str(tmp_path / "exp")])
    assert exc.value.code == 2
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "PROBLEM", "--max", "5"],
    ["experiment", "--preset", "bp", "--n", "8", "--m", "4", "--sparsity", "1",
     "--trials", "1", "--p-l", "0.3"],
], ids=["solve --max", "experiment --p-l"])
def test_flag_abbreviations_are_refused(argv, lp_file, tmp_path, capsys):
    # no prefix matching: an abbreviation that names one flag today would
    # change meaning when a flag sharing its prefix is added
    argv = [str(lp_file) if a == "PROBLEM" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_full_flag_names_and_config_keys_still_parse(lp_file, tmp_path):
    out = tmp_path / "run"
    cli.main(["solve", "--problem", str(lp_file), "--max-equiv-iters", "5",
              "--mode", "sync", "--tol", "0", "--out", str(out)])
    assert _read_solution(out)["equivalent_iterations"] == 5.0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max-equiv-iters": 3, "p-list": "0.3"}))
    out = tmp_path / "exp"
    assert cli.main(["experiment", "--preset", "bp", "--n", "8", "--m", "4",
                     "--sparsity", "1", "--trials", "1", "--config",
                     str(config), "--out", str(out)]) == 0
    with open(out / "summary.json") as fh:
        assert list(json.load(fh)["groups"]) == ["p=0.3"]


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])
    with pytest.raises(SystemExit):
        cli.main(["solve"])  # --problem is required


# ---------------------------------------------------------------------------
# public entry points

def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_and_exports_resolve():
    # the traced benchmark run rebinds every TRACED name found in its owner's
    # __dict__; a renamed function would break it
    spans = _load_spans()
    for layer, attrs in spans.TRACED.items():
        module = importlib.import_module(f"asynclp.{layer}")
        for attr in attrs:
            owner = module
            *parts, last = attr.split(".")
            for part in parts:
                owner = getattr(owner, part)
            assert last in owner.__dict__, f"{layer}.{attr}"
            assert callable(owner.__dict__[last]), f"{layer}.{attr}"
    traced = {f"{layer}.{attr}" for layer, attrs in spans.TRACED.items()
              for attr in attrs}
    # the update paths' names stay pinned, the kernel's callers among them
    assert {"engine.incremental_step", "engine.sweep_step",
            "distributed.worker_update", "distributed.init_array",
            "distributed.AssocArray.snapshot_d2",
            "distributed.AssocArray.snapshot_c2",
            "stationarity.StationaritySystem.m_scalar"} <= traced
    assert set(spans.HOOKS) | set(spans.TICKS) | set(spans.MONITOR) <= traced
    for name in asynclp.__all__:
        assert hasattr(asynclp, name), name


def test_package_imports_no_scipy():
    # scipy is a test dependency only: importing the package and every
    # submodule, cli included, in a fresh interpreter loads none of it
    code = ("import importlib, pkgutil, sys, asynclp\n"
            "for m in pkgutil.iter_modules(asynclp.__path__):\n"
            "    importlib.import_module('asynclp.' + m.name)\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    src = str(Path(asynclp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", "import json\n" + code],
                          env=env, capture_output=True, text=True, check=True)
    loaded = json.loads(proc.stdout)
    assert "asynclp.cli" in loaded and "asynclp.oracle" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_traced_hooks_fill_their_counters():
    # the traced benchmark run's hooks read attributes of the traced calls'
    # arguments and results; a renamed attribute would break them
    spans = _load_spans()
    tracer = spans.Tracer("test", "0")
    tracer.install()
    try:
        system = stationarity.build_system(
            problems.chebyshev_encode(problems.gen_chebyshev(3, 6, seed=0)))
        state, _ = engine.run(system, engine.ScheduleConfig(mode="bernoulli",
                                                            p=0.5),
                              max_equiv_iters=5, tol=0.0)
        *_, reports, _ = distributed.run_distributed(
            system, workers=2, max_equiv_iters=5, tol=0.0)
        # run_distributed fires through engine.coordinate_kernel, so the
        # update hook is reached by worker_update's own calls
        array = distributed.init_array(system)
        deltas = [distributed.worker_update(array, system, k, d_hat, 0.0)
                  for k, d_hat in [(0, array.d2[0]), (1, array.d2[1]),
                                   (1, 0.0)]]
    finally:
        tracer.uninstall()
    counters = tracer.counters()
    assert counters["stationarity.operator_bytes"] == sum(
        a.nbytes for a in (system.G, system.Gprime, system.G11, system.G12,
                           system.G21))
    # run_distributed runs under engine.run, so the run hook counts both runs
    assert counters["engine.fired_updates"] == state.fired_updates + sum(
        r.updates for r in reports)
    assert deltas[2] == 0.0 != deltas[0]
    assert counters["distributed.updates"] == 3
    assert counters["distributed.nonzero"] == sum(d != 0.0 for d in deltas)
    assert [r.updates for r in reports] == [(5 * system.n_nonlinear + 1) // 2,
                                            5 * system.n_nonlinear // 2]


def _plain_csv_lines(table):
    body = io.StringIO()
    csv.writer(body).writerows([u] + row for u, row in enumerate(table.tolist()))
    return body.getvalue().splitlines(keepends=True)


def test_csv_lines_equal_a_plain_writer():
    # repeated rows reuse their text; rows that are equal but not bitwise
    # (0.0 and -0.0) and rows of NaN are written as a plain writer does
    rng = np.random.default_rng(4)
    table = rng.normal(size=(6, 40)).T   # strided, as cmd_experiment's is
    table[25:] = table[24]
    table[4] = table[3]
    table[3, 1], table[4, 1] = -0.0, 0.0
    table[6:8] = table[5]
    table[5:8, 2] = np.nan
    table[30:32, 5] = 1e-300
    # floats whose repr is not plain digits: infinities, exponents and the
    # smallest subnormal
    table[10, :4] = np.inf, -np.inf, 1e16, 1e-5
    table[11:13, 0] = 5e-324
    assert cli._csv_lines(table) == _plain_csv_lines(table)
    assert cli._csv_lines(table[:1]) == _plain_csv_lines(table[:1])


def test_experiment_csv_files_equal_a_plain_writer(tmp_path, monkeypatch):
    # trials stop at tol, so their grids repeat their last rows
    argv = ["experiment", "--preset", "chebyshev", "--n", "3", "--m", "6",
            "--trials", "3", "--p-list", "0.5,1.0", "--max-equiv-iters", "400"]
    assert cli.main(argv + ["--out", str(tmp_path / "reused")]) == 0
    monkeypatch.setattr(cli, "_csv_lines", _plain_csv_lines)
    assert cli.main(argv + ["--out", str(tmp_path / "plain")]) == 0
    names = ["experiment_p0.5.csv", "experiment_p1.0.csv",
             "experiment_combined.csv"]
    for name in names:
        reused = (tmp_path / "reused" / name).read_bytes()
        assert reused == (tmp_path / "plain" / name).read_bytes(), name
    rows = list(csv.reader(io.StringIO(reused.decode())))
    assert len({tuple(r[2:]) for r in rows[1:]}) < len(rows) - 1
