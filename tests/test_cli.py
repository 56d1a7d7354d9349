import argparse
import csv
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import asynclp
from asynclp import cli, engine, oracle, problems
from asynclp.formulation import StandardLP, save_problem, to_asynchronous_form


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
    path.write_text(json.dumps(problems.instance_to_dict(inst)))
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
    path.write_text(json.dumps(problems.instance_to_dict(inst)))
    rc = cli.main(["oracle", "--problem", str(path)])
    assert rc == 2


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


def test_config_unknown_key_is_an_error(lp_file, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_iters": 3}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--problem", str(lp_file), "--config", str(config),
                  "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert "max_iters" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


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

    def fake_run_once(system, args, seed, p, reference=None):
        rng = np.random.default_rng([seed, round(10 * p)])
        # trial 0 stops at unit 0, trial 1 records past the grid
        length = {0: 1, 1: units + 2}.get(seed, int(rng.integers(2, units + 1)))
        traj = engine.Trajectory()
        for u in range(length):
            traj.append(float(u), rng.normal(),
                        rng.random() * 10.0 ** -rng.integers(12), rng.random())
        trajs.setdefault(p, []).append(traj)
        return {"converged": True, "residual": traj.residual[-1]}, traj

    monkeypatch.setattr(cli, "_run_once", fake_run_once)
    out = tmp_path / "exp"
    rc = cli.main(["experiment", "--preset", "bp", "--n", "8", "--m", "4",
                   "--sparsity", "1", "--trials", str(trials),
                   "--p-list", "0.3,0.7", "--max-equiv-iters", str(units),
                   "--out", str(out)])
    assert rc == 0
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


def test_reference_falls_back_above_the_oracle_size_limit(monkeypatch):
    # C(25, 13) = 5.2M subsets is past the oracle's enumeration limit and
    # C(13, 7) = 1,716 is not; the same holds for C(32, 12) and C(4, 2)
    sentinel = {"deep": np.zeros(1)}
    monkeypatch.setattr(cli, "_deep_reference", lambda system, budget: sentinel)
    args = argparse.Namespace(max_equiv_iters=10.0)
    large = problems.gen_chebyshev(12, 24, seed=0)
    assert cli._reference_for(large, None, args) is sentinel
    small = cli._reference_for(problems.gen_chebyshev(6, 12, seed=0), None, args)
    assert small is not sentinel and set(small) == {"x_c", "r1"}
    rng = np.random.default_rng(0)
    wide = StandardLP(f=-np.ones(12), A=rng.random((20, 12)), b=np.ones(20))
    assert cli._reference_for(wide, None, args) is sentinel
    lp = StandardLP(f=[-1.0, -2.0], A=[[1.0, 1.0], [2.0, 1.0]], b=[4.0, 6.0])
    assert cli._reference_for(lp, None, args) is not sentinel


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])
    with pytest.raises(SystemExit):
        cli.main(["solve"])  # --problem is required


# ---------------------------------------------------------------------------
# public entry points

def test_traced_names_and_exports_resolve():
    # the traced benchmark run rebinds every TRACED name found in its owner's
    # __dict__; a renamed function would break it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, attrs in spans.TRACED.items():
        module = importlib.import_module(f"asynclp.{layer}")
        for attr in attrs:
            owner = module
            *parts, last = attr.split(".")
            for part in parts:
                owner = getattr(owner, part)
            assert last in owner.__dict__, f"{layer}.{attr}"
    for name in asynclp.__all__:
        assert hasattr(asynclp, name), name
