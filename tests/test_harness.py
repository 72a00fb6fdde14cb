"""Experiment driver: seeding, pairing, CSV round trips, summaries."""

import dataclasses

import numpy as np
import pytest

from latticealign.errors import ConfigurationError
from latticealign.harness import (
    ExperimentSpec,
    ResultRow,
    child_seed,
    experiment_from_json,
    read_csv,
    run_experiment,
    summarize,
    write_csv,
)
from latticealign.solver import SolverConfig


def _spec(**over):
    base = dict(
        methods=("tdma", "two_stage_ml"),
        K_grid=(3,),
        snr_db_grid=(10.0,),
        epsilon_grid=(0.0,),
        M=2,
        N=2,
        L=1,
        trials=2,
        seed=7,
        dist_ia_iters=40,
    )
    base.update(over)
    return ExperimentSpec(**base)


def test_child_seed_depends_on_coordinates_only():
    a = child_seed(7, 3, 11.5, 0.1, 4, "channel")
    assert a == child_seed(7, 3, 11.5, 0.1, 4, "channel")
    assert a == child_seed(7, 3, 11.500, 0.1, 4, "channel")  # same float
    assert a != child_seed(7, 3, 11.5, 0.1, 4, "perturb")
    assert a != child_seed(8, 3, 11.5, 0.1, 4, "channel")
    assert a != child_seed(7, 4, 11.5, 0.1, 4, "channel")
    assert a != child_seed(7, 3, 11.5, 0.1, 5, "channel")
    assert 0 <= a < 2**64


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        _spec(methods=("nope",))
    with pytest.raises(ConfigurationError):
        _spec(methods=("generalized_hk",))
    with pytest.raises(ConfigurationError):
        _spec(methods=())
    with pytest.raises(ConfigurationError):
        _spec(K_grid=())
    with pytest.raises(ConfigurationError):
        _spec(K_grid=(0,))
    with pytest.raises(ConfigurationError):
        _spec(epsilon_grid=(-0.1,))
    with pytest.raises(ConfigurationError):
        _spec(trials=0)
    with pytest.raises(ConfigurationError):
        _spec(n_starts=0)
    for iters in (0, -3):
        with pytest.raises(ConfigurationError, match="dist_ia_iters"):
            _spec(dist_ia_iters=iters)
    with pytest.raises(ConfigurationError):
        _spec(objective="best")
    for name, bad in (
        ("trials", 1.5), ("trials", True), ("n_starts", 2.0), ("dist_ia_iters", 10.5),
        ("seed", 0.5), ("seed", False), ("K_grid", (2.7,)), ("K_grid", (3, True)),
        ("M", True), ("N", 2.0), ("L", False),
    ):
        with pytest.raises(ConfigurationError, match=name):
            _spec(**{name: bad})
    assert _spec(trials=np.int64(2), K_grid=(np.int64(3),)).K_grid == (3,)
    assert type(_spec(M=np.int64(2)).M) is int
    for name in ("M", "N", "L"):
        with pytest.raises(ConfigurationError, match=f"{name} must be >= 1"):
            _spec(**{name: 0})


def test_run_experiment_row_grid():
    spec = _spec(epsilon_grid=(0.0, 0.2), trials=2)
    rows = run_experiment(spec)
    assert len(rows) == 2 * 2 * 2  # methods x epsilons x trials
    assert all(r.converged for r in rows)
    # methods within one (epsilon, trial) cell share the channel seed
    by_cell = {}
    for r in rows:
        by_cell.setdefault((r.epsilon, r.trial), set()).add(r.seed)
    assert all(len(seeds) == 1 for seeds in by_cell.values())
    # perfect CSI: nothing is in outage, worst goodput equals the design rate
    for r in rows:
        if r.epsilon == 0.0:
            assert r.worst_goodput == pytest.approx(r.r_min_design, abs=1e-12)


def test_trial_channels_stable_under_grid_growth():
    rows_small = run_experiment(_spec(epsilon_grid=(0.0,)))
    rows_large = run_experiment(_spec(epsilon_grid=(0.0, 0.3)))
    small = {(r.method, r.trial): r for r in rows_small}
    large = {(r.method, r.trial): r for r in rows_large if r.epsilon == 0.0}
    assert small.keys() == large.keys()
    for key, r in small.items():
        other = large[key]
        assert r.seed == other.seed
        assert r.worst_goodput == other.worst_goodput
        assert r.sum_goodput == other.sum_goodput


def test_lattice_runner_smoke():
    spec = _spec(
        methods=("lattice", "distributive_ia"),
        epsilon_grid=(0.1,),
        trials=1,
        n_starts=1,
        dist_ia_iters=30,
    )
    rows = run_experiment(spec)
    lattice = next(r for r in rows if r.method == "lattice")
    dia = next(r for r in rows if r.method == "distributive_ia")
    assert lattice.converged
    assert lattice.worst_goodput >= 0.0
    assert lattice.seed == dia.seed


def test_lattice_sum_objective_smoke():
    spec = _spec(methods=("lattice",), trials=1, n_starts=1,
                 objective="sum", dist_ia_iters=30)
    row = run_experiment(spec)[0]
    assert row.sum_goodput >= row.worst_goodput * row.K - 1e-9


def _toy_rows():
    return [
        ResultRow(method="tdma", K=3, M=2, N=2, L=1, snr_db=10.0, epsilon=0.1,
                  trial=0, seed=11, worst_goodput=1.25, sum_goodput=4.5,
                  r_min_design=1.3, converged=True, wall_ms=12.5),
        ResultRow(method="tdma", K=3, M=2, N=2, L=1, snr_db=10.0, epsilon=0.1,
                  trial=1, seed=12, worst_goodput=0.0, sum_goodput=2.0,
                  r_min_design=1.1, converged=False, wall_ms=8.25),
        ResultRow(method="lattice", K=3, M=2, N=2, L=1, snr_db=10.0, epsilon=0.1,
                  trial=0, seed=11, worst_goodput=2.0, sum_goodput=6.0,
                  r_min_design=2.0, converged=True, wall_ms=90.0),
    ]


def test_csv_round_trip(tmp_path):
    rows = _toy_rows()
    path = tmp_path / "out.csv"
    write_csv(rows, str(path), timing=True)
    back = read_csv(str(path))
    assert back == rows
    header = path.read_text().splitlines()[0]
    assert header == ("method,K,M,N,L,snr_db,epsilon,trial,seed,"
                      "worst_goodput,sum_goodput,r_min_design,converged,wall_ms")


def test_csv_zeroes_wall_time_by_default(tmp_path):
    rows = _toy_rows()
    path = tmp_path / "out.csv"
    write_csv(rows, str(path))
    back = read_csv(str(path))
    assert all(r.wall_ms == 0.0 for r in back)
    assert [r.converged for r in back] == [True, False, True]
    # original rows are untouched
    assert rows[0].wall_ms == 12.5


def test_csv_reruns_byte_identical(tmp_path):
    spec = _spec(trials=3)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_experiment(spec), str(p1))
    write_csv(run_experiment(spec), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_floats_survive_exactly(tmp_path):
    row = dataclasses.replace(_toy_rows()[0], worst_goodput=0.1 + 0.2)
    path = tmp_path / "out.csv"
    write_csv([row], str(path))
    assert read_csv(str(path))[0].worst_goodput == 0.1 + 0.2


def test_summarize_groups_and_sorts():
    rows = _toy_rows()
    cells = summarize(rows)
    assert [c["method"] for c in cells] == ["lattice", "tdma"]
    tdma = cells[1]
    assert tdma["trials"] == 2
    assert tdma["worst_goodput_mean"] == pytest.approx(0.625)
    assert tdma["worst_goodput_median"] == pytest.approx(0.625)
    assert tdma["sum_goodput_mean"] == pytest.approx(3.25)
    assert tdma["converged_frac"] == pytest.approx(0.5)
    assert cells[0]["converged_frac"] == 1.0


def test_experiment_from_json_minimal():
    spec = experiment_from_json(
        '{"methods": ["tdma"], "K_grid": [3], "snr_db_grid": [10.0],'
        ' "epsilon_grid": [0.0], "M": 2, "N": 2}'
    )
    assert spec.methods == ("tdma",)
    assert spec.trials == 100
    assert spec.solver is None


def test_experiment_from_json_solver_section():
    spec = experiment_from_json(
        '{"methods": ["tdma"], "K_grid": [3], "snr_db_grid": [10.0],'
        ' "epsilon_grid": [0.0], "M": 2, "N": 2,'
        ' "solver": {"max_outer_iters": 4, "rate_tol": 0.001}}'
    )
    assert isinstance(spec.solver, SolverConfig)
    assert spec.solver.max_outer_iters == 4
    assert spec.solver.rate_tol == 0.001


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("not json", "not valid JSON"),
        ("[1, 2]", "must be a JSON object"),
        ('{"methods": ["tdma"], "K_grid": [3], "snr_db_grid": [10.0],'
         ' "epsilon_grid": [0.0], "M": 2, "N": 2, "bogus": 1}', "unknown config keys"),
        ('{"methods": ["tdma"], "K_grid": [3]}', "missing config keys"),
        ('{"methods": "tdma", "K_grid": [3], "snr_db_grid": [10.0],'
         ' "epsilon_grid": [0.0], "M": 2, "N": 2}', "must be a list"),
        ('{"methods": ["tdma"], "K_grid": [3], "snr_db_grid": [10.0],'
         ' "epsilon_grid": [0.0], "M": 2, "N": 2, "solver": 5}', "solver must be"),
        ('{"methods": ["tdma"], "K_grid": [3], "snr_db_grid": [10.0],'
         ' "epsilon_grid": [0.0], "M": 2, "N": 2, "solver": {"zzz": 1}}',
         "unknown solver keys"),
        ('{"methods": ["tdma"], "K_grid": [3], "snr_db_grid": [10.0],'
         ' "epsilon_grid": [0.0], "M": 2, "N": 2,'
         ' "solver": {"init_strategy": "random_unit"}}',
         "unknown solver keys"),
        ('{"methods": ["tdma"], "K_grid": [3], "snr_db_grid": [10.0],'
         ' "epsilon_grid": [0.0], "M": 2, "N": 2, "solver": {"barrier_q0": 2.0}}',
         "unknown solver keys"),
        *(
            ('{"methods": ["tdma"], "K_grid": [3], "snr_db_grid": [10.0],'
             ' "epsilon_grid": [0.0], "M": 2, "N": 2, "solver": {"%s": %s}}' % (key, value),
             key)
            for key, value in (
                ("max_inner_iters", '"5"'), ("max_inner_iters", "2.5"),
                ("max_outer_iters", "true"), ("rate_tol", "NaN"),
                ("newton_tol", "Infinity"), ("barrier_nu", "Infinity"),
                ("barrier_tol", '"1e-6"'),
            )
        ),
        ('{"methods": ["tdma"], "K_grid": [3], "snr_db_grid": [0.0, NaN],'
         ' "epsilon_grid": [0.0], "M": 2, "N": 2}', "snr_db_grid entries must be finite"),
        ('{"methods": ["tdma"], "K_grid": [3], "snr_db_grid": [10.0],'
         ' "epsilon_grid": [0.0, Infinity], "M": 2, "N": 2}',
         "epsilon_grid entries must be finite"),
    ],
)
def test_experiment_from_json_rejects(text, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        experiment_from_json(text)


def test_trial_computes_the_alignment_design_once(monkeypatch):
    """The lattice start and the distributive-IA baseline share one design."""
    from latticealign import baselines

    calls = []
    real = baselines.distributive_ia_design

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return real(*args, **kwargs)

    monkeypatch.setattr(baselines, "distributive_ia_design", counted)
    spec = _spec(methods=("lattice", "distributive_ia"), epsilon_grid=(0.1,), trials=2,
                 solver=SolverConfig(max_outer_iters=2))
    rows = run_experiment(spec)
    assert len(rows) == 4
    assert len(calls) == 2


def test_lattice_seeds_alignment_streams_as_columns(monkeypatch):
    """At M == L the alignment precoders reach the solver with stream l taken
    from column l of each user's (M, L) matrix, not from row l."""
    from latticealign import baselines, harness
    from latticealign.solver import state_from_precoders

    designs, seeded = [], []
    real = baselines.distributive_ia_design

    def recorded(*args, **kwargs):
        designs.append(real(*args, **kwargs))
        return designs[-1]

    class Captured(Exception):
        pass

    def capture(ch, cfg, **kwargs):
        seeded.append((cfg, kwargs["extra_precoders"]))
        raise Captured

    monkeypatch.setattr(baselines, "distributive_ia_design", recorded)
    monkeypatch.setattr(harness, "multi_start", capture)
    with pytest.raises(Captured):
        run_experiment(_spec(methods=("lattice",), M=2, N=2, L=2, trials=1))
    [(cfg, (V,))] = seeded
    V_ia = designs[0][0]
    v = state_from_precoders(cfg, V).v
    for k in range(cfg.K):
        for l in range(cfg.L):
            a, b = v[k, l], V_ia[k][:, l]
            assert abs(np.vdot(a, b)) == pytest.approx(np.linalg.norm(a) * np.linalg.norm(b))
