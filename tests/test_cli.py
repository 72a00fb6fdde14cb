"""Command-line interface, driven in process through main(argv), and as a
process where its exit status is the point."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latticealign
from latticealign.channel import SystemConfig, channelset_to_json, generate_channels, perturb_csi
from latticealign.cli import (
    EXIT_CONFIG,
    EXIT_NONCONVERGED,
    EXIT_OK,
    EXIT_PIPE,
    _parse_gaussian,
    main,
)
from latticealign.errors import ConfigurationError
from latticealign.gaussint import GaussianInt


def _sim_config(tmp_path, **over):
    cfg = dict(
        methods=["tdma", "two_stage_ml"],
        K_grid=[3],
        snr_db_grid=[10.0],
        epsilon_grid=[0.0],
        M=2,
        N=2,
        trials=2,
        seed=3,
    )
    cfg.update(over)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    return path


def _channel_file(tmp_path, eps=0.1, seed=5):
    cfg = SystemConfig(K=3, M=2, N=2, L=1, P=10.0, epsilon=eps, seed=seed)
    ch = generate_channels(cfg)
    if eps > 0:
        ch = perturb_csi(ch, eps, seed=seed + 1)
    path = tmp_path / "channel.json"
    path.write_text(channelset_to_json(ch))
    return path


def test_parse_gaussian():
    assert _parse_gaussian("2") == GaussianInt(2, 0)
    assert _parse_gaussian("1+1j") == GaussianInt(1, 1)
    assert _parse_gaussian("-3j") == GaussianInt(0, -3)
    assert _parse_gaussian("1 + 2j") == GaussianInt(1, 2)
    with pytest.raises(ConfigurationError):
        _parse_gaussian("1.5")
    with pytest.raises(ConfigurationError):
        _parse_gaussian("abc")


def test_analyze_symmetric_json(capsys):
    code = main(["analyze", "symmetric", "--K", "3", "--h", "2", "--P", "4"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["K"] == 3
    assert payload["h"] == [2, 0]
    assert payload["r_min_lattice"] == pytest.approx(1.8875252707415873)
    assert payload["r_min_ml"] == pytest.approx(np.log2(1 + 32 / 5) / 2)
    assert payload["scaling"] == [2.0, 0.0]
    assert isinstance(payload["lattice_beats_ml_high_snr"], bool)


def test_analyze_rejects_fractional_gain(capsys):
    code = main(["analyze", "symmetric", "--K", "3", "--h", "0.5", "--P", "4"])
    assert code == EXIT_CONFIG
    assert "Gaussian integer" in capsys.readouterr().err


def test_analyze_rejects_bad_instance(capsys):
    code = main(["analyze", "symmetric", "--K", "1", "--h", "2", "--P", "4"])
    assert code == EXIT_CONFIG
    code = main(["analyze", "symmetric", "--K", "3", "--h", "1e200", "--P", "4"])
    assert code == EXIT_CONFIG  # |h|^2 overflows a float
    assert "cross gain h" in capsys.readouterr().err


def test_analyze_many_users_builds_no_k_user_arrays(capsys):
    """User 0's closed-form values need no K-user design: 10^8 users print at once."""
    K = 100_000_000
    code = main(["analyze", "symmetric", "--K", str(K), "--h", "2", "--P", "4"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    denom = 1 + (K - 1) * 4 + 1 / 4
    assert payload["receive_filter"] == [pytest.approx((K - 1) * 2 / denom), 0.0]
    assert payload["stage2_filter"] == [pytest.approx((1 + (K - 1) * 4) / denom), 0.0]
    assert payload["scaling"] == [2.0, 0.0]


def test_solve_on_saved_channel(tmp_path, capsys):
    path = _channel_file(tmp_path)
    code = main(["solve", "--channel", str(path), "--snr-db", "10", "--n-starts", "1"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert np.isfinite(payload["r_min"])
    assert len(payload["coefficients"]) == 3
    for pair_rows in payload["coefficients"]:
        for row in pair_rows:
            assert all(isinstance(z, int) for pair in row for z in pair)
    assert len(payload["per_user_power"]) == 3
    assert all(p <= 1.0 + 1e-9 for p in payload["per_user_power"])
    assert payload["report"]["r_min"] == payload["r_min"]


def test_solve_epsilon_override(tmp_path, capsys):
    path = _channel_file(tmp_path, eps=0.1)
    assert main(["solve", "--channel", str(path), "--n-starts", "1"]) == EXIT_OK
    r_stored = json.loads(capsys.readouterr().out)["r_min"]
    code = main(["solve", "--channel", str(path), "--epsilon", "0.3", "--n-starts", "1"])
    assert code == EXIT_OK
    r_wide = json.loads(capsys.readouterr().out)["r_min"]
    # designing against a wider uncertainty ball costs rate
    assert r_wide < r_stored


def test_solve_rejects_an_snr_beyond_the_float_range(tmp_path, capsys):
    path = _channel_file(tmp_path)
    code = main(["solve", "--channel", str(path), "--snr-db", "4000"])
    assert code == EXIT_CONFIG
    assert "SNR 4000.0 dB" in capsys.readouterr().err


@pytest.mark.parametrize("snr_db", ["2000", "3000"])
def test_solve_rejects_a_power_the_solver_cannot_carry(tmp_path, capsys, snr_db):
    """Such powers overflowed the Newton kernel's curvature terms; they are
    rejected before any design runs, naming the power."""
    path = _channel_file(tmp_path)
    assert main(["solve", "--channel", str(path), "--snr-db", snr_db]) == EXIT_CONFIG
    assert f"per-stream power P=1e+{int(snr_db) // 10}" in capsys.readouterr().err


@pytest.mark.parametrize("snr_db", ["-1100", "-2990", "-3200"])
def test_solve_rejects_a_power_below_the_range_it_carries(tmp_path, capsys, snr_db):
    """A subnormal power overflowed the least-squares fits, and a tiny one
    returned r_min 0; below -1000 dB the power is rejected, naming it."""
    path = _channel_file(tmp_path)
    assert main(["solve", "--channel", str(path), "--snr-db", snr_db]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "per-stream power P=1e-" in err and "[1e-100, 1e+100]" in err


def test_solve_carries_a_power_of_1000_db(tmp_path, capsys):
    path = _channel_file(tmp_path)
    assert main(["solve", "--channel", str(path), "--snr-db", "1000"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["report"]["r_min"] > 0


@pytest.mark.parametrize("snr_db", ["150", "200", "500", "1000"])
def test_solve_converges_at_high_power(tmp_path, capsys, snr_db):
    """The receive fits stop at what double precision resolves of their
    objective, which grows with P, so the design converges at any power the
    solver carries."""
    path = _channel_file(tmp_path)
    assert main(["solve", "--channel", str(path), "--snr-db", snr_db]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True and payload["report"]["r_min"] > 0


@pytest.mark.parametrize(
    "flag, value, named",
    [
        ("--gamma", "1e-300", "gamma=1e-300"),
        ("--gamma", "1e100", "gamma=1e+100"),
        ("--gamma", "1e308", "gamma=1e+308"),
        ("--epsilon", "1e100", "epsilon=1e+100"),
    ],
)
def test_solve_rejects_a_value_the_solver_cannot_carry(tmp_path, capsys, flag, value, named):
    """Such budgets overflowed the barrier, made a receive fit singular or
    overflowed the power check, and such an error bound overflowed the
    Newton kernel; they are rejected before any design runs, naming the value."""
    path = _channel_file(tmp_path)
    assert main(["solve", "--channel", str(path), flag, value]) == EXIT_CONFIG
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["--gamma", "1e-10"],
        ["--gamma", "1e10"],
        ["--epsilon", "1e20"],
        ["--gamma", "1e-10", "--power", "1e100", "--epsilon", "1e20"],
    ],
)
def test_solve_carries_the_edges_of_its_range(tmp_path, capsys, args):
    path = _channel_file(tmp_path)
    assert main(["solve", "--channel", str(path), *args]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True and payload["report"]["r_min"] >= 0


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_solve_into_a_closed_pipe_is_no_configuration_error(tmp_path, unbuffered):
    """A reader that leaves before the output is written (| head -c 1, | grep -q)
    is no bad input: solve exits EXIT_PIPE and writes nothing to stderr, with
    stdout unbuffered (one write for the JSON, one for its newline) or not
    (one write at the final flush)."""
    path = _channel_file(tmp_path)
    src = str(Path(latticealign.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first write
    try:
        out = subprocess.run(
            [sys.executable, "-m", "latticealign.cli", "solve", "--channel", str(path),
             "--snr-db", "200"],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert out.returncode == EXIT_PIPE != EXIT_CONFIG
    assert out.stderr == ""


def test_solve_missing_file(tmp_path, capsys):
    code = main(["solve", "--channel", str(tmp_path / "nope.json")])
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_solve_malformed_channel(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"K\": 3}")
    code = main(["solve", "--channel", str(path)])
    assert code == EXIT_CONFIG
    # links that do not fill the declared (K, K, N, M) shape exactly
    good = json.loads(_channel_file(tmp_path).read_text())
    H = good["H"]
    for links in (
        [[[[1.0, 0.0]]] * 3] * 3,  # 1x1 links where 2x2 ones are declared
        [[A[:1] for A in row] for row in H],  # 1x2 links
        H + H[:1],  # a fourth receiver past K
    ):
        path.write_text(json.dumps(dict(good, H=links)))
        code = main(["solve", "--channel", str(path)])
        assert code == EXIT_CONFIG
        assert "malformed channel JSON" in capsys.readouterr().err


def test_solve_epsilon_below_actual_error(tmp_path, capsys):
    """Declaring a smaller ball than the stored error is a config error."""
    path = _channel_file(tmp_path, eps=0.2)
    code = main(["solve", "--channel", str(path), "--epsilon", "0.001"])
    assert code == EXIT_CONFIG


def test_simulate_writes_csv(tmp_path, capsys):
    cfg_path = _sim_config(tmp_path)
    out_path = tmp_path / "rows.csv"
    code = main(["simulate", "--config", str(cfg_path), "--output", str(out_path)])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "wrote 4 rows" in text
    assert "method=tdma" in text
    lines = out_path.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("method,K,M,N,L,")
    assert all(ln.endswith(",0.0") for ln in lines[1:])  # wall_ms zeroed


def test_simulate_missing_config(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.json")])
    assert code == EXIT_CONFIG


def test_simulate_bad_config(tmp_path, capsys):
    path = _sim_config(tmp_path, methods=["warp_drive"])
    code = main(["simulate", "--config", str(path)])
    assert code == EXIT_CONFIG
    assert "unknown method" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("trials", 1.5), ("trials", True), ("K_grid", [2.7]), ("seed", 0.5), ("M", True),
     ("L", True)],
)
def test_simulate_rejects_non_integer_counts(tmp_path, capsys, key, value):
    path = _sim_config(tmp_path, **{key: value})
    code = main(["simulate", "--config", str(path), "--output", str(tmp_path / "rows.csv")])
    assert code == EXIT_CONFIG == 2
    assert f"{key} takes integers only" in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("key", ["snr_db_grid", "epsilon_grid"])
@pytest.mark.parametrize("entry", ["0.1", "10", True])
def test_simulate_rejects_non_number_grid_entries(tmp_path, capsys, key, entry):
    """Strings and booleans in a grid exit 2 instead of a TypeError or a silent cast."""
    path = _sim_config(tmp_path, **{key: [entry]})
    code = main(["simulate", "--config", str(path), "--output", str(tmp_path / "rows.csv")])
    assert code == EXIT_CONFIG == 2
    assert f"{key} takes real numbers only, got {entry!r}" in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()


def _no_trials(spec):
    raise AssertionError("a trial ran")


@pytest.mark.parametrize("grid", [[4000.0], [10.0, -4000.0]])
def test_simulate_rejects_an_snr_beyond_the_float_range(tmp_path, capsys, monkeypatch, grid):
    """Every grid entry is checked before any trial runs."""
    from latticealign import cli

    monkeypatch.setattr(cli, "run_experiment", _no_trials)
    path = _sim_config(tmp_path, snr_db_grid=grid)
    code = main(["simulate", "--config", str(path), "--output", str(tmp_path / "rows.csv")])
    assert code == EXIT_CONFIG
    assert f"SNR {grid[-1]!r} dB" in capsys.readouterr().err


@pytest.mark.parametrize("methods", [["lattice"], ["tdma", "lattice"]])
def test_simulate_rejects_a_power_the_solver_cannot_carry(tmp_path, capsys, monkeypatch, methods):
    """With the lattice method in the spec, each SNR's power is checked
    against the solver's limit before any trial runs."""
    from latticealign import cli

    monkeypatch.setattr(cli, "run_experiment", _no_trials)
    path = _sim_config(tmp_path, methods=methods, snr_db_grid=[10.0, 2000.0])
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
    assert "per-stream power P=1e+200" in capsys.readouterr().err


@pytest.mark.parametrize("methods", [["lattice"], ["tdma", "lattice"]])
def test_simulate_rejects_an_epsilon_the_solver_cannot_carry(tmp_path, capsys, monkeypatch, methods):
    """With the lattice method in the spec, each error bound is checked
    against the solver's limit before any trial runs."""
    from latticealign import cli

    monkeypatch.setattr(cli, "run_experiment", _no_trials)
    path = _sim_config(tmp_path, methods=methods, epsilon_grid=[0.1, 1e100])
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
    assert "epsilon=1e+100" in capsys.readouterr().err


@pytest.mark.parametrize("methods", [["lattice"], ["tdma", "lattice"]])
def test_simulate_rejects_a_power_below_the_solver_range(tmp_path, capsys, monkeypatch, methods):
    from latticealign import cli

    monkeypatch.setattr(cli, "run_experiment", _no_trials)
    path = _sim_config(tmp_path, methods=methods, snr_db_grid=[10.0, -3200.0])
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
    assert "per-stream power P=1e-320" in capsys.readouterr().err


def test_simulate_runs_at_a_huge_epsilon(tmp_path, capsys):
    """At eps = 1e18 a receive fit's kink system is singular, which ended
    the run with a bare "Singular matrix"; that fit now takes no kink step."""
    methods = ["lattice", "tdma", "two_stage_ml", "distributive_ia", "conventional_ia"]
    path = _sim_config(tmp_path, methods=methods, epsilon_grid=[1e18], trials=3, seed=7)
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", str(path), "--output", str(out)]) == EXIT_OK
    assert "wrote 15 rows" in capsys.readouterr().out


def test_simulate_takes_an_epsilon_beyond_the_solver_for_baselines_only(tmp_path):
    from latticealign.harness import experiment_from_json

    path = _sim_config(tmp_path, epsilon_grid=[1e100])
    assert experiment_from_json(path.read_text()).epsilon_grid == (1e100,)


def test_simulate_takes_a_power_beyond_the_solver_for_baselines_only(tmp_path):
    from latticealign.harness import experiment_from_json

    path = _sim_config(tmp_path, snr_db_grid=[2000.0])
    assert experiment_from_json(path.read_text()).snr_db_grid == (2000.0,)


@pytest.mark.parametrize("value", [True, 1, ["rows.csv"], ""])
def test_simulate_rejects_an_output_path_that_is_no_path(tmp_path, capsys, monkeypatch, value):
    """output_path takes null or a non-empty string, checked before any trial runs."""
    from latticealign import cli

    monkeypatch.setattr(cli, "run_experiment", _no_trials)
    path = _sim_config(tmp_path, output_path=value)
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"output_path must be a non-empty string or null, got {value!r}" in err


def test_simulate_strict_flags_nonconvergence(tmp_path, capsys):
    """A one-step cap on the inner fits stops the receive block short."""
    cfg_path = _sim_config(
        tmp_path,
        methods=["lattice"],
        epsilon_grid=[0.1],
        trials=1,
        n_starts=1,
        dist_ia_iters=20,
        solver={"max_inner_iters": 1},
    )
    out_path = tmp_path / "rows.csv"
    code = main(["simulate", "--config", str(cfg_path),
                 "--output", str(out_path), "--strict"])
    assert code == EXIT_NONCONVERGED
    assert "did not converge" in capsys.readouterr().err
    # the CSV is still written before the exit code is decided
    assert out_path.exists()


def test_simulate_nonstrict_tolerates_nonconvergence(tmp_path, capsys):
    cfg_path = _sim_config(
        tmp_path,
        methods=["lattice"],
        epsilon_grid=[0.1],
        trials=1,
        n_starts=1,
        dist_ia_iters=20,
        solver={"max_inner_iters": 1},
    )
    code = main(["simulate", "--config", str(cfg_path),
                 "--output", str(tmp_path / "rows.csv")])
    assert code == EXIT_OK
