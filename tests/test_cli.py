"""Command line behavior: resolution order, determinism, formats."""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import pytest

from erwlab.cli import main
from erwlab.seeding import DEFAULT_SEED


def _run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected a flag or a config value
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def _run_csv(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    return list(csv.reader(io.StringIO(out)))


# ---------------------------------------------------------------------
# classify / analyze
# ---------------------------------------------------------------------


def test_classify_critical_periodic_payload(capsys):
    payload = _run_json(capsys, ["classify", "--env", "periodic:0.9,0.1"])
    assert payload["schema_version"] == "4"
    assert payload["config"]["command"] == "classify"
    assert payload["config"]["seed"] == DEFAULT_SEED
    r = payload["result"]
    assert r["classification"] == "Recurrent"
    assert r["method"] == "exact"
    assert r["theta_right"] == pytest.approx(2.0 / 9.0)
    assert r["theta_left"] == pytest.approx(-2.0)
    assert r["predicates"]["elliptic"] is True


def test_classify_off_critical_has_null_theta(capsys):
    r = _run_json(capsys, ["classify", "--env", "periodic:0.8,0.3"])["result"]
    assert r["classification"] == "TransientRight"
    assert r["theta_right"] is None
    assert r["rho"] is None
    assert r["nu"] == pytest.approx(4.0 * (0.16 + 0.21))


def test_classify_fraction_literal_is_exactly_critical(capsys):
    r = _run_json(capsys, ["classify", "--env", "periodic:9/10,1/10"])["result"]
    assert r["classification"] == "Recurrent"
    assert r["p_bar"] == pytest.approx(0.5)


def test_classify_bounded_and_tail_and_positive(capsys):
    r = _run_json(capsys, ["classify", "--env", "bounded:0.9,0.9"])["result"]
    assert r["classification"] == "TransientRight"
    assert r["method"] == "exact"
    assert r["theta_right"] == pytest.approx(1.6)

    r = _run_json(capsys, ["classify", "--env", "tail:0.9@0.2"])["result"]
    assert r["classification"] == "TransientLeft"
    assert r["method"] == "exact"
    assert r["theta_right"] is None

    delta = 2.0 * (math.pi**2 / 6.0 - 1.0)
    r = _run_json(capsys, ["classify", "--positive-delta", str(delta)])["result"]
    assert r["classification"] == "TransientRight"
    assert r["method"] == "positive-drift"


def test_classify_payload_has_one_shape_for_every_pile(capsys):
    shapes = {}
    literals = ("periodic:0.9,0.1", "bounded:0.9,0.9", "tail:0.9@0.2", "tail:0.9,0.9@0.9,0.1")
    for literal in literals:
        r = _run_json(capsys, ["classify", "--env", literal])["result"]
        assert r["method"] == "exact"
        shapes[literal] = sorted(r)
    assert len({tuple(v) for v in shapes.values()}) == 1
    r = _run_json(capsys, ["classify", "--env", "tail:0.9,0.9@0.9,0.1"])["result"]
    assert r["environment"] == "tail:0.9,0.9@0.9,0.1"
    assert r["classification"] == "TransientRight"
    assert r["theta_right"] == pytest.approx(14.0 / 3.0)


@pytest.mark.parametrize(
    "literal", ["periodic:0.0,1.0,1.0", "tail:0.0@0.9", "tail:0.9@1.0", "bounded:1.0"]
)
def test_non_elliptic_pile_is_refused(capsys, literal):
    # The mean-cookie rule needs ellipticity off criticality too: on
    # periodic:0.0,1.0,1.0 (mean 2/3) and tail:0.0@0.9 every first visit
    # steps left, so the walk runs to -infinity.
    code, out, err = _run(capsys, ["classify", "--env", literal])
    assert code == 2 and out == ""
    assert "elliptic" in err


def test_analyze_rejects_a_prefix(capsys):
    code, out, err = _run(capsys, ["analyze", "--env", "bounded:0.9"])
    assert code == 2
    assert out == ""
    assert err.startswith("erwlab: error:") and "prefix" in err
    # A prefix that continues the cycle is the periodic pile it reads as.
    code, out, err = _run(capsys, ["analyze", "--env", "tail:0.1@0.9,0.1"])
    assert code == 0 and err == ""


def test_analyze_emits_chain_csv(capsys, tmp_path):
    target = tmp_path / "chain.csv"
    payload = _run_json(
        capsys,
        ["analyze", "--env", "periodic:0.7,0.3", "--chain-csv", str(target)],
    )
    r = payload["result"]
    assert r["mu"] == pytest.approx(1.0)
    assert r["mean_run_length"] == pytest.approx(1.0)
    with open(target, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["j", "pi", "expected_run"]
    assert len(rows) == 3
    assert float(rows[1][1]) == pytest.approx(0.7)


def test_classify_boundary_literals_are_exactly_one_and_recurrent(capsys):
    r = _run_json(
        capsys, ["classify", "--env", "periodic:9/10,9/10,3/10,3/10,2/5,1/5"]
    )["result"]
    assert r["theta_right"] == 1.0
    assert r["classification"] == "Recurrent"

    r = _run_json(capsys, ["classify", "--env", "bounded:0.4,0.8,0.8"])["result"]
    assert r["theta_right"] == 1.0
    assert r["classification"] == "Recurrent"


def test_analyze_serves_a_long_random_period(capsys, tmp_path):
    params = np.random.default_rng(1).uniform(0.05, 0.95, 512)
    target = tmp_path / "chain.csv"
    env = "periodic:" + ",".join(repr(float(p)) for p in params)
    r = _run_json(capsys, ["analyze", "--env", env, "--chain-csv", str(target)])["result"]
    assert r["mean_run_length"] == pytest.approx(r["mu"], abs=1e-10)
    with open(target, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 513
    matrix = np.array([[float(v) for v in row[3:]] for row in rows[1:]])
    pi = np.array([float(row[1]) for row in rows[1:]])
    assert float(np.max(np.abs(matrix.sum(axis=1) - 1.0))) < 1e-12
    q = 1.0 - params
    assert np.allclose(pi, np.roll(q, 1) / q.sum(), rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------
# CSV commands
# ---------------------------------------------------------------------


def test_oracle_csv_is_a_probability_table(capsys):
    rows = _run_csv(capsys, ["oracle", "--env", "periodic:0.5,0.5", "--x", "2"])
    assert rows[0] == ["success_count", "probability"]
    probs = [float(r[1]) for r in rows[1:]]
    assert probs[0] == pytest.approx(0.25)
    assert sum(probs) == pytest.approx(1.0, abs=1e-10)
    assert [int(r[0]) for r in rows[1:4]] == [0, 1, 2]


def test_ladder_csv_header_and_reproducibility(capsys):
    argv = [
        "ladder",
        "--env",
        "periodic:0.9,0.1",
        "--xs",
        "10,50",
        "--trials",
        "2000",
    ]
    rows1 = _run_csv(capsys, argv)
    rows2 = _run_csv(capsys, argv)
    assert rows1 == rows2
    assert rows1[0] == [
        "x",
        "trials",
        "rho_hat",
        "nu_hat",
        "theta_hat",
        "se_rho",
        "se_nu",
        "se_theta",
    ]
    assert len(rows1) == 3
    assert int(rows1[1][1]) == 2000


def test_walk_csv_rows_are_per_trial(capsys):
    rows = _run_csv(
        capsys,
        ["walk", "--env", "periodic:0.5,0.5", "--steps", "200", "--trials", "5"],
    )
    assert rows[0] == [
        "trial",
        "final_position",
        "max_abs_position",
        "returns_to_origin",
        "first_hit_minus1",
        "distinct_sites",
    ]
    assert len(rows) == 6
    for i, row in enumerate(rows[1:]):
        assert int(row[0]) == i
        assert (int(row[1]) + 200) % 2 == 0
        # first_hit may be empty (never reached -1)
        assert row[4] == "" or int(row[4]) >= 1


def test_walk_positions_side_channel(capsys, tmp_path):
    target = tmp_path / "pos.csv"
    _run_csv(
        capsys,
        [
            "walk",
            "--env",
            "periodic:0.5,0.5",
            "--steps",
            "100",
            "--trials",
            "2",
            "--emit-positions",
            "25",
            "--positions-csv",
            str(target),
        ],
    )
    with open(target, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "step", "position"]
    assert len(rows) == 1 + 2 * 5  # two trials, steps 0,25,50,75,100
    assert [int(r[1]) for r in rows[1:6]] == [0, 25, 50, 75, 100]


# ---------------------------------------------------------------------
# simulation commands
# ---------------------------------------------------------------------


def test_zsim_payload_and_determinism(capsys):
    argv = [
        "zsim",
        "--env",
        "periodic:0.7,0.7",
        "--horizon",
        "100",
        "--trials",
        "500",
    ]
    a = _run_json(capsys, argv)
    b = _run_json(capsys, argv)
    assert a == b
    r = a["result"]
    assert r["trials"] == 500
    assert r["direction"] == "right"
    assert 0.4 < r["survival_frequency"] < 0.7
    assert r["survivors"] == round(r["survival_frequency"] * 500)
    left = _run_json(capsys, argv + ["--direction", "left"])["result"]
    assert left["direction"] == "left"


def test_bpm_payload_includes_simulation_when_asked(capsys):
    r = _run_json(
        capsys,
        ["bpm", "--offspring", "geometric:1", "--migration", "const:2"],
    )["result"]
    assert r["classification"] == "Survives"
    assert r["theta"] == pytest.approx(2.0)
    assert "survival_frequency" not in r

    r = _run_json(
        capsys,
        [
            "bpm",
            "--offspring",
            "geometric:1",
            "--migration",
            "const:2",
            "--horizon",
            "200",
            "--trials",
            "300",
        ],
    )["result"]
    assert r["survival_frequency"] > 0.9


def test_lyapunov_payload(capsys):
    r = _run_json(
        capsys,
        [
            "lyapunov",
            "--env",
            "periodic:0.9,0.1",
            "--kind",
            "identity",
            "--x",
            "100",
            "--trials",
            "20000",
        ],
    )["result"]
    assert abs(r["drift"] - 0.08) < 5 * r["se"]


def test_criterion_round_trip_through_ladder_csv(capsys, tmp_path):
    # four 0.9-cookies then four 0.1-cookies: critical with theta 3.56,
    # far enough above the bands for 2e5 trials to certify
    ladder_path = tmp_path / "ladder.csv"
    code, out, err = _run(
        capsys,
        [
            "ladder",
            "--env",
            "periodic:0.9,0.9,0.9,0.9,0.1,0.1,0.1,0.1",
            "--xs",
            "2000,10000",
            "--trials",
            "200000",
            "--out",
            str(ladder_path),
        ],
    )
    assert code == 0, err
    payload = _run_json(
        capsys,
        ["criterion", "--ladder-csv", str(ladder_path), "--mu", "1.0"],
    )
    r = payload["result"]
    assert r["verdict"] == "Transient"
    assert len(r["margins"]) == 2
    assert all(m["above_upper"] > 0 for m in r["margins"])


@pytest.mark.parametrize(
    "text",
    ["", "x,trials,rho_hat,nu_hat,theta_hat,se_rho,se_nu,se_theta\n100,1000,0.5\n"],
    ids=["empty", "short-row"],
)
def test_malformed_ladder_csv_is_an_error(capsys, tmp_path, text):
    path = tmp_path / "ladder.csv"
    path.write_text(text)
    code, out, err = _run(capsys, ["criterion", "--ladder-csv", str(path), "--mu", "1.0"])
    assert code == 2
    assert out == ""
    assert err.startswith("erwlab: error: ladder")


@pytest.mark.parametrize(
    "theta,flags",
    [("nan", ["--mu", "1.0"]), ("inf", ["--mu", "1.0"]),
     ("2.0", ["--mu", "nan"]), ("2.0", ["--mu", "1.0", "--mu-se", "nan"])],
    ids=["nan-theta", "inf-theta", "nan-mu", "nan-mu-se"],
)
def test_non_finite_criterion_input_is_an_error(capsys, tmp_path, theta, flags):
    # A NaN would reach the payload as a bare NaN, which is not JSON.
    path = tmp_path / "ladder.csv"
    path.write_text(
        "x,trials,rho_hat,nu_hat,theta_hat,se_rho,se_nu,se_theta\n"
        f"100,1000,0.5,1.0,{theta},0.1,0.1,0.1\n"
    )
    code, out, err = _run(capsys, ["criterion", "--ladder-csv", str(path), *flags])
    assert code == 2
    assert out == ""
    assert "non-finite" in err or "must be finite" in err


# ---------------------------------------------------------------------
# option resolution
# ---------------------------------------------------------------------


def test_seed_env_var_overrides_default(capsys, monkeypatch):
    base = _run_json(capsys, ["classify", "--env", "periodic:0.9,0.1"])
    monkeypatch.setenv("ERWLAB_SEED", "99")
    over = _run_json(capsys, ["classify", "--env", "periodic:0.9,0.1"])
    assert base["config"]["seed"] == DEFAULT_SEED
    assert over["config"]["seed"] == 99
    monkeypatch.setenv("ERWLAB_SEED", "0x2A")
    hexed = _run_json(capsys, ["classify", "--env", "periodic:0.9,0.1"])
    assert hexed["config"]["seed"] == 42


def test_malformed_seed_env_var_is_rejected(monkeypatch):
    from erwlab.seeding import default_seed, substream

    monkeypatch.setenv("ERWLAB_SEED", "lucky")
    with pytest.raises(ValueError):
        default_seed()
    # substreams with distinct keys are distinct, equal keys are equal
    a = substream(1, 2, 3).random(4)
    b = substream(1, 2, 3).random(4)
    c = substream(1, 2, 4).random(4)
    assert (a == b).all() and not (a == c).all()


def test_explicit_seed_beats_env_var(capsys, monkeypatch):
    monkeypatch.setenv("ERWLAB_SEED", "99")
    payload = _run_json(
        capsys, ["classify", "--env", "periodic:0.9,0.1", "--seed", "7"]
    )
    assert payload["config"]["seed"] == 7


def test_config_file_supplies_defaults_and_flags_win(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"env": "periodic:0.9,0.1", "x": 3, "seed": 5}))
    rows = _run_csv(capsys, ["oracle", "--config", str(cfg)])
    assert rows[0] == ["success_count", "probability"]

    payload_rows = _run_csv(capsys, ["oracle", "--config", str(cfg), "--x", "1"])
    # flag --x 1 overrides the config's 3: U(1) starts with mass q1 = 0.1
    assert float(payload_rows[1][1]) == pytest.approx(0.1)


def test_empty_ladder_is_an_error(capsys, tmp_path):
    argv = ["ladder", "--env", "periodic:0.9,0.1", "--trials", "1000"]
    for extra in (["--xs", ","], ["--config", _write_config(tmp_path, {"xs": []})]):
        code, out, err = _run(capsys, argv + extra)
        assert code == 2
        assert out == ""
        assert "at least one x" in err


def test_unknown_config_key_is_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"environment": "periodic:0.9,0.1"}))
    code, out, err = _run(capsys, ["oracle", "--config", str(cfg)])
    assert code == 2
    assert "not recognized" in err


def _write_config(tmp_path, entries):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(entries))
    return str(path)


@pytest.mark.parametrize(
    "argv,entries,named",
    [
        (["oracle", "--env", "periodic:0.9,0.1"], {"x": 2.7}, "--x"),
        (["oracle", "--env", "periodic:0.9,0.1"], {"x": True}, "--x"),
        (["zsim", "--env", "periodic:0.7,0.7"], {"trials": 3.9}, "--trials"),
        (["zsim", "--env", "periodic:0.7,0.7"], {"horizon": 5.5}, "--horizon"),
        (["zsim", "--env", "periodic:0.7,0.7"], {"direction": "up"}, "--direction"),
        (["oracle", "--env", "periodic:0.9,0.1"], {"x": [2]}, "'x'"),
    ],
    ids=["float-x", "bool-x", "float-trials", "float-horizon", "bad-choice", "list-x"],
)
def test_config_values_are_checked_like_flags(capsys, tmp_path, argv, entries, named):
    code, out, err = _run(capsys, argv + ["--config", _write_config(tmp_path, entries)])
    assert code == 2
    assert out == ""
    assert named in err
    assert "Traceback" not in err


def test_null_config_value_keeps_the_default(capsys, tmp_path):
    argv = ["oracle", "--env", "periodic:0.9,0.1"]
    cfg = _write_config(tmp_path, {"x": None, "tail_eps": None})
    code, out, err = _run(capsys, argv + ["--config", cfg])
    assert code == 0, err
    assert out == _run(capsys, argv)[1]


@pytest.mark.parametrize(
    "entries,flags",
    [
        (
            {"env": "periodic:0.9,0.1", "xs": [10, 100], "trials": 2000, "seed": 3},
            ["ladder", "--env", "periodic:0.9,0.1", "--xs", "10,100", "--trials", "2000",
             "--seed", "3"],
        ),
        (
            {"env": "periodic:0.7,0.7", "direction": "left", "horizon": 100,
             "trials": 200, "seed": 5},
            ["zsim", "--env", "periodic:0.7,0.7", "--direction", "left", "--horizon",
             "100", "--trials", "200", "--seed", "5"],
        ),
        (
            {"positive_delta": 2},
            ["classify", "--positive-delta", "2"],
        ),
    ],
    ids=["ladder", "zsim", "classify"],
)
def test_config_file_and_flags_give_the_same_bytes(capsys, tmp_path, entries, flags):
    code, from_flags, err = _run(capsys, flags)
    assert code == 0, err
    code, from_config, err = _run(
        capsys, [flags[0], "--config", _write_config(tmp_path, entries)]
    )
    assert code == 0, err
    assert from_config == from_flags


def test_criterion_has_no_alpha_option(capsys, tmp_path):
    cfg = _write_config(tmp_path, {"alpha": "log"})
    code, out, err = _run(capsys, ["criterion", "--config", cfg])
    assert code == 2
    assert "not recognized" in err
    code, out, err = _run(capsys, ["criterion", "--alpha", "log"])
    assert code == 2
    assert "--alpha" in err


def test_missing_required_option_is_a_clean_error(capsys):
    code, out, err = _run(capsys, ["classify"])
    assert code == 2
    assert "erwlab: error" in err


@pytest.mark.parametrize(
    "flags",
    [["--steps", "-5"], ["--emit-positions", "-3"]],
    ids=["negative-steps", "negative-record"],
)
def test_bad_walk_sizes_are_clean_errors(capsys, flags):
    argv = ["walk", "--env", "periodic:0.5,0.5", "--steps", "10"] + flags
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "erwlab: error" in err


def test_positions_csv_without_emit_positions_is_a_clean_error(capsys, tmp_path):
    target = tmp_path / "pos.csv"
    argv = ["walk", "--env", "periodic:0.5,0.5", "--steps", "10", "--trials", "2",
            "--positions-csv", str(target)]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "--emit-positions" in err
    assert not target.exists()


@pytest.mark.parametrize(
    "flags",
    [["--horizon", "-5", "--trials", "10"], ["--horizon", "10", "--trials", "-3"]],
    ids=["negative-horizon", "negative-trials"],
)
def test_bad_bpm_sizes_are_clean_errors(capsys, flags):
    argv = ["bpm", "--offspring", "geometric:1", "--migration", "const:1"] + flags
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "erwlab: error" in err


def test_unreachable_oracle_tail_is_a_clean_error(capsys):
    code, out, err = _run(capsys, ["oracle", "--env", "periodic:0.9999,0.9998", "--x", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("erwlab: error: tail")
    assert "Traceback" not in err


def test_bad_environment_literal_is_a_clean_error(capsys):
    code, out, err = _run(capsys, ["classify", "--env", "ring:0.5"])
    assert code == 2
    assert "erwlab: error" in err


def test_out_writes_the_payload_to_a_file(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, err = _run(
        capsys,
        ["classify", "--env", "periodic:0.9,0.1", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["result"]["classification"] == "Recurrent"
