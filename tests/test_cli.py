"""End-to-end command-line interface behavior, exit codes, and CSV output."""

import csv
import glob
import json
import math
import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nonholo.ball3d import ChaplyginChart
from nonholo import cli, numerics
from nonholo.cli import PAIRS, SYSTEMS, load_config, main, observables
from nonholo.errors import SingularityError
from nonholo.numerics import IntegratorConfig, integrate

CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.json")))
CONFIG_IDS = [os.path.basename(p)[: -len(".json")] for p in CONFIGS]
# the sample configs of the systems whose chart constrains a frame
CONSTRAINED_IDS = [i for i in CONFIG_IDS if SYSTEMS[i].constraints is not None]

BALL_CFG = {
    "system": "ball_chaplygin",
    "inertia": [1.0, 2.0, 3.0],
    "D": 1.0,
    "epsilon": 1.0,
    "initial": {"seed": 7},
    "integrator": {"t_end": 1.0, "samples": 5},
}

ELR_CFG = {
    "system": "elr_multiplier",
    "n": 3,
    "k": 1,
    "epsilon": 0.5,
    "inertia": {"kind": "wedge_products", "a": [0.8, 1.1, 1.7]},
    "initial": {"seed": 1},
    "integrator": {"t_end": 1.0, "samples": 5},
    "checks": ["liouville", "volume", "integrals"],
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return str(p)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def sample_config(path, **patch):
    with open(path, encoding="utf-8") as fh:
        return dict(json.load(fh), **patch)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_trajectory_with_expected_header(tmp_path):
    cfg = write_cfg(tmp_path, BALL_CFG)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "ball_chaplygin_trajectory.csv")
    assert rows[0] == ["t", "k1", "k2", "k3", "g1", "g2", "g3", "H", "log_density", "residual"]
    assert len(rows) == 1 + 5
    assert rows[1][0] == "0"


@pytest.mark.parametrize("path", CONFIGS, ids=CONFIG_IDS)
def test_simulate_deterministic_bytes(tmp_path, path):
    system = sample_config(path)["system"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", path, "--out", str(out2)]) == 0
    b1 = (out1 / f"{system}_trajectory.csv").read_bytes()
    b2 = (out2 / f"{system}_trajectory.csv").read_bytes()
    assert b1 == b2
    assert b"\r" not in b1  # LF endings only


def test_simulate_seed_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, BALL_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "8", "--out", str(out2)]) == 0
    b1 = (out1 / "ball_chaplygin_trajectory.csv").read_bytes()
    b2 = (out2 / "ball_chaplygin_trajectory.csv").read_bytes()
    assert b1 != b2


def test_simulate_zero_horizon_single_sample(tmp_path):
    cfg = dict(BALL_CFG, integrator={"t_end": 0.0})
    p = write_cfg(tmp_path, cfg)
    assert main(["simulate", "--config", p, "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "ball_chaplygin_trajectory.csv")
    assert len(rows) == 2


def test_simulate_values_round_trip_at_full_precision(tmp_path):
    cfg = write_cfg(tmp_path, BALL_CFG)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "ball_chaplygin_trajectory.csv")
    for row in rows[1:]:
        for cell in row:
            assert ("%.17g" % float(cell)) == cell


def test_simulate_accepts_documented_dp45_method(tmp_path):
    default = write_cfg(tmp_path, BALL_CFG, "default.json")
    dp45 = write_cfg(tmp_path, dict(BALL_CFG, integrator={"t_end": 1.0, "samples": 5,
                                                          "method": "dp45"}))
    assert main(["simulate", "--config", dp45, "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", default, "--out", str(tmp_path / "b")]) == 0
    name = "ball_chaplygin_trajectory.csv"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("system", CONSTRAINED_IDS)
def test_simulate_honours_renormalize_every(tmp_path, system):
    base = sample_config(CONFIGS[CONFIG_IDS.index(system)],
                         integrator={"t_end": 2.0, "samples": 9})
    renorm = dict(base, integrator=dict(base["integrator"], renormalize_every=1))
    for name, cfg in (("plain", base), ("renorm", renorm)):
        p = write_cfg(tmp_path, cfg, f"{name}.json")
        assert main(["simulate", "--config", p, "--out", str(tmp_path / name)]) == 0
    csv_name = f"{system}_trajectory.csv"
    rows = read_rows(tmp_path / "renorm" / csv_name)
    col = rows[0].index("residual")
    assert all(float(r[col]) <= 1e-12 for r in rows[1:])
    assert (tmp_path / "renorm" / csv_name).read_bytes() != (
        tmp_path / "plain" / csv_name).read_bytes()


@pytest.mark.parametrize("command", [
    ["simulate"],
    ["verify", "--check", "integrals"],
    ["verify", "--check", "liouville"],
    ["verify", "--check", "volume"],
], ids=["simulate", "integrals", "liouville", "volume"])
def test_degenerate_multiplier_frame_exits_four(tmp_path, capsys, command):
    # 18 equal coordinates: the two frame rows are equal
    cfg = sample_config(CONFIGS[CONFIG_IDS.index("elr_multiplier")],
                        initial={"coords": [1.0] * 18})
    p = write_cfg(tmp_path, cfg)
    assert main(command + ["--config", p, "--out", str(tmp_path / "out")]) == 4
    assert "Traceback" not in capsys.readouterr().err
    if command[0] == "verify":
        rows = read_rows(tmp_path / "out" / f"elr_multiplier_{command[2]}.csv")
        assert len(rows) == 2 and rows[1][-1].startswith("abort: ")
    else:
        assert not (tmp_path / "out").exists()


def test_multiplier_frame_check_is_scale_free(tmp_path):
    # frame rows scaled by 1e-3: Gram det 1e-12, rows independent
    path = CONFIGS[CONFIG_IDS.index("elr_multiplier")]
    run = load_config(path)
    x = run.initial_coords(run.seed).copy()
    x[run.chart.N :] *= 1e-3
    p = write_cfg(tmp_path, sample_config(path, initial={"coords": x.tolist()}))
    for command in (["simulate"], ["verify", "--check", "integrals"]):
        assert main(command + ["--config", p, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("system", CONSTRAINED_IDS)
def test_constraint_drift_aborts_with_one_message_for_every_constrained_chart(
    tmp_path, capsys, system
):
    # the seeded state with its frame scaled by 1 + 1e-5: the Gram matrix of
    # the frame is off the identity by about 2e-5 from the first sample on
    path = CONFIGS[CONFIG_IDS.index(system)]
    run = load_config(path)
    x = run.initial_coords(run.seed)
    x[run.chart.frame_index] *= 1.0 + 1e-5
    cfg = sample_config(path, initial={"coords": x.tolist()},
                        integrator={"t_end": 0.5, "samples": 3})
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", p, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical error: constraint drift ")
    assert "exceeds 1e-06 at t=0\n" in err
    assert main(["verify", "--config", p, "--check", "integrals", "--seeds", "1",
                 "--out", str(out)]) == 4
    rows = read_rows(out / f"{system}_integrals.csv")
    assert len(rows) == 2 and rows[1][7] == "abort"
    assert rows[1][-1].startswith("abort: constraint drift ") and "exceeds 1e-06" in rows[1][-1]


def test_simulate_abort_exits_four(tmp_path):
    cfg = dict(BALL_CFG, integrator={"t_end": 50.0, "max_steps": 5})
    p = write_cfg(tmp_path, cfg)
    assert main(["simulate", "--config", p, "--out", str(tmp_path)]) == 4


def test_simulate_rk4_fixed_blowup_exits_four_without_csv(tmp_path):
    cfg = {"system": "elr_multiplier", "n": 4, "k": 1, "epsilon": 2.0,
           "integrator": {"method": "rk4_fixed", "dt": 3.0, "t_end": 3000, "samples": 5}}
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["simulate", "--config", p, "--out", str(out)]) == 4
    assert not glob.glob(str(out / "*.csv"))


@pytest.mark.parametrize("path", CONFIGS, ids=CONFIG_IDS)
def test_observables_columns_match_one_sample_at_a_time(path):
    run = load_config(path)
    chart = run.chart
    states = np.array([run.initial_coords(seed) for seed in range(4)])
    obs = observables(chart, states)
    for i, x in enumerate(states):
        single = observables(chart, x)
        assert list(single) == list(obs)
        for name, col in obs.items():
            assert col.shape == (4,)
            assert col[i] == pytest.approx(float(single[name]), rel=1e-14, abs=1e-15)


# ---------------------------------------------------------------------------
# verify


def test_verify_volume_pass(tmp_path):
    cfg = write_cfg(tmp_path, BALL_CFG)
    assert main(["verify", "--config", cfg, "--check", "volume", "--seeds", "2",
                 "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "ball_chaplygin_volume.csv")
    assert rows[0] == ["system", "n", "r", "k", "epsilon", "seed", "check",
                       "quantity", "value", "tolerance", "status"]
    body = rows[1:]
    assert {r[10] for r in body} == {"pass"}
    # seeds enumerate upward from the configured base seed
    assert {r[5] for r in body} == {"7", "8"}


def test_verify_liouville_and_integrals(tmp_path):
    cfg = write_cfg(tmp_path, ELR_CFG)
    assert main(["verify", "--config", cfg, "--check", "liouville",
                 "--out", str(tmp_path)]) == 0
    assert main(["verify", "--config", cfg, "--check", "integrals",
                 "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "elr_multiplier_integrals.csv")
    quantities = {r[7] for r in rows[1:]}
    assert "phi1_drift" in quantities


@pytest.mark.parametrize("base", [BALL_CFG, ELR_CFG], ids=["ball_chaplygin", "elr_multiplier"])
def test_verify_volume_ensemble_matches_single_seed_runs(tmp_path, base):
    cfg = write_cfg(tmp_path, base)
    assert main(["verify", "--config", cfg, "--check", "volume", "--seeds", "3",
                 "--out", str(tmp_path / "ensemble")]) == 0
    name = f"{base['system']}_volume.csv"
    ensemble = read_rows(tmp_path / "ensemble" / name)[1:]
    assert len(ensemble) == 3
    for i, row in enumerate(ensemble):
        seed = base["initial"]["seed"] + i
        single = write_cfg(tmp_path, dict(base, initial={"seed": seed}), f"seed{seed}.json")
        assert main(["verify", "--config", single, "--check", "volume", "--seeds", "1",
                     "--out", str(tmp_path / str(seed))]) == 0
        (alone,) = read_rows(tmp_path / str(seed) / name)[1:]
        # same seed, quantity and status; the value may differ at integrator level
        assert alone[:8] == row[:8]
        assert alone[10] == row[10] == "pass"
        assert float(row[8]) <= float(row[9])


@pytest.mark.parametrize("method", ["field", "log_density"])
def test_verify_failing_seed_becomes_abort_row(tmp_path, monkeypatch, method):
    # field errors reach verify wrapped in IntegrationAbort, log_density
    # errors unwrapped; either way only the failing seed aborts
    cfg = write_cfg(tmp_path, BALL_CFG)
    bad = load_config(cfg).initial_coords(8)
    original = getattr(ChaplyginChart, method)

    def broken(self, coords):
        if np.any(np.all(np.abs(np.asarray(coords) - bad) < 1e-3, axis=-1)):
            raise SingularityError("injected failure")
        return original(self, coords)

    monkeypatch.setattr(ChaplyginChart, method, broken)
    assert main(["verify", "--config", cfg, "--check", "volume", "--seeds", "3",
                 "--out", str(tmp_path)]) == 4
    rows = read_rows(tmp_path / "ball_chaplygin_volume.csv")
    status = {r[5]: r[10] for r in rows[1:]}
    assert status["7"] == status["9"] == "pass"
    assert status["8"] == "abort: injected failure"


def test_verify_integrals_ensemble_matches_single_seed_runs(tmp_path):
    cfg = write_cfg(tmp_path, ELR_CFG)
    assert main(["verify", "--config", cfg, "--check", "integrals", "--seeds", "3",
                 "--out", str(tmp_path / "ensemble")]) == 0
    name = "elr_multiplier_integrals.csv"
    ensemble = read_rows(tmp_path / "ensemble" / name)[1:]
    for i in range(3):
        seed = ELR_CFG["initial"]["seed"] + i
        single = write_cfg(tmp_path, dict(ELR_CFG, initial={"seed": seed}), f"seed{seed}.json")
        assert main(["verify", "--config", single, "--check", "integrals", "--seeds", "1",
                     "--out", str(tmp_path / str(seed))]) == 0
        alone = read_rows(tmp_path / str(seed) / name)[1:]
        mine = [row for row in ensemble if row[5] == str(seed)]
        assert len(mine) == len(alone) > 1
        for a, b in zip(alone, mine):
            # same quantity and status; the value may differ at integrator level
            assert a[:8] == b[:8] and a[9:] == b[9:]
            assert abs(float(a[8]) - float(b[8])) <= 1e-8


@pytest.mark.parametrize("method", ["field", "log_density"])
def test_verify_integrals_failing_seed_becomes_abort_row(tmp_path, monkeypatch, method):
    # the ensemble fails as a whole; each seed then runs alone, and only the
    # seed whose state is broken aborts
    cfg = write_cfg(tmp_path, BALL_CFG)
    bad = load_config(cfg).initial_coords(8)
    original = getattr(ChaplyginChart, method)

    def broken(self, coords):
        if np.any(np.all(np.abs(np.asarray(coords) - bad) < 1e-3, axis=-1)):
            raise SingularityError("injected failure")
        return original(self, coords)

    monkeypatch.setattr(ChaplyginChart, method, broken)
    assert main(["verify", "--config", cfg, "--check", "integrals", "--seeds", "3",
                 "--out", str(tmp_path)]) == 4
    rows = read_rows(tmp_path / "ball_chaplygin_integrals.csv")[1:]
    status = {}
    for r in rows:
        status.setdefault(r[5], set()).add(r[10])
    assert status["7"] <= {"pass", "info"} and status["9"] <= {"pass", "info"}
    assert status["8"] == {"abort: injected failure"}


def test_verify_liouville_rejected_for_constrained_system(tmp_path):
    cfg = write_cfg(tmp_path, dict(BALL_CFG, checks=["liouville"]))
    assert main(["verify", "--config", cfg, "--check", "liouville",
                 "--out", str(tmp_path)]) == 3


def test_verify_tight_tolerance_fails_with_exit_two(tmp_path):
    cfg = write_cfg(tmp_path, dict(BALL_CFG, tolerance=1e-20))
    assert main(["verify", "--config", cfg, "--check", "volume",
                 "--out", str(tmp_path)]) == 2
    rows = read_rows(tmp_path / "ball_chaplygin_volume.csv")
    assert any(r[10] == "fail" for r in rows[1:])


def test_env_var_sets_default_tolerance(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, BALL_CFG)
    monkeypatch.setenv("NONHOLO_DEFAULT_TOL", "1e-20")
    assert main(["verify", "--config", cfg, "--check", "volume",
                 "--out", str(tmp_path)]) == 2
    for bad in ("not-a-number", "nan", "inf"):
        monkeypatch.setenv("NONHOLO_DEFAULT_TOL", bad)
        assert main(["verify", "--config", cfg, "--check", "volume",
                     "--out", str(tmp_path)]) == 3


def test_negative_env_tolerance_exits_three_naming_the_variable(tmp_path, monkeypatch, capsys):
    # a negative tolerance would fail every gated row; zero stays allowed
    cfg = write_cfg(tmp_path, BALL_CFG)
    monkeypatch.setenv("NONHOLO_DEFAULT_TOL", "-5")
    assert main(["verify", "--config", cfg, "--check", "volume",
                 "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("config error: NONHOLO_DEFAULT_TOL: ")
    monkeypatch.setenv("NONHOLO_DEFAULT_TOL", "0")
    assert main(["verify", "--config", cfg, "--check", "volume",
                 "--out", str(tmp_path)]) == 2
    zero = write_cfg(tmp_path, dict(BALL_CFG, tolerance=0), "zero.json")
    assert main(["verify", "--config", zero, "--check", "volume",
                 "--out", str(tmp_path)]) == 2


def test_config_tolerance_wins_over_env(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, dict(BALL_CFG, tolerance=10.0))
    monkeypatch.setenv("NONHOLO_DEFAULT_TOL", "1e-20")
    assert main(["verify", "--config", cfg, "--check", "volume",
                 "--out", str(tmp_path)]) == 0


# ---------------------------------------------------------------------------
# crosscheck


def test_crosscheck_pair_and_reversed_alias(tmp_path):
    cfg = write_cfg(tmp_path, dict(BALL_CFG, system="ball_rubber", D=0.5,
                                   epsilon=0.5, variables="m"))
    assert main(["crosscheck", "--config", cfg,
                 "--pair", "ball_rubber:elr_multiplier", "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "crosscheck_ball_rubber_elr_multiplier.csv")
    assert rows[0] == ["t", "deviation"]
    assert max(float(r[1]) for r in rows[1:]) < 1e-8
    assert main(["crosscheck", "--config", cfg,
                 "--pair", "elr_multiplier:ball_rubber", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("pair", ["elr_multiplier:elr_momentum", "ball_rubber:elr_multiplier"])
def test_crosscheck_checks_the_drift_of_both_trajectories(tmp_path, capsys, monkeypatch, pair):
    # with no drift allowed, rounding trips the check on the constrained side:
    # the partner's trajectory in the first pair, the config's in the second
    monkeypatch.setattr(numerics, "_DRIFT_TOL", 0.0)
    system = pair.split(":")[0]
    cfg = sample_config(CONFIGS[CONFIG_IDS.index(system)], integrator={"t_end": 0.5})
    p = write_cfg(tmp_path, cfg)
    assert main(["crosscheck", "--config", p, "--pair", pair, "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err.startswith("numerical error: constraint drift ")
    assert not glob.glob(str(tmp_path / "*.csv"))


def test_crosscheck_requires_matching_system(tmp_path):
    cfg = write_cfg(tmp_path, BALL_CFG)
    assert main(["crosscheck", "--config", cfg,
                 "--pair", "ball_rubber:elr_multiplier", "--out", str(tmp_path)]) == 3


def test_crosscheck_unknown_pair(tmp_path):
    cfg = write_cfg(tmp_path, BALL_CFG)
    assert main(["crosscheck", "--config", cfg,
                 "--pair", "ball_chaplygin:veselova", "--out", str(tmp_path)]) == 3


# ---------------------------------------------------------------------------
# configuration errors

# the Veselova density holds for the wedge_products inertia only
VESELOVA_IDENTITY = {"system": "veselova", "n": 4, "r": 1, "inertia": {"kind": "identity"},
                     "D": None}
ELR_KEYS = {"system": "elr_multiplier", "n": 3, "k": 1, "D": None,
            "inertia": {"kind": "wedge_products", "a": [0.8, 1.1, 1.7]}}
VESELOVA_KEYS = dict(ELR_KEYS, system="veselova", k=None, r=1)
# counts are JSON integers and switches JSON booleans: int(3.5) would
# truncate and bool("false") is true
NOT_INTEGER_OR_BOOLEAN = [
    (dict(ELR_KEYS, n=3.5), "n"),
    (dict(ELR_KEYS, n=True), "n"),
    (dict(ELR_KEYS, k=1.5), "k"),
    (dict(VESELOVA_KEYS, r=1.9), "r"),
    ({"initial": {"seed": 3.5}}, "initial.seed"),
    ({"initial": {"seed": False}}, "initial.seed"),
    ({"initial": {"zero_constants": "false"}}, "initial.zero_constants"),
    ({"initial": {"zero_constants": 1}}, "initial.zero_constants"),
]
NAN, INF = math.nan, math.inf
# json reads NaN and Infinity; each of these names the dotted key holding one
NON_FINITE = [
    ({"integrator": {"t_end": INF}}, "integrator.t_end"),
    ({"integrator": {"t_end": NAN}}, "integrator.t_end"),
    ({"integrator": {"rel_tol": INF}}, "integrator.rel_tol"),
    ({"integrator": {"abs_tol": -INF}}, "integrator.abs_tol"),
    ({"integrator": {"method": "rk4_fixed", "dt": NAN}}, "integrator.dt"),
    ({"epsilon": NAN}, "epsilon"),
    ({"D": INF}, "D"),
    ({"inertia": [1.0, NAN, 3.0]}, "inertia"),
    ({"tolerance": NAN}, "tolerance"),
    ({"system": "lpr_stiefel", "inertia": None, "a": [0.8, NAN, 1.2], "D": 4.0, "r": 1}, "a"),
    ({"system": "elr_multiplier", "n": 3, "k": 1, "D": None,
      "inertia": {"kind": "wedge_diagonal", "diag": [1.0, INF, 2.0]}}, "inertia.diag"),
]


@pytest.mark.parametrize(
    "patch",
    [
        {"system": "pendulum"},
        {"epsilon": None},
        {"epsilon": 0.0, "checks": ["volume"]},
        {"inertia": [1.0, -2.0, 3.0]},
        {"integrator": {"t_end": -2.0}},
        {"integrator": {"timestep": 0.1}},
        {"initial": {"coords": [1.0, 2.0]}},
        {"variables": "quaternion", "system": "ball_rubber"},
        {"bogus_key": 1},
        {"variables": "m"},
        {"initial": {"sed": 3}},
        {"output": {"dri": "x"}},
        {"integrator": {"t_end": 1.0, "sample": 5}},
        {"initial": {"seed": "x"}},
        {"initial": {"seed": -1}},
        {"initial": {"coords": "abc"}},
        {"output": [1]},
        {"system": "lpr_stiefel", "inertia": None, "a": "xyz", "D": 4.0, "r": 1},
        {"system": "lpr_stiefel", "inertia": None, "a": [-0.8, -1.0, -1.2], "D": 4.0, "r": 1},
        {"integrator": {"samples": 2.5}},
        {"integrator": {"max_steps": 100.5}},
        {"integrator": {"renormalize_every": 1.5}},
        {"integrator": {"renormalize_every": 0}},
        VESELOVA_IDENTITY,
    ] + [patch for patch, _ in NON_FINITE + NOT_INTEGER_OR_BOOLEAN] + [{"tolerance": -1}],
)
def test_bad_configs_exit_three(tmp_path, patch):
    cfg = {k: v for k, v in dict(BALL_CFG, **patch).items() if v is not None}
    p = write_cfg(tmp_path, cfg)
    assert main(["simulate", "--config", p, "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize(
    "patch, key",
    [
        ({"bogus_key": 1}, "bogus_key"),
        ({"initial": {"sed": 3}}, "initial.sed"),
        ({"output": {"dri": "x"}}, "output.dri"),
        ({"initial": {"seed": "x"}}, "initial.seed"),
        ({"initial": {"coords": "abc"}}, "initial.coords"),
        ({"output": [1]}, "output"),
        ({"system": "lpr_stiefel", "inertia": None, "a": "xyz", "D": 4.0, "r": 1}, "a"),
        ({"integrator": {"samples": 2.5}}, "integrator"),
        ({"integrator": {"max_steps": 100.5}}, "integrator"),
        ({"integrator": {"renormalize_every": 1.5}}, "integrator"),
        ({"integrator": {"renormalize_every": 0}}, "integrator"),
        (VESELOVA_IDENTITY, "inertia"),
    ] + NON_FINITE + NOT_INTEGER_OR_BOOLEAN + [({"tolerance": -1}, "tolerance")],
)
def test_config_error_names_the_key(tmp_path, monkeypatch, capsys, patch, key):
    # no --out: a malformed "output" must not get as far as choosing a directory
    monkeypatch.chdir(tmp_path)
    cfg = {k: v for k, v in dict(BALL_CFG, **patch).items() if v is not None}
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg)]) == 3
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


@pytest.mark.parametrize("path", CONFIGS, ids=CONFIG_IDS)
def test_zero_epsilon_density_check_exits_three(tmp_path, path):
    # the --check argument decides, whatever the config's checks list says
    cfg = sample_config(path, epsilon=0.0, checks=["integrals"])
    p = write_cfg(tmp_path, cfg)
    checks = ["volume"]
    if SYSTEMS[cfg["system"]].constraints is None:
        checks.append("liouville")
    for check in checks:
        assert main(["verify", "--config", p, "--check", check, "--out", str(tmp_path)]) == 3


# system -> the key a run at epsilon 0 is refused for, or None where it runs
ZERO_EPSILON_REFUSED = {
    "elr_multiplier": "epsilon",
    "elr_momentum": "epsilon",
    "veselova": "epsilon",
    "ball_rubber": "epsilon",
    "elpr": None,
    "lpr_stiefel": None,
    "ball_chaplygin": None,
}


@pytest.mark.parametrize(
    "path, checks",
    [(p, ["integrals"]) for p in CONFIGS] + [(p, None) for p in CONFIGS],
    ids=CONFIG_IDS + [f"{i}-no_checks" for i in CONFIG_IDS],
)
def test_zero_epsilon_undefined_density_exits_three_before_integrating(
    tmp_path, monkeypatch, capsys, path, checks
):
    # simulate and verify record log_density, so a density undefined at
    # eps = 0 is a config error; crosscheck never evaluates it.  An absent
    # checks key declares no check, so it refuses nothing.
    cfg = sample_config(path, epsilon=0.0, checks=checks,
                        integrator={"t_end": 0.5, "samples": 3})
    if checks is None:
        del cfg["checks"]
    p = write_cfg(tmp_path, cfg)
    key = ZERO_EPSILON_REFUSED[cfg["system"]]
    integrations = []
    monkeypatch.setattr(cli, "integrate",
                        lambda *a, **kw: integrations.append(1) or integrate(*a, **kw))
    for argv in (["simulate"], ["verify", "--check", "integrals"]):
        rc = main(argv + ["--config", p, "--out", str(tmp_path)])
        if key is None:
            assert rc == 0
        else:
            assert rc == 3
            assert capsys.readouterr().err.startswith(f"config error: {key}: ")
    assert bool(integrations) == (key is None)
    for a, b in PAIRS:
        if a == cfg["system"]:  # ball_rubber's chart refuses eps = 0 itself
            rc = main(["crosscheck", "--config", p, "--pair", f"{a}:{b}", "--out", str(tmp_path)])
            assert rc == (3 if a == "ball_rubber" else 0)


def test_invalid_chaplygin_pair_parameters(tmp_path):
    cfg = {
        "system": "lpr_stiefel",
        "a": [1.0, 2.0, 3.0],
        "D": 2.0,
        "r": 1,
        "epsilon": 1.0,
    }
    p = write_cfg(tmp_path, cfg)
    assert main(["simulate", "--config", p, "--out", str(tmp_path)]) == 3


def test_malformed_json_and_missing_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"system": ', encoding="utf-8")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 3
    # nesting deeper than the json decoder's recursion limit
    bad.write_text('{"checks": ' + "[" * 5000 + "]" * 5000 + "}", encoding="utf-8")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 3
    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 3


def test_explicit_initial_coordinates(tmp_path):
    cfg = dict(BALL_CFG)
    cfg["initial"] = {"coords": [0.3, -0.2, 0.5, 0.0, 0.6, 0.8]}
    p = write_cfg(tmp_path, cfg)
    assert main(["simulate", "--config", p, "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "ball_chaplygin_trajectory.csv")
    first = [float(v) for v in rows[1][4:7]]
    assert first == [0.0, 0.6, 0.8]


# ---------------------------------------------------------------------------
# system registry


def test_registry_covers_the_sample_configs():
    assert set(SYSTEMS) == {sample_config(p)["system"] for p in CONFIGS}


@pytest.mark.parametrize("path", CONFIGS, ids=CONFIG_IDS)
def test_every_sample_config_runs_through_the_registry(tmp_path, path):
    cfg = sample_config(path, integrator={"t_end": 0.5, "samples": 3})
    p = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    system = cfg["system"]
    assert main(["simulate", "--config", p, "--out", out]) == 0
    run = load_config(p)
    header = read_rows(tmp_path / "out" / f"{system}_trajectory.csv")[0]
    n_obs = len(observables(run.chart, run.initial_coords(run.seed)))
    assert len(header) == 1 + run.chart.dim + n_obs
    checks = ["integrals"] + (["liouville"] if run.chart.constraints is None else [])
    for check in checks:
        assert main(["verify", "--config", p, "--check", check, "--out", out]) == 0


_TEXT = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6)
    | st.floats(-3, 3, allow_nan=False, allow_infinity=False)
    | st.sampled_from([NAN, INF, -INF]) | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8,
)
_COMMANDS = (["simulate"], ["verify", "--check", "integrals"],
             ["verify", "--check", "volume"], ["verify", "--check", "liouville"])
_INTEGRATOR_KEYS = [f"integrator.{f.name}" for f in fields(IntegratorConfig)]
_CROSSCHECKS = tuple(["crosscheck", "--pair", f"{a}:{b}"] for a, b in PAIRS)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_value_for_one_config_key_exits_cleanly(tmp_path, data):
    # digits are left out of the text: a string such as "99999" read as n
    # would ask for a state of billions of entries
    argv = data.draw(st.sampled_from(_COMMANDS + _CROSSCHECKS))
    if argv[0] == "crosscheck":  # the sample config of the pair's first system
        system = argv[2].split(":")[0]
        cfg = sample_config(next(p for p, c in zip(CONFIGS, CONFIG_IDS) if c == system))
    else:
        cfg = sample_config(data.draw(st.sampled_from(CONFIGS)))
    cfg["integrator"] = {"t_end": 0.2, "samples": 3, "max_steps": 2000}
    keys = sorted(k for k in cfg if k != "integrator") + _INTEGRATOR_KEYS
    key = data.draw(st.sampled_from(keys))
    node = cfg["integrator"] if key.startswith("integrator.") else cfg
    node[key.split(".")[-1]] = data.draw(_JSON)
    p = write_cfg(tmp_path, cfg)
    assert main(argv + ["--config", p, "--out", str(tmp_path)]) in (0, 2, 3, 4)
