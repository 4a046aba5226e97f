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


AMBIENT_IDS = [i for i in CONFIG_IDS if SYSTEMS[i].constraints is None]


@pytest.mark.parametrize("system", AMBIENT_IDS)
def test_liouville_wrong_exponent_control_fails(tmp_path, monkeypatch, system):
    # log_density_grad doubled: the gradient of a density with twice the
    # exponent, which the flow does not preserve
    chart_cls = SYSTEMS[system]
    exact = chart_cls.log_density_grad
    monkeypatch.setattr(chart_cls, "log_density_grad", lambda self, c: 2.0 * exact(self, c))
    path = CONFIGS[CONFIG_IDS.index(system)]
    assert main(["verify", "--config", path, "--check", "liouville", "--seeds", "3",
                 "--out", str(tmp_path)]) == 2
    rows = read_rows(tmp_path / f"{system}_liouville.csv")[1:]
    assert len(rows) == 3
    assert all(r[-1] == "fail" and float(r[8]) > 1e-3 for r in rows)


# (system, initial coords, abort cause): Pi = -3 Id, which leaves I + Pi
# indefinite (elpr, n = 4: 6 velocity, then 21 Pi coordinates), and two
# equal frame rows (elr_multiplier, n = 4, k = 2)
_PI = -3.0 * np.eye(6)
DEGENERATE_LIOUVILLE = [
    ("elpr", [0.1] * 6 + _PI[np.triu_indices(6)].tolist(), "I + Pi lost positive definiteness"),
    ("elr_multiplier", [1.0] * 18, "frame Gram matrix is singular"),
]


@pytest.mark.parametrize("seeds", [1, 3])
@pytest.mark.parametrize("system, coords, cause", DEGENERATE_LIOUVILLE,
                         ids=[c[0] for c in DEGENERATE_LIOUVILLE])
def test_liouville_on_a_degenerate_state_records_abort_rows(tmp_path, capsys, system,
                                                            coords, cause, seeds):
    cfg = sample_config(CONFIGS[CONFIG_IDS.index(system)], initial={"coords": coords})
    p = write_cfg(tmp_path, cfg)
    # initial.coords give one state: more seeds would certify it again
    rc = main(["verify", "--config", p, "--check", "liouville", "--seeds", str(seeds),
               "--out", str(tmp_path)])
    assert "Traceback" not in capsys.readouterr().err
    csv_path = tmp_path / f"{system}_liouville.csv"
    if seeds > 1:
        assert rc == 3 and not csv_path.exists()
        return
    assert rc == 4
    rows = read_rows(csv_path)[1:]
    assert [(r[7], r[-1]) for r in rows] == [("abort", f"abort: {cause}")]


def _liouville_alone(tmp_path, cfg, seed):
    """The row of a one-seed Liouville run of cfg from seed."""
    p = write_cfg(tmp_path, dict(cfg, initial={"seed": seed}), f"seed{seed}.json")
    out = tmp_path / f"alone{seed}"
    assert main(["verify", "--config", p, "--check", "liouville", "--seeds", "1",
                 "--out", str(out)]) == 0
    (row,) = read_rows(out / f"{cfg['system']}_liouville.csv")[1:]
    return row


@pytest.mark.parametrize("system", AMBIENT_IDS)
def test_verify_liouville_ensemble_matches_single_seed_runs(tmp_path, system):
    # the residuals of all seeds are one call; each row is its seed's own
    # up to the rounding of a batched evaluation
    cfg = sample_config(CONFIGS[CONFIG_IDS.index(system)], initial={"seed": 7})
    assert main(["verify", "--config", write_cfg(tmp_path, cfg), "--check", "liouville",
                 "--seeds", "3", "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / f"{system}_liouville.csv")[1:]
    assert [r[5] for r in rows] == ["7", "8", "9"]
    for row in rows:
        alone = _liouville_alone(tmp_path, cfg, int(row[5]))
        assert alone[:8] == row[:8] and alone[9:] == row[9:] == [row[9], "pass"]
        assert abs(float(alone[8]) - float(row[8])) <= 1e-12


def test_verify_liouville_failing_seed_becomes_abort_row(tmp_path, monkeypatch):
    # one seed's failure in the batched call: the other seeds rerun alone,
    # so their rows are the bytes of their own one-seed runs
    cfg = sample_config(CONFIGS[CONFIG_IDS.index("elpr")], initial={"seed": 7})
    alone = {seed: _liouville_alone(tmp_path, cfg, seed) for seed in (7, 9)}
    bad = load_config(write_cfg(tmp_path, cfg)).initial_coords(8)
    original = SYSTEMS["elpr"].log_density_grad

    def broken(self, coords):
        if np.any(np.all(np.asarray(coords) == bad, axis=-1)):
            raise SingularityError("injected failure")
        return original(self, coords)

    monkeypatch.setattr(SYSTEMS["elpr"], "log_density_grad", broken)
    assert main(["verify", "--config", write_cfg(tmp_path, cfg), "--check", "liouville",
                 "--seeds", "3", "--out", str(tmp_path / "ensemble")]) == 4
    rows = read_rows(tmp_path / "ensemble" / "elpr_liouville.csv")[1:]
    assert [r[5] for r in rows] == ["7", "8", "9"]
    assert (rows[1][7], rows[1][10]) == ("abort", "abort: injected failure")
    assert rows[0] == alone[7] and rows[2] == alone[9]
    assert rows[0][10] == rows[2][10] == "pass"


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
    # volume transport used to integrate the first interval before its
    # first drift check, and named t=0.05
    for check in ("integrals", "volume"):
        assert main(["verify", "--config", p, "--check", check, "--seeds", "1",
                     "--out", str(out)]) == 4
        rows = read_rows(out / f"{system}_{check}.csv")
        assert len(rows) == 2 and rows[1][7] == "abort"
        assert rows[1][-1].startswith("abort: constraint drift ")
        assert rows[1][-1].endswith(" exceeds 1e-06 at t=0")


def test_simulate_abort_exits_four(tmp_path):
    cfg = dict(BALL_CFG, integrator={"t_end": 50.0, "max_steps": 5})
    p = write_cfg(tmp_path, cfg)
    assert main(["simulate", "--config", p, "--out", str(tmp_path)]) == 4
    assert not glob.glob(str(tmp_path / "*.csv"))


def test_simulate_non_finite_field_exits_four_without_csv(tmp_path, capsys):
    # the field overflows at the first evaluation, before any step
    cfg = dict(BALL_CFG, initial={"coords": [1e200, 1e200, 1e200, 0.0, 0.0, 1.0]})
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["simulate", "--config", p, "--out", str(out)]) == 4
    assert "non-finite field value" in capsys.readouterr().err
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


@pytest.mark.parametrize("system", CONFIG_IDS)
def test_verify_volume_with_exact_kernels_keeps_the_fd_transport_results(tmp_path, system):
    # the command integrates each chart's divergence; the basis
    # transport of the same ensemble, by central differences along a
    # tangent basis, is the reference
    path = CONFIGS[CONFIG_IDS.index(system)]
    assert main(["verify", "--config", path, "--check", "volume", "--seeds", "4",
                 "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / f"{system}_volume.csv")[1:]
    run = load_config(path)
    chart = run.chart
    x0 = np.array([run.initial_coords(run.seed + i) for i in range(4)])
    fd = numerics.tangent_volume_transport(
        chart.field, chart.log_density, x0, chart.constraints, run.integrator
    )
    assert len(rows) == len(fd) == 4
    for row, res in zip(rows, fd):
        ref = res.max_abs_residual
        assert row[10] == ("pass" if ref <= float(row[9]) else "fail")
        assert abs(float(row[8]) - ref) <= 1e-8


@pytest.mark.parametrize("system", CONFIG_IDS)
def test_verify_volume_wrong_exponent_control_fails(tmp_path, monkeypatch, system):
    # log_density doubled: a density with twice the exponent, which the flow
    # does not preserve; at eps = 1/2 the veselova exponent is 0, so its
    # control runs at eps = 2
    chart_cls = SYSTEMS[system]
    exact = chart_cls.log_density
    monkeypatch.setattr(chart_cls, "log_density", lambda self, c: 2.0 * exact(self, c))
    cfg = sample_config(CONFIGS[CONFIG_IDS.index(system)])
    if system == "veselova":
        cfg["epsilon"] = 2.0
    assert main(["verify", "--config", write_cfg(tmp_path, cfg), "--check", "volume",
                 "--seeds", "3", "--out", str(tmp_path)]) == 2
    rows = read_rows(tmp_path / f"{system}_volume.csv")[1:]
    assert len(rows) == 3
    assert all(r[-1] == "fail" and float(r[8]) > 1e-3 for r in rows)


@pytest.mark.parametrize("method", ["divergence", "log_density"])
def test_verify_failing_seed_becomes_abort_row(tmp_path, monkeypatch, method):
    # errors of divergence, which volume transport integrates, reach
    # verify wrapped in IntegrationAbort, log_density errors unwrapped;
    # either way only the failing seed aborts
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


@pytest.mark.parametrize("failure", ["raises", "nan"])
def test_verify_volume_divergence_failure_in_a_step_becomes_abort_row(
    tmp_path, capsys, monkeypatch, failure
):
    # the divergence of every step's weighted stages is one call on 8 rows a
    # member and branch; a failure there, not at the start, aborts the seed
    cfg = write_cfg(tmp_path, BALL_CFG)
    bad = load_config(cfg).initial_coords(8)
    original = ChaplyginChart.divergence

    def broken(self, coords):
        div = original(self, coords)
        hit = np.all(np.abs(np.asarray(coords) - bad) < 1e-3, axis=-1)
        if len(coords) % 8 or not np.any(hit):
            return div
        if failure == "raises":
            raise SingularityError("injected failure")
        return np.where(hit, np.nan, div)

    monkeypatch.setattr(ChaplyginChart, "divergence", broken)
    assert main(["verify", "--config", cfg, "--check", "volume", "--seeds", "3",
                 "--out", str(tmp_path)]) == 4
    assert "Traceback" not in capsys.readouterr().err
    rows = read_rows(tmp_path / "ball_chaplygin_volume.csv")
    status = {r[5]: r[10] for r in rows[1:]}
    assert status["7"] == status["9"] == "pass"
    cause = {"raises": "injected failure", "nan": "non-finite field value"}[failure]
    assert status["8"].startswith("abort: ") and status["8"].endswith(cause)


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


def test_config_tolerance_replaces_the_default(tmp_path):
    # a loose tolerance passes, and zero stays allowed
    loose = write_cfg(tmp_path, dict(BALL_CFG, tolerance=10.0))
    assert main(["verify", "--config", loose, "--check", "volume",
                 "--out", str(tmp_path)]) == 0
    zero = write_cfg(tmp_path, dict(BALL_CFG, tolerance=0), "zero.json")
    assert main(["verify", "--config", zero, "--check", "volume",
                 "--out", str(tmp_path)]) == 2


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


def _eps_shifted(partner):
    """partner with its chart's eps moved by 1e-3: a model error."""

    def lift(chart, coords):
        other, y, deviation = partner(chart, coords)
        other.eps += 1e-3
        return other, y, deviation

    return lift


# every pair on its sample config, the rubber ball's also in the omega variables
PAIR_CASES = [(pair, {}) for pair in PAIRS] + [
    (pair, {"variables": "omega"}) for pair in PAIRS if pair[0] == "ball_rubber"
]


@pytest.mark.parametrize(
    "pair, patch", PAIR_CASES,
    ids=[":".join(pair) + "".join(f"-{v}" for v in patch.values()) for pair, patch in PAIR_CASES],
)
def test_crosscheck_deviation_is_integrator_error(pair, patch):
    # a tolerance 10 times smaller shrinks a correct pair's deviation about
    # tenfold (or it sits at the rounding floor), and leaves a model error
    # as it was: integrator error is told from model error by tightening
    raw = sample_config(CONFIGS[CONFIG_IDS.index(pair[0])], **patch)

    def deviation(partner, tol):
        integ = dict(raw["integrator"], abs_tol=tol, rel_tol=tol)
        cfg = cli.RunConfig(dict(raw, integrator=integ))
        return float(np.max(cli._crosscheck_deviations(cfg, partner, cfg.integrator)[1]))

    real = [deviation(PAIRS[pair], tol) for tol in (1e-10, 1e-11)]
    assert real[0] <= 1e-13 or real[0] >= 5.0 * real[1], real
    mutant = [deviation(_eps_shifted(PAIRS[pair]), tol) for tol in (1e-10, 1e-11)]
    assert mutant[0] >= 1e-4 and mutant[0] < 2.0 * mutant[1], mutant


# a correct pair whose deviation at the default integrator tolerance, 1.044e-8,
# is integrator error just above the 1e-8 gate: 7.6e-10, 6.2e-11 and 5.3e-12
# at abs_tol = rel_tol = 1e-11, 1e-12 and 1e-13
TIGHTENED = {
    "system": "ball_rubber", "epsilon": -1.0, "inertia": [1.805099, 1.785761, 1.785111],
    "D": 0.25097, "variables": "m", "initial": {"seed": 2033411111},
    "integrator": {"t_end": 5.0, "abs_tol": 1e-10, "rel_tol": 1e-10, "samples": 33},
}


def _tightened_run(tmp_path, monkeypatch, cfg, partner=None):
    """Exit code, the abs_tol of each integration, CSV rows and stdout of a
    ball_rubber:veselova crosscheck of cfg."""
    tols = []

    def recording(field, x0, cfg, *args, **kwargs):
        tols.append(cfg.abs_tol)
        return integrate(field, x0, cfg, *args, **kwargs)

    monkeypatch.setattr(cli, "integrate", recording)
    if partner is not None:
        monkeypatch.setitem(PAIRS, ("ball_rubber", "veselova"), partner)
    rc = main(["crosscheck", "--config", write_cfg(tmp_path, cfg),
               "--pair", "ball_rubber:veselova", "--out", str(tmp_path)])
    path = tmp_path / "crosscheck_ball_rubber_veselova.csv"
    return rc, tols, read_rows(path) if path.exists() else None


def test_crosscheck_reruns_a_correct_pair_at_a_tighter_tolerance(tmp_path, monkeypatch, capsys):
    rc, tols, rows = _tightened_run(tmp_path, monkeypatch, TIGHTENED)
    assert rc == 0
    assert tols == pytest.approx([1e-10, 1e-10, 1e-11, 1e-11], rel=1e-12)
    worst = max(float(r[1]) for r in rows[1:])
    assert 1e-10 < worst <= 1e-8  # the CSV is the passing run's
    assert len(rows) == 34
    assert "(pass) at abs_tol 1e-11, rel_tol 1e-11 -> " in capsys.readouterr().out


def test_crosscheck_that_passes_at_once_runs_once(tmp_path, monkeypatch, capsys):
    cfg = dict(TIGHTENED, tolerance=2e-8)
    rc, tols, rows = _tightened_run(tmp_path, monkeypatch, cfg)
    assert (rc, tols) == (0, [1e-10, 1e-10])
    assert max(float(r[1]) for r in rows[1:]) == pytest.approx(1.044e-8, rel=1e-3)
    assert "(pass) at abs_tol 1e-10, rel_tol 1e-10 -> " in capsys.readouterr().out


def test_crosscheck_model_error_settles_and_exits_two(tmp_path, monkeypatch, capsys):
    # eps moved by 1e-3 on the partner: the deviation stays at 3.8e-3 as
    # the tolerance shrinks, so one tighter level tells it from integrator error
    partner = _eps_shifted(PAIRS[("ball_rubber", "veselova")])
    rc, tols, rows = _tightened_run(tmp_path, monkeypatch, TIGHTENED, partner)
    assert rc == 2
    assert tols == pytest.approx([1e-10, 1e-10, 1e-11, 1e-11], rel=1e-12)
    assert max(float(r[1]) for r in rows[1:]) > 1e-3
    assert "(fail) at abs_tol 1e-11, rel_tol 1e-11 -> " in capsys.readouterr().out


def test_crosscheck_that_would_need_a_tolerance_below_the_floor_exits_four(
    tmp_path, monkeypatch, capsys
):
    # the deviation shrinks by more than 10% at every level down to 1e-13
    # and stays above a 1e-15 gate: integrator error the floor cannot resolve
    rc, tols, _ = _tightened_run(tmp_path, monkeypatch, dict(TIGHTENED, tolerance=1e-15))
    assert rc == 4
    assert tols == pytest.approx([1e-10] * 2 + [1e-11] * 2 + [1e-12] * 2 + [1e-13] * 2, rel=1e-12)
    out, err = capsys.readouterr()
    assert "(unresolved) at abs_tol 1e-13, rel_tol 1e-13 -> " in out
    assert err.startswith("integrator error: ") and "Traceback" not in err


def test_crosscheck_abort_at_a_tighter_tolerance_names_the_integrator(
    tmp_path, monkeypatch, capsys
):
    # enough steps for the configured tolerance, too few for the next level
    counts = []

    def counting(field, x0, cfg, *args, **kwargs):
        traj = integrate(field, x0, cfg, *args, **kwargs)
        counts.append(traj.stats.accepted + traj.stats.rejected)
        return traj

    monkeypatch.setattr(cli, "integrate", counting)
    assert main(["crosscheck", "--config", write_cfg(tmp_path, TIGHTENED),
                 "--pair", "ball_rubber:veselova", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    integ = dict(TIGHTENED["integrator"], max_steps=max(counts[:2]))
    budget = tmp_path / "budget"
    budget.mkdir()
    rc, tols, rows = _tightened_run(budget, monkeypatch, dict(TIGHTENED, integrator=integ))
    assert rc == 4 and rows is None
    err = capsys.readouterr().err
    assert err.startswith("integration abort: ")
    assert "max_steps exceeded (integrator rerun at abs_tol 1e-11, rel_tol 1e-11)" in err


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


def _crosscheck_start(tmp_path, monkeypatch, cfg, pair):
    """Exit code, CSV bytes and the config side's initial coordinates of a
    crosscheck run."""
    starts = []

    def recording(field, x0, *args, **kwargs):
        starts.append(np.array(x0))
        return integrate(field, x0, *args, **kwargs)

    monkeypatch.setattr(cli, "integrate", recording)
    rc = main(["crosscheck", "--config", write_cfg(tmp_path, cfg), "--pair", pair,
               "--out", str(tmp_path)])
    out = tmp_path / f"crosscheck_{pair.replace(':', '_')}.csv"
    return rc, out.read_bytes() if out.exists() else None, starts[0] if starts else None


@pytest.mark.parametrize("pair", ["ball_rubber:veselova", "ball_rubber:elr_multiplier"])
def test_crosscheck_starts_from_the_configured_coordinates(tmp_path, monkeypatch, pair):
    # crosscheck used to draw its state from the seed whatever initial.coords
    # said, so every one of these runs wrote the same CSV
    cfg = sample_config(CONFIGS[CONFIG_IDS.index("ball_rubber")],
                        integrator={"t_end": 1.0, "samples": 5})
    outputs = set()
    for m, g in (([0.3, -0.2, 0.5], [0.0, 0.6, 0.8]), ([1.0, 0.4, 0.0], [0.8, 0.0, 0.6]),
                 ([0.0, 0.5, -1.0], [1.0, 0.0, 0.0])):
        cfg["initial"] = {"coords": m + g}
        rc, csv_bytes, x0 = _crosscheck_start(tmp_path, monkeypatch, cfg, pair)
        assert rc == 0
        assert np.array_equal(x0, m + g)
        outputs.add(csv_bytes)
    assert len(outputs) == 3


@pytest.mark.parametrize("pair", [":".join(p) for p in PAIRS])
def test_crosscheck_from_the_seeded_coordinates_matches_the_seeded_run(
    tmp_path, monkeypatch, pair
):
    # the partner lifts the seeded coordinates as it lifts given ones
    path = CONFIGS[CONFIG_IDS.index(pair.split(":")[0])]
    cfg = sample_config(path, integrator={"t_end": 1.0, "samples": 5})
    seeded = _crosscheck_start(tmp_path, monkeypatch, cfg, pair)
    assert seeded[0] == 0
    cfg["initial"] = {"coords": load_config(path).initial_coords(cfg["initial"]["seed"]).tolist()}
    assert _crosscheck_start(tmp_path, monkeypatch, cfg, pair)[:2] == seeded[:2]


@pytest.mark.parametrize("pair", ["ball_rubber:veselova", "ball_rubber:elr_multiplier"])
def test_crosscheck_honours_zero_constants(tmp_path, monkeypatch, pair):
    path = CONFIGS[CONFIG_IDS.index("ball_rubber")]
    run = load_config(path)
    assert run.zero_constants
    cfg = sample_config(path, integrator={"t_end": 1.0, "samples": 5})
    rc, on, x0 = _crosscheck_start(tmp_path, monkeypatch, cfg, pair)
    assert rc == 0
    assert np.array_equal(x0, run.initial_coords(run.seed))
    assert abs(run.chart.integrals(x0)["phi1"]) <= 1e-15
    cfg["initial"]["zero_constants"] = False
    rc, off, x0 = _crosscheck_start(tmp_path, monkeypatch, cfg, pair)
    assert rc == 0 and off != on
    assert abs(run.chart.integrals(x0)["phi1"]) > 1e-3


# (pair, coords the config's chart accepts but the pair cannot lift): a
# multiplier frame that is not orthonormal, one that is dependent, and unit
# gammas off by 1e-8, within the 1e-6 drift bound of a run but not the
# lifts' 1e-10
UNLIFTABLE = [
    ("elr_multiplier:elr_momentum", [0.1] * 6 + [2.0, 0, 0, 0, 0, 0, 0, 2.0, 0, 0, 0, 0]),
    ("ball_chaplygin:elpr", [0.3, -0.2, 0.5] + [0.0, 0.6, 0.8 + 1e-8]),
    ("ball_rubber:elr_multiplier", [0.3, -0.2, 0.5] + [0.0, 0.6, 0.8 + 1e-8]),
    ("ball_rubber:veselova", [0.3, -0.2, 0.5] + [0.0, 0.6, 0.8 + 1e-8]),
    ("elr_multiplier:elr_momentum", [0.1] * 6 + [1.0, 0, 0, 0, 0, 0] * 2),
]
UNLIFTABLE_IDS = [p for p, _ in UNLIFTABLE[:-1]] + ["elr_multiplier:elr_momentum-dependent"]


@pytest.mark.parametrize("pair, coords", UNLIFTABLE, ids=UNLIFTABLE_IDS)
def test_crosscheck_from_coordinates_the_pair_cannot_lift_exits_three(
    tmp_path, monkeypatch, capsys, pair, coords
):
    # the non-orthonormal multiplier frame used to exit 4, a numerical error
    system = pair.split(":")[0]
    cfg = sample_config(CONFIGS[CONFIG_IDS.index(system)], initial={"coords": coords})
    rc, csv_bytes, x0 = _crosscheck_start(tmp_path, monkeypatch, cfg, pair)
    assert (rc, csv_bytes, x0) == (3, None, None)
    assert capsys.readouterr().err.startswith("config error: initial.coords: ")


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
    ({"integrator": {"max_steps": NAN}}, "integrator.max_steps"),
    ({"epsilon": NAN}, "epsilon"),
    ({"D": INF}, "D"),
    ({"inertia": [1.0, NAN, 3.0]}, "inertia"),
    ({"tolerance": NAN}, "tolerance"),
    ({"system": "lpr_stiefel", "inertia": None, "a": [0.8, NAN, 1.2], "D": 4.0, "r": 1}, "a"),
    ({"system": "elr_multiplier", "n": 3, "k": 1, "D": None,
      "inertia": {"kind": "wedge_diagonal", "diag": [1.0, INF, 2.0]}}, "inertia.diag"),
]
# a list entry null or "nan" would convert to NaN
NAN_LIST_ENTRIES = [
    ({"inertia": [1.0, None, 3.0]}, "inertia"),
    ({"initial": {"coords": ["nan"] * 6}}, "initial.coords"),
]
# sample grids numpy refuses outright (10**20 overflows its size type, 2**62
# floats exceed its largest array), never one it would try to allocate; and a
# negative max_steps, a config error rather than an abort at t = 0
TOO_MANY_SAMPLES_OR_NEGATIVE_STEPS = [
    ({"integrator": {"samples": 10**20}}, "integrator.samples"),
    ({"integrator": {"samples": 2**62}}, "integrator.samples"),
    ({"integrator": {"max_steps": -1}}, "integrator"),
]
# each integrator tolerance is refused under its own name
BAD_TOLERANCES = [
    ({"integrator": {"abs_tol": 0}}, "abs_tol must be positive, got 0"),
    ({"integrator": {"rel_tol": -1}}, "rel_tol must be nonnegative, got -1"),
]
# a boolean or a non-number as t_end or a tolerance: true and false used to
# run as 1 and 0, a string or null was refused without naming the key
NOT_REAL = [
    ({"integrator": {"t_end": True}}, "t_end must be a real number, got True"),
    ({"integrator": {"rel_tol": False}}, "rel_tol must be a real number, got False"),
    ({"integrator": {"abs_tol": "1e-9"}}, "abs_tol must be a real number, got '1e-9'"),
    ({"integrator": {"t_end": None}}, "t_end must be a real number, got None"),
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
    ] + [patch for patch, _ in NON_FINITE + NOT_INTEGER_OR_BOOLEAN] + [{"tolerance": -1}]
    + [patch for patch, _ in NAN_LIST_ENTRIES + TOO_MANY_SAMPLES_OR_NEGATIVE_STEPS]
    + [patch for patch, _ in BAD_TOLERANCES],
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
        ({"integrator": {"renormalize_every": 1.5}}, "integrator.renormalize_every"),
        ({"integrator": {"renormalize_every": 0}}, "integrator.renormalize_every"),
        ({"integrator": {"method": "dop853"}}, "integrator.method"),
        ({"integrator": {"dt": 0.1}}, "integrator.dt"),
        (VESELOVA_IDENTITY, "inertia"),
    ] + NON_FINITE + NOT_INTEGER_OR_BOOLEAN + [({"tolerance": -1}, "tolerance")]
    + NAN_LIST_ENTRIES + TOO_MANY_SAMPLES_OR_NEGATIVE_STEPS
    + [(patch, "integrator") for patch, _ in BAD_TOLERANCES + NOT_REAL],
)
def test_config_error_names_the_key(tmp_path, monkeypatch, capsys, patch, key):
    # no --out: a malformed "output" must not get as far as choosing a directory
    monkeypatch.chdir(tmp_path)
    cfg = {k: v for k, v in dict(BALL_CFG, **patch).items() if v is not None}
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg)]) == 3
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


@pytest.mark.parametrize("patch, message", BAD_TOLERANCES, ids=["abs_tol", "rel_tol"])
def test_integrator_tolerance_error_names_its_key(tmp_path, capsys, patch, message):
    # both used to read "tolerances must be positive", which named neither
    p = write_cfg(tmp_path, dict(BALL_CFG, **patch))
    assert main(["simulate", "--config", p, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == f"config error: integrator: {message}\n"


@pytest.mark.parametrize(
    "patch, message", NOT_REAL, ids=["t_end-true", "rel_tol-false", "abs_tol-str", "t_end-null"]
)
def test_integrator_value_of_the_wrong_type_names_its_key(tmp_path, capsys, patch, message):
    p = write_cfg(tmp_path, dict(BALL_CFG, **patch))
    assert main(["simulate", "--config", p, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == f"config error: integrator: {message}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["verify", "--check", "integrals", "--seeds", "2"],
     ["crosscheck", "--pair", "elr_multiplier:elr_momentum"]],
    ids=["simulate", "verify", "crosscheck"],
)
def test_one_sample_after_t_zero_is_a_config_error(tmp_path, monkeypatch, capsys, argv):
    # one sample at t_end > 0 would be the initial state alone: no step is
    # taken, and every drift and deviation reads 0
    monkeypatch.chdir(tmp_path)
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "elr_multiplier.json")
    cfg = sample_config(path, integrator={"samples": 1, "t_end": 50})
    p = write_cfg(tmp_path, cfg)
    assert main(argv[:1] + ["--config", p, "--out", str(tmp_path)] + argv[1:]) == 3
    assert capsys.readouterr().err.startswith("config error: integrator: ")
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


def test_one_sample_at_t_zero_runs(tmp_path):
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "elr_multiplier.json")
    p = write_cfg(tmp_path, sample_config(path, integrator={"samples": 1, "t_end": 0}))
    assert main(["simulate", "--config", p, "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "elr_multiplier_trajectory.csv")
    assert [float(r[0]) for r in rows[1:]] == [0.0]


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


ELPR_CONFIG = CONFIGS[CONFIG_IDS.index("elpr")]


@pytest.mark.parametrize(
    "argv, option",
    [
        (["verify", "--config", ELPR_CONFIG, "--check", "bogus"], "--check"),
        (["verify", "--config", ELPR_CONFIG, "--check", "volume", "--seeds", "x"], "--seeds"),
        (["verify", "--check", "volume"], "--config"),
        (["crosscheck", "--config", ELPR_CONFIG], "--pair"),
    ],
    ids=["bad-check", "bad-seeds", "no-config", "no-pair"],
)
def test_bad_arguments_are_config_errors(capsys, argv, option):
    # exit 2 means a gated quantity failed, so argparse's own exit 2 must not leak
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and option in err


def test_parser_built_once_still_refuses_a_bad_argument_after_a_good_call(tmp_path, capsys):
    p = write_cfg(tmp_path, dict(BALL_CFG, integrator={"t_end": 0.5, "samples": 3}))
    good = ["simulate", "--config", p, "--out", str(tmp_path)]
    assert main(good) == 0
    assert main(["verify", "--config", p, "--check", "bogus"]) == 3
    assert "--check" in capsys.readouterr().err
    assert main(good) == 0
    assert cli._build_parser() is cli._build_parser()


COORDS_CFG = dict(sample_config(CONFIGS[CONFIG_IDS.index("ball_rubber")]),
                  initial={"coords": [0.3, -0.2, 0.5, 0.0, 0.6, 0.8]})


def test_verify_with_initial_coords_refuses_more_than_one_seed(tmp_path, capsys):
    # three seeds used to write three identical rows, one state certified thrice
    p = write_cfg(tmp_path, COORDS_CFG)
    out = tmp_path / "out"
    assert main(["verify", "--config", p, "--check", "volume", "--seeds", "3",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: --seeds: ") and "initial.coords" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert main(["verify", "--config", p, "--check", "volume", "--seeds", "1",
                 "--out", str(out)]) == 0
    assert len(read_rows(out / "ball_rubber_volume.csv")) == 2


def test_simulate_with_initial_coords_refuses_a_seed(tmp_path, capsys):
    # --seed used to be ignored without a word
    p = write_cfg(tmp_path, COORDS_CFG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", p, "--seed", "7", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: --seed: ") and "Traceback" not in err
    assert not out.exists()
    assert main(["simulate", "--config", p, "--out", str(out)]) == 0


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
