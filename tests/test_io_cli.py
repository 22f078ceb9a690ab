import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from ibstokes import cli, schemes
from ibstokes.errors import ParameterError, SolverStallError
from ibstokes.io import (RunConfig, load_run_config, load_snapshot,
                         parse_config_text, save_snapshot)
from ibstokes.presets import PRESETS


class TestConfigParsing:
    def test_values_and_comments(self):
        data = parse_config_text("""
            # a comment
            scheme = ssd1_unsteady
            n = 64            # trailing comment
            dt = 0.25
            t_end = 2
            label = demo-run
            rescale = true
        """)
        # each value takes its field's type; an unknown key keeps its text
        # for load_run_config to refuse
        assert data == {"scheme": "ssd1_unsteady", "n": 64, "dt": 0.25, "t_end": 2.0,
                        "label": "demo-run", "rescale": "true"}
        assert type(data["t_end"]) is float

    def test_bad_line(self):
        with pytest.raises(ParameterError):
            parse_config_text("this is not an assignment")

    def test_unknown_key(self):
        with pytest.raises(ParameterError):
            load_run_config(None, {"no_such_field": 1})

    def test_validation_names_field(self):
        with pytest.raises(ParameterError, match="dt"):
            RunConfig(dt=-1.0)
        with pytest.raises(ParameterError, match="scheme"):
            RunConfig(scheme="nope")
        with pytest.raises(ParameterError, match="n"):
            RunConfig(n=63)

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("scheme = explicit_steady\nn = 32\ndt = 0.5\n")
        config = load_run_config(str(path), {"dt": 0.125})
        assert config.scheme == "explicit_steady"
        assert config.dt == 0.125

    def test_default_boundary_count(self):
        assert RunConfig(n=48).n_boundary == 96


class TestSnapshots:
    def make_state(self):
        config = RunConfig(scheme="ssd1_unsteady", n=32, dt=0.1, t_end=0.2)
        phys, grid, cfg = config.phys(), config.grid(), config.scheme_config()
        state = schemes.initial_state(phys, grid)
        state = schemes.step(state, phys, grid, cfg)
        return config, phys, grid, state

    def test_roundtrip_bitwise(self, tmp_path):
        config, phys, grid, state = self.make_state()
        path = tmp_path / "snap.json"
        save_snapshot(str(path), state, config)
        back = load_snapshot(str(path))
        assert np.array_equal(back.interface.s_alpha, state.interface.s_alpha)
        assert np.array_equal(back.interface.phi, state.interface.phi)
        assert np.array_equal(back.interface.ref_points, state.interface.ref_points)
        assert np.array_equal(back.fluid.u, state.fluid.u)
        assert back.t == state.t and back.step == state.step

    def test_save_load_step_equals_step(self, tmp_path):
        config, phys, grid, state = self.make_state()
        cfg1 = config.scheme_config()
        cfg2 = config.scheme_config()
        path = tmp_path / "snap.json"
        save_snapshot(str(path), state, config)
        direct = schemes.step(state, phys, grid, cfg1)
        resumed = schemes.step(load_snapshot(str(path)), phys, grid, cfg2)
        assert np.array_equal(direct.interface.s_alpha, resumed.interface.s_alpha)
        assert np.array_equal(direct.curve.x, resumed.curve.x)

    def test_format_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 999}))
        with pytest.raises(ParameterError):
            load_snapshot(str(path))

    def test_arrays_saved_as_base64_records(self, tmp_path):
        config, phys, grid, state = self.make_state()
        path = tmp_path / "snap.json"
        save_snapshot(str(path), state, config)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 3
        for name, a in zip(ARRAY_FIELDS, _state_arrays(state)):
            assert set(doc[name]) == {"dtype", "shape", "base64"}
            assert doc[name]["dtype"] == "<f8" and doc[name]["shape"] == list(a.shape)
        scalars = {"t": state.t, "step": state.step, "interface_length": state.interface.length,
                   "speed_ref": state.speed_ref, "c_v": state.c_v, "c_u": state.c_u}
        assert {name: doc[name] for name in scalars} == scalars
        back = load_snapshot(str(path))
        for a in _state_arrays(back):
            assert a.dtype == np.float64 and a.flags.writeable and a.flags.c_contiguous

    def test_format_2_lists_load_bitwise(self, tmp_path):
        config, phys, grid, state = self.make_state()
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(_list_document(state, config, 2)))
        back = load_snapshot(str(path))
        for a, b in zip(_state_arrays(state), _state_arrays(back)):
            assert np.array_equal(a, b)
        assert (back.t, back.step, back.speed_ref, back.c_v, back.c_u) \
            == (state.t, state.step, state.speed_ref, state.c_v, state.c_u)

    def test_format_1_still_loads(self, tmp_path):
        # format 1 has no rescaling coefficients; the next SSD step recomputes them
        config, phys, grid, state = self.make_state()
        assert state.c_v is not None and state.c_u is not None
        path = tmp_path / "v1.json"
        doc = _list_document(state, config, 1)
        del doc["c_v"], doc["c_u"]
        path.write_text(json.dumps(doc))
        back = load_snapshot(str(path))
        assert back.c_v is None and back.c_u is None
        assert np.array_equal(back.interface.s_alpha, state.interface.s_alpha)
        assert back.t == state.t and back.step == state.step

    @pytest.mark.parametrize("field, damage", [
        ("s_alpha", lambda r: {**r, "base64": r["base64"][:-1]}),       # bad padding
        ("phi", lambda r: {**r, "base64": r["base64"][:-4]}),           # whole bytes short
        ("u", lambda r: {**r, "shape": [r["shape"][0], r["shape"][1] + 1]}),
        ("ref_points", lambda r: {**r, "shape": [-1]}),
        ("v", lambda r: {**r, "dtype": "<f4"}),
    ])
    def test_damaged_array_names_field(self, tmp_path, field, damage):
        config, phys, grid, state = self.make_state()
        path = tmp_path / "snap.json"
        save_snapshot(str(path), state, config)
        doc = json.loads(path.read_text())
        doc[field] = damage(doc[field])
        path.write_text(json.dumps(doc))
        with pytest.raises(ParameterError, match=f"snapshot field {field}:"):
            load_snapshot(str(path))

    def test_failed_write_keeps_earlier_snapshot(self, tmp_path, monkeypatch):
        config, phys, grid, state = self.make_state()
        path = tmp_path / "snap.json"
        save_snapshot(str(path), state, config)
        before = path.read_bytes()

        def broken_dump(doc, fh):
            fh.write('{"format_version": 3, "t": ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", broken_dump)
        later = schemes.step(state, phys, grid, config.scheme_config())
        with pytest.raises(OSError, match="disk full"):
            save_snapshot(str(path), later, config)
        assert os.listdir(tmp_path) == ["snap.json"]
        assert path.read_bytes() == before
        back = load_snapshot(str(path))
        for a, b in zip(_state_arrays(state), _state_arrays(back)):
            assert np.array_equal(a, b)


ARRAY_FIELDS = ("s_alpha", "phi", "ref_points", "u", "v")


def _list_document(state, config, version):
    """A snapshot document as formats 1 and 2 wrote it: arrays as JSON lists."""
    doc = {"format_version": version, "t": state.t, "step": state.step,
           "interface_length": state.interface.length, "speed_ref": state.speed_ref,
           "c_v": state.c_v, "c_u": state.c_u, "config": asdict(config)}
    doc.update(zip(ARRAY_FIELDS, (a.tolist() for a in _state_arrays(state))))
    return doc


def _restart_run(scheme):
    steady = scheme in schemes.STEADY_SCHEMES
    dt = {"explicit_steady": 0.01, "stable_steady": 1.0, "explicit_unsteady": 0.005}.get(
        scheme, 0.1 if steady else 0.05)
    return RunConfig(scheme=scheme, n=32, dt=dt, mu=1.0 if steady else 0.01)


def _state_arrays(state):
    fluid = () if state.fluid is None else (state.fluid.u, state.fluid.v)
    return (state.interface.s_alpha, state.interface.phi, state.interface.ref_points) + fluid


@pytest.mark.parametrize("scheme", schemes.ALL_SCHEMES)
def test_restart_follows_straight_run(scheme, tmp_path):
    # k steps, snapshot, m more steps with a fresh SchemeConfig must retrace
    # the run that never stopped
    k, m = 3, 5
    config = _restart_run(scheme)
    phys, grid, cfg = config.phys(), config.grid(), config.scheme_config()
    path = tmp_path / "restart.json"
    straight = config.initial_state()
    for step in range(1, k + m + 1):
        straight = schemes.step(straight, phys, grid, cfg)
        if step == k:
            save_snapshot(str(path), straight, config)
    resumed = load_snapshot(str(path))
    fresh = config.scheme_config()
    for _ in range(m):
        resumed = schemes.step(resumed, phys, grid, fresh)
    assert resumed.step == straight.step
    for a, b in zip(_state_arrays(straight), _state_arrays(resumed)):
        assert np.array_equal(a, b)


class TestCli:
    def run_cli(self, *argv):
        return cli.main(list(argv))

    def test_usage_error_code(self):
        assert self.run_cli("run", "--no-such-flag") == 64
        assert self.run_cli("nonsense") == 64

    def test_unknown_preset(self):
        assert self.run_cli("run", "--preset", "nope", "--out", "/tmp/ibs-none") == 64

    def test_presets_listing(self, capsys):
        assert self.run_cli("presets") == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_zero_duration_run(self, tmp_path):
        code = self.run_cli("run", "--set", "scheme=explicit_steady", "--set", "n=32",
                            "--set", "dt=0.1", "--set", "t_end=0",
                            "--set", "label=zero", "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "zero.csv").read_text().splitlines()
        assert lines[0].startswith("step,t,K,P,E,area")
        assert len(lines) == 2  # header + initial row only

    @pytest.mark.parametrize("key, value", [("dt", "nan"), ("t_end", "inf"), ("mu", "nan"),
                                            ("rescale", "false"), ("tol", "1e-8"),
                                            ("steady_velocity", "integral"),
                                            ("output_dir", "elsewhere"),
                                            ("snapshot_every", "-1"),
                                            ("snapshot_every", "2.5"),
                                            ("snapshot_every", "true"),
                                            ("mu", "abc"), ("mu", "yes"), ("dt", "on"),
                                            ("center_x", "left"), ("n", "64.5")])
    def test_bad_value_or_removed_key_is_usage_error(self, key, value, tmp_path, capsys):
        # non-finite, bool and non-numeric values are refused before the run
        # starts, and the removed options are unknown keys; either way the
        # message names the key
        code = self.run_cli("run", "--set", "scheme=ssd1_unsteady", "--set", "n=32",
                            "--set", f"{key}={value}", "--out", str(tmp_path))
        assert code == 64
        assert key in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("label", ["yes", "007"])
    def test_label_is_kept_as_text(self, label, tmp_path):
        # a string field takes its value as written, never as a bool or a number
        code = self.run_cli("run", "--set", "scheme=explicit_steady", "--set", "n=16",
                            "--set", "dt=0.1", "--set", "t_end=0",
                            "--set", f"label={label}", "--out", str(tmp_path))
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{label}-final.json",
                                                               f"{label}.csv"]

    @pytest.mark.parametrize("argv, named", [
        (("convergence", "--dts", "1/0"), "--dts"),
        (("convergence", "--dts", "abc"), "--dts"),
        (("convergence", "--dts", "1/4,1/6"), "halve"),
        (("sweep", "--n-list", "16,x"), "--n-list"),
        (("sweep", "--n-list", "16", "--dt-list", "1/8,x"), "--dt-list"),
        (("cost", "--schemes", "ssd1_unsteady", "--n-list", "16", "--steps", "0"), "--steps"),
    ], ids=["dts-zero-denominator", "dts-not-a-number", "dts-not-halving", "n-list-not-an-int",
            "dt-list-not-a-number", "steps-zero"])
    def test_malformed_list_is_usage_error(self, argv, named, tmp_path, capsys):
        # refused before any run, with a message that names the flag
        assert self.run_cli(*argv, "--out", str(tmp_path)) == 64
        assert named in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_instability_exit_code(self, tmp_path):
        code = self.run_cli("run", "--set", "scheme=explicit_steady", "--set", "n=64",
                            "--set", "dt=1.0", "--set", "t_end=50",
                            "--set", "label=boom", "--out", str(tmp_path))
        assert code == 2
        rows = (tmp_path / "boom.csv").read_text().splitlines()
        assert rows[-1].endswith(",0")  # final record flagged unstable

    def test_run_reproducible_csv_bytes(self, tmp_path):
        args = ["run", "--set", "scheme=ssd1_unsteady", "--set", "n=32",
                "--set", "dt=0.25", "--set", "t_end=1", "--set", "label=rep"]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert self.run_cli(*args, "--out", str(a_dir)) == 0
        assert self.run_cli(*args, "--out", str(b_dir)) == 0
        assert (a_dir / "rep.csv").read_bytes() == (b_dir / "rep.csv").read_bytes()

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "env-out"
        monkeypatch.setenv("IBSTOKES_OUTDIR", str(target))
        code = self.run_cli("run", "--set", "scheme=explicit_steady", "--set", "n=32",
                            "--set", "dt=0.1", "--set", "t_end=0.1", "--set", "mu=1.0",
                            "--set", "label=envrun")
        assert code == 0
        assert (target / "envrun.csv").exists()

    def test_sweep_empty_dt_grid(self, tmp_path):
        code = self.run_cli("sweep", "--n-list", "32", "--dt-list", "",
                            "--set", "scheme=explicit_steady",
                            "--out", str(tmp_path))
        assert code == 0
        content = (tmp_path / "sweep-explicit_steady.csv").read_text().splitlines()
        assert content[0] == "dt\\N,32"
        assert content[-1] == "largest_stable,none"

    def test_sweep_matrix(self, tmp_path):
        code = self.run_cli("sweep", "--n-list", "32,64", "--dt-list", "1/16,1",
                            "--set", "scheme=explicit_steady", "--set", "t_end=2",
                            "--out", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "sweep-explicit_steady.csv").read_text().splitlines()
        assert rows[0] == "dt\\N,32,64"
        assert rows[-1].startswith("largest_stable,")

    def test_convergence_command(self, tmp_path):
        code = self.run_cli("convergence", "--dts", "1/4,1/8",
                            "--set", "scheme=ssd1_unsteady", "--set", "n=32",
                            "--set", "t_end=0.5", "--set", "label=conv",
                            "--out", str(tmp_path))
        assert code == 0
        summary = json.loads((tmp_path / "convergence-conv.json").read_text())
        assert "X" in summary and "u" in summary
        assert len(summary["X"]["errors"]) == 2

    def test_solver_stall_writes_failure_row(self, tmp_path, monkeypatch):
        real_step = schemes.step

        def stalling_step(state, phys, grid, cfg):
            if state.step == 1:
                raise SolverStallError("stalled on purpose")
            return real_step(state, phys, grid, cfg)

        monkeypatch.setattr(schemes, "step", stalling_step)
        code = self.run_cli("run", "--set", "scheme=ssd1_unsteady", "--set", "n=32",
                            "--set", "dt=0.1", "--set", "t_end=1",
                            "--set", "label=stall", "--out", str(tmp_path))
        assert code == 3
        rows = (tmp_path / "stall.csv").read_text().splitlines()
        assert len(rows) == 4  # header, initial state, step 1, failure row
        assert rows[-1].startswith("2,nan,") and rows[-1].endswith(",0")
        assert not (tmp_path / "stall-final.json").exists()

    def test_cost_command(self, tmp_path):
        code = self.run_cli("cost", "--schemes", "ssd1_unsteady", "--n-list", "32,64",
                            "--steps", "2", "--out", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "cost.csv").read_text().splitlines()
        assert rows[0].startswith("scheme,n,seconds_per_step")
        assert len(rows) >= 4  # two sizes + exponent row


# solves per step: (fluid solves per boundary node, other fluid solves, dense
# solves).  The stable schemes solve once per column of the mobility M
# (2 per node), plus the right-hand sides, the Step-1 velocity and, in
# unsteady flow, the unforced velocity.
SOLVES_PER_STEP = {
    "explicit_steady": (0, 1, 0), "ssd1_steady": (0, 2, 0), "ssd2_steady": (0, 1, 2),
    "ifrk4_steady": (0, 4, 0), "stable_steady": (2, 3, 2),
    "explicit_unsteady": (0, 1, 0), "ssd1_unsteady": (0, 2, 0), "ssd2_unsteady": (0, 2, 2),
    "stable_unsteady": (2, 4, 2), "second_order_unsteady": (0, 4, 0),
}


@pytest.mark.parametrize("scheme", schemes.ALL_SCHEMES)
def test_stable_scheme_fluid_solves_per_step(scheme):
    # counted over the second step, after the first has fixed C_V and C_U
    from ibstokes import stokes
    steady = scheme in schemes.STEADY_SCHEMES
    config = RunConfig(scheme=scheme, n=32, dt=0.1 if steady else 0.01,
                       mu=1.0 if steady else 0.01)
    phys, grid, cfg = config.phys(), config.grid(), config.scheme_config()
    state = schemes.step(config.initial_state(), phys, grid, cfg)
    stokes.reset_counters()
    schemes.step(state, phys, grid, cfg)
    per_node, other, dense = SOLVES_PER_STEP[scheme]
    assert stokes.counters["fluid_solves"] == per_node * grid.n_boundary + other
    assert stokes.counters["dense_solves"] == dense


@pytest.mark.parametrize("scheme", schemes.ALL_SCHEMES)
def test_fft_counter_matches_numpy_calls(scheme, monkeypatch):
    # every numpy.fft transform the step makes adds exactly one to the counter
    from ibstokes import spectral
    steady = scheme in schemes.STEADY_SCHEMES
    config = RunConfig(scheme=scheme, n=16, dt=0.1 if steady else 0.01,
                       mu=1.0 if steady else 0.01)
    phys, grid, cfg = config.phys(), config.grid(), config.scheme_config()
    state = config.initial_state()
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2"):
        def counted(*args, _fn=getattr(np.fft, name), **kwargs):
            calls.append(1)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    before = spectral.counters["fft"]
    schemes.step(state, phys, grid, cfg)
    assert len(calls) > 0
    assert spectral.counters["fft"] - before == len(calls)


@pytest.mark.parametrize("scheme", ["stable_steady", "stable_unsteady"])
def test_stable_krylov_matches_dense(scheme, monkeypatch):
    # N_b = 32 > DENSE_MAX = 16 sends both implicit systems through GMRES
    steady = scheme == "stable_steady"
    config = RunConfig(scheme=scheme, n=16, n_boundary=32, dt=1.0 if steady else 0.05,
                       mu=1.0 if steady else 0.01)
    phys, grid, cfg = config.phys(), config.grid(), config.scheme_config()
    dense = schemes.step(config.initial_state(), phys, grid, cfg)
    monkeypatch.setattr(schemes, "DENSE_MAX", 16)
    krylov = schemes.step(config.initial_state(), phys, grid, cfg)
    for a, b in zip(_state_arrays(dense), _state_arrays(krylov)):
        assert np.max(np.abs(a - b)) <= 1e-8 * np.max(np.abs(a))
