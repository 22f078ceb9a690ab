import base64
import copy
import importlib
import json
import os
import pkgutil
import warnings

import numpy as np
import pytest

import ibstokes
from ibstokes import cli, diagnostics, schemes, stokes
from ibstokes.errors import BlowupError, IBStokesError, ParameterError, SolverStallError
from ibstokes.grids import GridSpec
from ibstokes.io import (RunConfig, load_run_config, load_snapshot,
                         parse_config_text, save_snapshot)
from ibstokes.params import PhysParams
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

    def test_steps_make_t_end(self):
        # t_end / dt off a whole number by round-off takes that number; off
        # by more it is refused, never rounded to another end time
        assert RunConfig(dt=0.1, t_end=0.3).n_steps() == 3
        assert RunConfig(dt=0.1, t_end=0).n_steps() == 0
        for t_end in (0.25, 0.04):
            with pytest.raises(ParameterError, match="t_end"):
                RunConfig(dt=0.1, t_end=t_end).n_steps()


@pytest.mark.parametrize("scheme", schemes.ALL_SCHEMES)
def test_grid_without_interface_length_steps_like_run_config(scheme):
    # the spread weight is the interface's own spacing L_b / N_b, so a grid
    # built from N alone steps exactly as the configured run does
    steady = scheme in schemes.STEADY_SCHEMES
    config = RunConfig(scheme=scheme, n=32, dt=0.01, mu=1.0 if steady else 0.01)
    phys = PhysParams(rho=1.0, mu=config.mu, elastic=1.0, interface_length=2 * np.pi * 0.2)
    grid = GridSpec.make(32)
    cfg = config.scheme_config()
    got = schemes.step(schemes.initial_state(phys, grid), phys, grid, cfg)
    want = schemes.step(config.initial_state(), config.phys(), config.grid(), cfg)
    for a, b in zip(_state_arrays(got), _state_arrays(want)):
        assert np.array_equal(a, b)


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
        assert np.array_equal(back.fluid.v, state.fluid.v)
        for a, b in zip(back.fluid.spectrum, state.fluid.spectrum):
            assert np.array_equal(a, b) and not a.flags.writeable
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
        assert np.array_equal(direct.interface.curve.x, resumed.interface.curve.x)

    def test_format_version_checked(self, tmp_path):
        # format 4 is the only one that loads: the earlier formats are refused
        config, phys, grid, state = self.make_state()
        path = tmp_path / "snap.json"
        save_snapshot(str(path), state, config)
        doc = json.loads(path.read_text())
        for version in (1, 2, 3, 999):
            path.write_text(json.dumps({**doc, "format_version": version}))
            with pytest.raises(ParameterError, match=f"unsupported snapshot format {version}$"):
                load_snapshot(str(path))

    def test_arrays_saved_as_base64_records(self, tmp_path):
        config, phys, grid, state = self.make_state()
        path = tmp_path / "snap.json"
        save_snapshot(str(path), state, config)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 4
        assert "u" not in doc and "v" not in doc
        half = [32, 32 // 2 + 1, 2]     # the fluid's rfft2 half spectrum, (re, im) pairs
        shapes = [list(a.shape) for a in _state_arrays(state)[:3]] + [half, half]
        for name, shape in zip(SPECTRUM_FIELDS, shapes):
            assert set(doc[name]) == {"dtype", "shape", "base64"}
            assert doc[name]["dtype"] == "<f8" and doc[name]["shape"] == shape
        scalars = {"t": state.t, "step": state.step, "interface_length": state.interface.length,
                   "speed_ref": state.speed_ref, "c_v": state.c_v, "c_u": state.c_u}
        assert {name: doc[name] for name in scalars} == scalars
        back = load_snapshot(str(path))
        for a in _state_arrays(back):
            assert a.dtype == np.float64 and a.flags.writeable and a.flags.c_contiguous

    @pytest.mark.parametrize("field, damage", [
        ("s_alpha", lambda r: {**r, "base64": r["base64"][:-1]}),       # bad padding
        ("phi", lambda r: {**r, "base64": r["base64"][:-4]}),           # whole bytes short
        ("ref_points", lambda r: {**r, "shape": [-1]}),
        pytest.param("u_hat", lambda r: {**r, "base64": r["base64"][:-4]}, id="u_hat-short"),
        pytest.param("v_hat", lambda r: {**r, "dtype": "<f4"}, id="v_hat-f4"),
        # well-formed records whose shapes disagree with the other fields
        pytest.param("phi", lambda r: _first_values(r, r["shape"][0] - 2), id="phi-short"),
        pytest.param("ref_points", lambda r: _first_values(r, 3), id="ref_points-three"),
        # not the (N, N/2 + 1, 2) half spectrum of an even N
        pytest.param("u_hat", lambda r: {**r, "shape": [r["shape"][1], r["shape"][0], 2]},
                     id="u_hat-odd-n"),
        pytest.param("u_hat", lambda r: {**r, "shape": [r["shape"][0], r["shape"][1] * 2]},
                     id="u_hat-no-pairs"),
        pytest.param("v_hat", lambda r: {**r, "shape": [r["shape"][0] // 2, r["shape"][1] * 2, 2]},
                     id="v_hat-not-shaped-as-u_hat"),
        # well-formed records that hold a non-finite value
        *(pytest.param(name, lambda r, value=value: _with_value(r, 3, value), id=f"{name}-{value}")
          for name, value in [("s_alpha", np.nan), ("phi", np.nan), ("ref_points", np.nan),
                              ("u_hat", np.nan), ("v_hat", np.nan), ("s_alpha", np.inf),
                              ("u_hat", -np.inf)]),
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

    @pytest.mark.parametrize("field", ["t", "step", "interface_length", "phi", "u_hat",
                                       "v_hat", "speed_ref", "c_u"],
                             ids=lambda field: f"4-{field}")      # format 4's fields
    def test_missing_field_names_field(self, tmp_path, field):
        config, phys, grid, state = self.make_state()
        path = tmp_path / "snap.json"
        save_snapshot(str(path), state, config)
        doc = json.loads(path.read_text())
        del doc[field]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParameterError, match=f"snapshot field {field}: missing"):
            load_snapshot(str(path))

    @pytest.mark.parametrize("field, value", [("step", "7"), ("t", None), ("c_v", "x"),
                                              ("speed_ref", 0.0), ("interface_length", -1.0),
                                              ("step", 2.5)])
    def test_malformed_scalar_names_field(self, tmp_path, field, value):
        config, phys, grid, state = self.make_state()
        path = tmp_path / "snap.json"
        save_snapshot(str(path), state, config)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, field: value}))
        with pytest.raises(ParameterError, match=f"snapshot field {field}: must be"):
            load_snapshot(str(path))

    @pytest.mark.parametrize("content", [b'{"format_version": 4, "t": ', b"[4, 0.5]",
                                         b"\xff\xfe not text"],
                             ids=["truncated", "array", "not-utf8"])
    def test_not_a_json_object_names_path(self, tmp_path, content):
        path = tmp_path / "snap.json"
        path.write_bytes(content)
        with pytest.raises(ParameterError, match=f"snapshot {path}: not a JSON"):
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


SPECTRUM_FIELDS = ("s_alpha", "phi", "ref_points", "u_hat", "v_hat")


def _with_value(record, index, value):
    """``record`` with its ``index``-th value replaced by ``value``."""
    a = np.frombuffer(base64.b64decode(record["base64"]), dtype="<f8").copy()
    a[index] = value
    return {**record, "base64": base64.b64encode(a.tobytes()).decode("ascii")}


def _first_values(record, count):
    """A well-formed record of the first ``count`` values of ``record``."""
    raw = base64.b64decode(record["base64"])[:8 * count]
    return {"dtype": "<f8", "shape": [count], "base64": base64.b64encode(raw).decode("ascii")}


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


@pytest.mark.parametrize("scheme", schemes.ALL_SCHEMES)
def test_start_state_restarts_bitwise(scheme, tmp_path):
    # the start state's curve, as every state's, is formed from its interface
    # alone: reloaded, it records and steps as the state that was saved
    config = _restart_run(scheme)
    phys, grid, cfg = config.phys(), config.grid(), config.scheme_config()
    start = config.initial_state()
    path = tmp_path / "start.json"
    save_snapshot(str(path), start, config)
    back = load_snapshot(str(path))
    record = diagnostics.record_state
    assert record(back, phys, grid) == record(start, phys, grid)
    for a, b in zip(schemes.simulate(start, phys, grid, cfg, 3),
                    schemes.simulate(back, phys, grid, cfg, 3)):
        for x, y in zip(_state_arrays(a) + (a.interface.curve.as_array(),),
                        _state_arrays(b) + (b.interface.curve.as_array(),)):
            assert np.array_equal(x, y)


def test_step_snapshots_reload_the_straight_run(tmp_path):
    # snapshot_every = 2 over 4 steps writes steps 2 and 4 beside the final
    # snapshot, each the state of the run at that step, bit for bit
    code = cli.main(["run", "--set", "scheme=ssd1_unsteady", "--set", "n=16",
                     "--set", "dt=0.1", "--set", "t_end=0.4", "--set", "snapshot_every=2",
                     "--set", "label=snap", "--out", str(tmp_path)])
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "snap-final.json", "snap-step2.json", "snap-step4.json", "snap.csv"]
    config = RunConfig(scheme="ssd1_unsteady", n=16, dt=0.1, t_end=0.4)
    phys, grid, cfg = config.phys(), config.grid(), config.scheme_config()
    straight = {}
    for state in schemes.simulate(config.initial_state(), phys, grid, cfg, 4):
        straight[state.step] = state
    for name, step in (("step2", 2), ("step4", 4), ("final", 4)):
        back = load_snapshot(str(tmp_path / f"snap-{name}.json"))
        assert (back.t, back.step, back.speed_ref, back.c_v, back.c_u) == (
            straight[step].t, step, straight[step].speed_ref, straight[step].c_v,
            straight[step].c_u)
        for a, b in zip(_state_arrays(straight[step]), _state_arrays(back)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("scheme, dt", [("ssd1_unsteady", 0.1), ("stable_steady", 1.0)])
def test_reloaded_snapshot_gives_the_run_record(scheme, dt, tmp_path):
    # the record of a reloaded state equals the run's, drift and C_V / C_U
    # included: a scheme without coefficients records None, never NaN
    config = RunConfig(scheme=scheme, n=16, dt=dt, t_end=2 * dt, snapshot_every=1,
                       label="rec")
    code, records = cli.execute_run(config, str(tmp_path))
    assert code == 0
    phys, grid = config.phys(), config.grid()
    for name, step in (("step1", 1), ("step2", 2), ("final", 2)):
        back = diagnostics.record_state(load_snapshot(str(tmp_path / f"rec-{name}.json")),
                                        phys, grid)
        assert back == records[step]
    assert records[2].anchor_drift > 0


# each error class of the package, with the exit code and the message prefix
# that cli.main gives it
EXIT_OF = {ParameterError: (64, "usage error: "), BlowupError: (2, "instability: "),
           SolverStallError: (3, "solver failure: ")}


def test_every_error_class_has_its_exit_code(monkeypatch, capsys):
    for cls in IBStokesError.__subclasses__():
        code, prefix = EXIT_OF[cls]
        exc = cls(1, "raised on purpose") if cls is BlowupError else cls("raised on purpose")

        def raising(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_presets", raising)
        assert cli.main(["presets"]) == code
        assert capsys.readouterr().err == prefix + "raised on purpose\n"
    assert set(IBStokesError.__subclasses__()) == set(EXIT_OF)


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
                                            ("center_x", "left"), ("n", "64.5"),
                                            ("label", "a/b")])
    def test_bad_value_or_removed_key_is_usage_error(self, key, value, tmp_path, capsys):
        # non-finite, bool and non-numeric values are refused before the run
        # starts, and the removed options are unknown keys; either way the
        # message names the key
        code = self.run_cli("run", "--set", "scheme=ssd1_unsteady", "--set", "n=32",
                            "--set", f"{key}={value}", "--out", str(tmp_path))
        assert code == 64
        assert key in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_input_refused_past_the_config_checks_is_usage_error(self, tmp_path, capsys):
        # the axis passes RunConfig's > 0 check; the ellipse refuses it
        code = self.run_cli("run", "--set", "scheme=ssd1_unsteady", "--set", "n=16",
                            "--set", "ellipse_a=1e-13", "--out", str(tmp_path))
        assert code == 64
        assert capsys.readouterr().err == "usage error: degenerate ellipse axes a=1e-13, b=0.24\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ("run", "--set", "ellipse_a=1e-13"),
        ("run", "--preset", "unsteady-fig5", "--set", "ellipse_b=1e-13"),
        ("sweep", "--n-list", "16,15", "--dt-list", "0.1"),
        ("sweep", "--n-list", "16", "--dt-list", "0.1", "--set", "ellipse_a=1e-13"),
        ("cost", "--schemes", "ssd1_unsteady", "--n-list", "16", "--set", "ellipse_a=1e-13"),
        ("run", "--set", "n=16", "--set", "t_end=0", "--set", "label=a/b"),
        ("run", "--set", "n=16", "--set", "t_end=0", "--set", "label=/ibstokes-no-such-dir/run"),
        # the dt = 0.1 run would stop at t = 0.2
        ("convergence", "--dts", "0.1,0.05", "--set", "scheme=ssd1_steady", "--set", "n=16",
         "--set", "mu=1", "--set", "t_end=0.25"),
        ("convergence", "--dts", "0.1,0.05", "--set", "scheme=ssd1_steady", "--set", "n=16",
         "--set", "mu=1", "--set", "t_end=0"),
        # the run would stop at t = 0.2, the dt = 0.002 preset runs at t = 0
        ("run", "--set", "scheme=ssd1_steady", "--set", "n=16", "--set", "mu=1",
         "--set", "dt=0.1", "--set", "t_end=0.25"),
        ("run", "--preset", "stab-fig8", "--set", "t_end=0.001"),
        ("sweep", "--n-list", "16", "--dt-list", "0.05,0.1", "--set", "scheme=ssd1_steady",
         "--set", "mu=1", "--set", "t_end=0.25"),
        ("convergence", "--dts", "0,0", "--set", "n=16"),
    ], ids=["run-axes", "preset-axes", "sweep-odd-n", "sweep-axes", "cost-axes",
            "label-subdirectory", "label-absolute", "convergence-part-step", "convergence-no-step",
            "run-part-step", "preset-part-step", "sweep-part-step", "convergence-zero-dt"])
    def test_refused_input_makes_no_output_directory(self, argv, tmp_path):
        out = tmp_path / "out"
        assert self.run_cli(*argv, "--out", str(out)) == 64
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_file_is_usage_error(self, kind, tmp_path, capsys):
        path, out = tmp_path / "run.cfg", tmp_path / "out"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"n = 16\n\xff\n")
        assert self.run_cli("run", "--config", str(path), "--out", str(out)) == 64
        assert capsys.readouterr().err.startswith(f"usage error: config file {path}: ")
        assert not out.exists()

    def test_sweep_needs_a_dt_list(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run_cli("sweep", "--n-list", "16", "--out", str(out)) == 64
        assert "--dt-list" in capsys.readouterr().err
        assert not out.exists()

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
        (("convergence", "--dts", ""), "two timesteps"),
        (("convergence", "--dts", "1/4"), "two timesteps"),
        (("sweep", "--n-list", "16,x"), "--n-list"),
        (("sweep", "--n-list", "16", "--dt-list", "1/8,x"), "--dt-list"),
        (("cost", "--schemes", "ssd1_unsteady", "--n-list", "16", "--steps", "0"), "--steps"),
        # a preset names every value of its runs: a config file beside it is
        # refused, not ignored
        (("run", "--preset", "stab-fig8", "--config", "f.cfg", "--set", "t_end=0"),
         "--config"),
    ], ids=["dts-zero-denominator", "dts-not-a-number", "dts-not-halving", "dts-empty",
            "dts-single", "n-list-not-an-int",
            "dt-list-not-a-number", "steps-zero", "preset-with-config"])
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

    @pytest.mark.parametrize("scheme, settings", [
        ("stable_steady", ("dt=1", "mu=1")),
        # a circle start: C_U's leading term vanishes and C_U falls back to 1
        ("ssd1_unsteady", ("dt=0.1", "ellipse_a=0.25", "ellipse_b=0.25")),
    ], ids=["stable_steady", "ssd1_unsteady-circle"])
    def test_run_records_drift_and_coefficients_without_warnings(self, scheme, settings,
                                                                 tmp_path):
        argv = [a for item in settings for a in ("--set", item)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.run_cli("run", "--set", f"scheme={scheme}", "--set", "n=16",
                                "--set", "t_end=3", *argv, "--set", "label=rec",
                                "--out", str(tmp_path)) == 0
        header, *rows = [line.split(",") for line in
                         (tmp_path / "rec.csv").read_text().splitlines()]
        assert header[9:12] == ["anchor_drift", "c_v", "c_u"]
        assert all(len(row) == len(header) for row in rows)
        assert float(rows[0][9]) <= 1e-14 and rows[0][10:12] == ["", ""]
        coefficients = {tuple(row[10:12]) for row in rows[1:]}
        assert coefficients == ({("", "")} if scheme == "stable_steady"
                                else {(rows[1][10], "1")})

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

    @pytest.mark.parametrize("patch, scheme, code, failed_step, message", [
        ({"DENSE_MAX": 0, "LINEAR_TOL": 1e-300}, "stable_steady", 3, 1,
         "solver failure: GMRES stalled at relative residual "),
        ({"LINEAR_TOL": 1e-300}, "stable_steady", 3, 1,
         "solver failure: dense solve residual "),
        ({"BLOWUP_FACTOR": 1e-6}, "ssd1_unsteady", 2, 2,
         "instability: velocity grew 1e-06x at step 2"),
    ], ids=["gmres-stall", "dense-residual", "velocity-growth"])
    def test_solver_failure_ends_run(self, patch, scheme, code, failed_step, message,
                                     tmp_path, monkeypatch, capsys):
        # the solvers' and the blowup guard's own checks, reached by tightening
        # their limits: the run says why it ended and ends with the documented
        # code, a NaN row flagged unstable and no final snapshot
        for name, value in patch.items():
            monkeypatch.setattr(schemes, name, value)
        settings = {"scheme": scheme, "n": 16, "dt": 0.1, "t_end": 0.4, "mu": 1.0,
                    "label": "fail"}
        argv = [a for key, value in settings.items() for a in ("--set", f"{key}={value}")]
        assert self.run_cli("run", *argv, "--out", str(tmp_path)) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"fail: {message}")
        rows = (tmp_path / "fail.csv").read_text().splitlines()
        assert len(rows) == failed_step + 2
        assert rows[-1].startswith(f"{failed_step},nan,") and rows[-1].endswith(",0")
        assert not (tmp_path / "fail-final.json").exists()

    def test_convergence_blowup_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # explicit_steady at dt = 2 blows up in the study's first run
        out = tmp_path / "out"
        code = self.run_cli("convergence", "--dts", "2,1", "--set", "scheme=explicit_steady",
                            "--set", "n=32", "--set", "mu=1", "--set", "t_end=16",
                            "--out", str(out))
        assert code == 2
        assert "a run blew up" in capsys.readouterr().err
        assert not out.exists()

    def test_cost_command(self, tmp_path):
        code = self.run_cli("cost", "--schemes", "ssd1_unsteady", "--n-list", "32,64",
                            "--steps", "2", "--out", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "cost.csv").read_text().splitlines()
        assert rows[0].startswith("scheme,n,seconds_per_step")
        assert len(rows) >= 4  # two sizes + exponent row

    def test_cost_restores_what_it_counts_after_a_blowup(self, tmp_path, capsys):
        wrapped = [(np.fft, "fft"), (np.fft, "ifft"), (np.fft, "rfft2"), (np.fft, "irfft2"),
                   (stokes, "_spectral_solve"), (schemes, "_dense_solve")]
        originals = [getattr(owner, name) for owner, name in wrapped]
        # explicit_steady at dt = 2 blows up at step 4: the warm-up step is
        # step 1, so the blowup comes inside the counted steps; ssd1_steady,
        # measured first, holds
        code = self.run_cli("cost", "--schemes", "ssd1_steady,explicit_steady", "--n-list", "32",
                            "--steps", "3", "--set", "mu=1", "--set", "dt=2",
                            "--out", str(tmp_path))
        assert code == 2
        assert "at step 4" in capsys.readouterr().err
        for (owner, name), original in zip(wrapped, originals):
            assert getattr(owner, name) is original, name
        # the row measured before the blowup is kept
        rows = (tmp_path / "cost.csv").read_text().splitlines()
        assert rows[0].startswith("scheme,n,seconds_per_step")
        assert [row.split(",")[:2] for row in rows[1:]] == [["ssd1_steady", "32"]]

    def test_cost_fits_no_exponent_to_one_size(self, tmp_path):
        # the same N twice gives no slope: no RankWarning, no exponent row
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.RankWarning)
            code = self.run_cli("cost", "--schemes", "ssd1_unsteady", "--n-list", "16,16",
                                "--steps", "1", "--out", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "cost.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in rows[1:]] == [["ssd1_unsteady", "16"]] * 2

    def test_preset_n_override_takes_default_n_boundary(self, tmp_path):
        # --set n=… gives N_b = 2N, unless the same command sets n_boundary
        for extra, nb in (((), 64), (("--set", "n_boundary=48"), 48)):
            out = tmp_path / str(nb)
            code = self.run_cli("run", "--preset", "unsteady-fig5", "--set", "n=32",
                                "--set", "t_end=0", *extra, "--out", str(out))
            assert code == 0
            for config in PRESETS["unsteady-fig5"]:
                state = load_snapshot(str(out / f"{config.run_name()}-final.json"))
                assert state.interface.n_nodes == nb


# solves per step: (fluid solves per boundary node, other fluid solves, dense
# solves).  The stable schemes solve once per column of the mobility M
# (2 per node), plus the right-hand sides, the Step-1 velocity and, in
# unsteady flow, the unforced velocity.
SOLVES_PER_STEP = {
    "explicit_steady": (0, 1, 0), "ssd1_steady": (0, 2, 0), "ssd2_steady": (0, 1, 0),
    "ifrk4_steady": (0, 4, 0), "stable_steady": (2, 3, 2),
    "explicit_unsteady": (0, 1, 0), "ssd1_unsteady": (0, 2, 0), "ssd2_unsteady": (0, 2, 0),
    "stable_unsteady": (2, 4, 2), "second_order_unsteady": (0, 4, 0),
}


@pytest.mark.parametrize("scheme", schemes.ALL_SCHEMES)
def test_stable_scheme_fluid_solves_per_step(scheme):
    # counted over the second step, after the first has fixed C_V and C_U
    steady = scheme in schemes.STEADY_SCHEMES
    config = RunConfig(scheme=scheme, n=32, dt=0.1 if steady else 0.01,
                       mu=1.0 if steady else 0.01)
    phys, grid, cfg = config.phys(), config.grid(), config.scheme_config()
    state = schemes.step(config.initial_state(), phys, grid, cfg)
    with cli._counted_calls() as counts:
        schemes.step(state, phys, grid, cfg)
    per_node, other, dense = SOLVES_PER_STEP[scheme]
    assert counts["fluid_solves"] == per_node * grid.n_boundary + other
    assert counts["dense_solves"] == dense


@pytest.mark.parametrize("scheme", schemes.ALL_SCHEMES)
def test_fft_counter_matches_numpy_calls(scheme, monkeypatch):
    # every numpy.fft transform the step makes, of any family, is one that
    # ``cost`` counts
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
    with cli._counted_calls() as counts:
        schemes.step(state, phys, grid, cfg)
    assert len(calls) > 0
    assert counts["fft"] == len(calls)


def _module_containers():
    """Deep copies of the module-level dicts, lists and sets of every
    ibstokes module."""
    found = {}
    for info in pkgutil.iter_modules(ibstokes.__path__):
        module = importlib.import_module(f"ibstokes.{info.name}")
        for name, value in vars(module).items():
            if not name.startswith("__") and isinstance(value, (dict, list, set)):
                found[f"{info.name}.{name}"] = copy.deepcopy(value)
    return found


def test_a_step_changes_no_module_state():
    before = _module_containers()
    assert before  # the presets table at least
    for scheme in schemes.ALL_SCHEMES:
        steady = scheme in schemes.STEADY_SCHEMES
        config = RunConfig(scheme=scheme, n=16, dt=0.1 if steady else 0.01,
                           mu=1.0 if steady else 0.01)
        schemes.step(config.initial_state(), config.phys(), config.grid(),
                     config.scheme_config())
    assert _module_containers() == before


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
