import contextlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cascadeg2
from cascadeg2 import cli, correlate, liouvillian, verify
from cascadeg2 import (TSIRELSON_BOUND, CascadeBatch, CascadeParams,
                       DetectorSetting, bell_s_from_response,
                       degree_from_response, g2_analytic, omega_star,
                       two_photon_response)
from cascadeg2.cli import (FIGURE_IDS, RunConfig, SweepResult, _figure_plan,
                           _parse_overrides, load_config, main, run_figure,
                           run_sweep)
from cascadeg2.liouvillian import build_generator
from cascadeg2.model import PARAM_FIELDS
from cascadeg2.verify import (check_evolve_routes, check_oracle_equivalence,
                              check_semigroup, check_tsirelson, check_w_phase,
                              run_all_checks, summarize)

DATA = Path(__file__).resolve().parent / "data"
_CORRELATE = ["correlate", "--tau-max", "10", "--tau-steps", "300"]

_BASE = CascadeParams(gamma_u=0.01)
_DEPHASED = _BASE.with_(gamma12=1.0, gamma21=1.0)


def _dephasing(x):
    return {"gamma12": x, "gamma21": x}


# The seven figures, stated apart from cli: a degree curve is one point, a
# Bell curve a base point and the fields that the swept value x sets.
_FIGURES = {
    "3a": {f"C[dfs{v:g}_no_field]": _BASE.with_(delta_fs=v)
           for v in (0.0, 1.0, 5.0, 10.0)},
    "3b": {
        "C[dfs5_no_field]": _BASE.with_(delta_fs=5.0),
        "C[dfs5_resonant]": _BASE.with_(delta_fs=5.0, rabi=5.0),
        "C[dfs5_detuned]": _BASE.with_(delta_fs=5.0, detuning=25.0,
                                       rabi=omega_star(5.0, 25.0)),
    },
    "3c": {
        "C[dfs10_no_field]": _BASE.with_(delta_fs=10.0),
        "C[dfs10_resonant]": _BASE.with_(delta_fs=10.0, rabi=10.0),
        "C[dfs10_detuned]": _BASE.with_(delta_fs=10.0, detuning=100.0,
                                        rabi=omega_star(10.0, 100.0)),
    },
    "4a": {f"C[dfs0_gd1_rabi{v:g}]": _DEPHASED.with_(rabi=v)
           for v in (0.0, 1.0, 3.0)},
    "4b": {
        "C[dfs5_gd1_no_field]": _DEPHASED.with_(delta_fs=5.0),
        "C[dfs5_gd1_resonant]": _DEPHASED.with_(delta_fs=5.0, rabi=5.0),
        "C[dfs5_gd1_detuned]": _DEPHASED.with_(delta_fs=5.0, detuning=25.0,
                                               rabi=omega_star(5.0, 25.0)),
    },
    "5": {
        "S[no_field]": (_BASE, lambda x: {"delta_fs": x}),
        "S[resonant]": (_BASE, lambda x: {"delta_fs": x, "rabi": x}),
        "S[detuned]": (_BASE, lambda x: {"delta_fs": x, "detuning": 5.0 * x,
                                         "rabi": omega_star(x, 5.0 * x)}),
    },
    "6": {
        "S[dfs0_no_field]": (_BASE, _dephasing),
        "S[dfs5_no_field]": (_BASE.with_(delta_fs=5.0), _dephasing),
        "S[dfs5_detuned]": (_BASE.with_(delta_fs=5.0, detuning=25.0,
                                        rabi=omega_star(5.0, 25.0)), _dephasing),
    },
}
# the swept parameter of each Bell figure
_SWEPT = {"5": "delta_fs", "6": "gamma_d"}


class TestRunConfig:
    def test_valid_grid(self):
        config = RunConfig(start=0.0, stop=1.0, steps=5)
        assert np.allclose(config.grid(), np.linspace(0.0, 1.0, 5))

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(start=0.0, stop=1.0, steps=1)

    @pytest.mark.parametrize("steps", [2.5, 3.0])
    def test_non_integer_steps_rejected(self, steps):
        # refused on construction, not later by np.linspace in grid()
        with pytest.raises(ValueError, match="steps must be an integer"):
            RunConfig(start=0.0, stop=1.0, steps=steps)

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(start=2.0, stop=1.0, steps=5)

    def test_nonfinite_range_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            RunConfig(start=0.0, stop=math.inf, steps=5)


class TestSweepResult:
    @staticmethod
    def _write(result):
        buf = io.StringIO()
        result.write_csv(buf)
        return buf.getvalue()

    @staticmethod
    def _data_rows(text):
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        return lines[1:] if lines and lines[0] == "x,observable,value" else lines

    @staticmethod
    def _blocks(table, w):
        """A (label, x) table as (blocks, x, w) values, w labels per block."""
        table = np.asarray(table, dtype=float)
        return table.reshape(-1, w, table.shape[1]).transpose(0, 2, 1)

    def test_empty_rows_write_metadata_and_header_only(self):
        result = SweepResult(metadata=(("tool", "t"), ("axis", "a")),
                             xs=np.array([]), labels=(), values=np.empty((0, 0, 1)))
        assert self._write(result) == "# tool = t\n# axis = a\nx,observable,value\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_value_refused_before_any_row(self, bad):
        # rows (0, a), (0, b), (0.5, a), (0.5, b), ...: b at 0.5 is the first bad
        result = SweepResult(metadata=(("tool", "t"),), xs=np.array([0.0, 0.5, 1.0]),
                             labels=("a", "b"),
                             values=self._blocks([[1.0, 1.0, 2.0], [1.0, bad, bad]], 2))
        buf = io.StringIO()
        with pytest.raises(ValueError, match=r"non-finite value for b at x=0\.5"):
            result.write_csv(buf)
        assert self._data_rows(buf.getvalue()) == []

    def test_name_with_comma_refused_before_any_row(self):
        result = SweepResult(metadata=(), xs=np.array([0.0, 1.0]),
                             labels=("a", "c,d"),
                             values=self._blocks([[1.0, 1.0], [2.0, 2.0]], 1))
        buf = io.StringIO()
        with pytest.raises(ValueError, match=re.escape("'c,d' would break the CSV")):
            result.write_csv(buf)
        assert self._data_rows(buf.getvalue()) == []

    @pytest.mark.parametrize("rows, message", [
        # each case is (labels, values, w) for the rows in its comment, the
        # values a (label, x) table in blocks of w labels;
        # rows (0, a), (1, a), (0, c,d), (1, c,d)
        ((("a", "c,d"), [[math.nan, 1.0], [2.0, 2.0]], 1), "non-finite value for a"),
        # rows (0, c,d), (0, a), (1, c,d), (1, a)
        ((("c,d", "a"), [[1.0, 1.0], [2.0, math.nan]], 2), "'c,d' would break"),
        # rows (0, a), (0, c,d), ...: the name and value of one row are bad
        ((("a", "c,d"), [[1.0, 1.0], [math.nan, 2.0]], 2), "'c,d' would break"),
    ])
    def test_first_bad_row_is_refused(self, rows, message):
        # rows are checked in order, the name before the value of a row
        labels, values, w = rows
        result = SweepResult(metadata=(), xs=np.array([0.0, 1.0]), labels=labels,
                             values=self._blocks(values, w))
        with pytest.raises(ValueError, match=re.escape(message)):
            result.write_csv(io.StringIO())

    def test_negative_zero_keeps_its_sign(self):
        # x at -0.0 and 0.0 compare equal but print differently
        result = SweepResult(metadata=(), xs=np.array([-0.0, 0.0]), labels=("a",),
                             values=np.array([[[1.0], [-0.0]]]))
        assert self._write(result) == (
            "x,observable,value\n"
            "-0.00000000000e+00,a,1.00000000000e+00\n"
            "0.00000000000e+00,a,-0.00000000000e+00\n")

    @pytest.mark.parametrize("w", [1, 2])
    def test_negative_zero_grid_prints_on_every_curve(self, w):
        result = SweepResult(metadata=(), xs=np.array([-0.0, 0.0]),
                             labels=("a", "b"),
                             values=self._blocks([[1.0, 2.0], [3.0, 4.0]], w))
        lines = self._data_rows(self._write(result))
        assert sorted(line.split(",")[0] for line in lines) == (
            ["-0.00000000000e+00"] * 2 + ["0.00000000000e+00"] * 2)
        assert [tuple(line.split(",")[:2]) for line in lines] == [
            (f"{x:.11e}", name) for x, name, _ in result.rows]

    def test_labels_print_literally(self):
        labels = ("C[50%]", "S{x}", "%s%.11e{}", "%%")
        result = SweepResult(metadata=(), xs=np.array([0.0, 0.25]), labels=labels,
                             values=self._blocks([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0],
                                                  [7.0, 8.0]], 1))
        lines = self._data_rows(self._write(result))
        assert [line.split(",")[1] for line in lines] == [
            name for name in labels for _ in range(2)]

    @pytest.mark.parametrize("w", [1, 3])
    def test_rows_follow_the_written_lines(self, w):
        # blocks of w labels; within a block x by x, labels side by side
        rng = np.random.default_rng(5)
        xs, labels = rng.normal(size=4), ("a", "b", "c", "d", "e", "f")
        result = SweepResult(metadata=(), xs=xs, labels=labels,
                             values=self._blocks(rng.normal(size=(6, 4)), w))
        assert self._data_rows(self._write(result)) == [
            f"{x:.11e},{name},{value:.11e}" for x, name, value in result.rows]
        first_block = [name for _, name, _ in result.rows[:4 * w]]
        assert first_block == list(labels[:w]) * 4
        # the rows are the values in C order
        assert [value for _, _, value in result.rows] == result.values.ravel().tolist()


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\ndelta_fs = 5.0\nrabi=2.5  # inline\n\n",
                        encoding="utf-8")
        assert load_config(str(path)) == {"delta_fs": 5.0, "rabi": 2.5}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("delta_fs 5.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="key = value"):
            load_config(str(path))

    def test_flags_override_config(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("delta_fs = 5.0\ngamma_u = 0\n", encoding="utf-8")
        assert main(["degree", "--theta", "0.7853981633974483",
                     "--config", str(path)]) == 0
        reported = float(capsys.readouterr().out.split("=")[-1])
        assert reported == pytest.approx(1.0 / 26.0, abs=1e-9)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "typo.cfg"
        path.write_text("delta_fs = 5.0\ngama_u = 0\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main(["degree", "--theta", "0.5", "--config", str(path)])
        assert exit_info.value.code == 2
        assert "gama_u" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "delta_fs 5.0\n",
                                         "delta_fs = five\n"])
    def test_missing_or_bad_config_is_usage_error(self, tmp_path, capsys,
                                                  content):
        path = tmp_path / "run.cfg"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main(["bell", "--config", str(path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("cascadeg2: error: ")


class TestFigures:
    def test_deterministic_bytes(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            result = run_figure("3b", {"steps": 7})
            target = tmp_path / name
            result.save(str(target))
            paths.append(target.read_bytes())
        assert paths[0] == paths[1]
        assert b"\r" not in paths[0]

    def test_header_carries_full_parameter_sets(self, tmp_path):
        result = run_figure("3a", {"steps": 5})
        lines = []
        target = tmp_path / "fig.csv"
        result.save(str(target))
        lines = target.read_text(encoding="utf-8").splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        assert any("tool = cascadeg2" in ln for ln in header)
        assert sum("curve " in ln for ln in header) == 4
        assert all("delta_fs=" in ln for ln in header if "curve" in ln)
        # rows are x,observable,value with 12 significant digits
        first = lines[len(header) + 1].split(",")
        assert first[0] == "0.00000000000e+00"
        assert len(first) == 3

    def test_figure_values_match_library(self):
        result = run_figure("3b", {"steps": 3, "gamma_u": 0.0})
        rows = {(label, round(x, 12)): value for x, label, value in result.rows}
        detuned = CascadeParams(delta_fs=5.0, detuning=25.0,
                                rabi=math.sqrt(150.0))
        (expected,) = degree_from_response(two_photon_response([detuned]),
                                           math.pi / 4.0)
        key = ("C[dfs5_detuned]", round(math.pi / 4.0, 12))
        assert rows[key] == pytest.approx(expected, rel=1e-12)

    def test_figure_5_curves(self):
        result = run_figure("5", {"steps": 6, "gamma_u": 0.0})
        no_field = [(x, v) for x, label, v in result.rows if label == "S[no_field]"]
        xs, values = zip(*no_field)
        assert xs[0] == 0.0 and values[0] == pytest.approx(2.0 * math.sqrt(2.0),
                                                           abs=1e-6)
        # S falls below 2 once the splitting exceeds the linewidth
        assert values[-1] < 2.0
        detuned = [v for x, label, v in result.rows if label == "S[detuned]"]
        assert all(v > 2.0 for v in detuned[1:])

    @pytest.mark.parametrize("fig_id", FIGURE_IDS)
    def test_batched_rows_match_scalar_calls(self, fig_id):
        # each row of a batched sweep equals the one-point library call
        curves = _FIGURES[fig_id]
        rows = run_figure(fig_id, {"steps": 11}).rows
        assert len(rows) == 11 * len(curves)
        for x, label, value in rows:
            if fig_id in _SWEPT:
                base, axes = curves[label]
                (expected,) = bell_s_from_response(
                    two_photon_response([base.with_(**axes(x))]))
            else:
                (expected,) = degree_from_response(
                    two_photon_response([curves[label]]), x)
            assert value == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("argv, golden", [
        (["figure", "3a", "--override", "steps=11"], "figure_3a_steps11.csv"),
        (["figure", "3b", "--override", "steps=11"], "figure_3b_steps11.csv"),
        (["figure", "3c", "--override", "steps=11"], "figure_3c_steps11.csv"),
        (["figure", "4a", "--override", "steps=11"], "figure_4a_steps11.csv"),
        (["figure", "4b", "--override", "steps=11"], "figure_4b_steps11.csv"),
        (["figure", "5", "--override", "steps=11"], "figure_5_steps11.csv"),
        (["figure", "6", "--override", "steps=11"], "figure_6_steps11.csv"),
        (["figure", "5"], "figure_5.csv"),
        (["figure", "6"], "figure_6.csv"),
        (["sweep", "--axis", "rabi", "--start", "0", "--stop", "10",
          "--steps", "21"], "sweep_rabi_0_10_21.csv"),
        (_CORRELATE + ["--rabi", "3"], "correlate_rabi3_tau10_300.csv"),
        (_CORRELATE + ["--rabi", "0"], "correlate_rabi0_tau10_300.csv"),
        (_CORRELATE + ["--rabi", "3", "--method", "numeric"],
         "correlate_rabi3_tau10_300_numeric.csv"),
        (["figure", "3a"], "figure_3a.csv"),
        (["figure", "3b"], "figure_3b.csv"),
        (["figure", "3c"], "figure_3c.csv"),
        (["figure", "4a"], "figure_4a.csv"),
        (["figure", "4b"], "figure_4b.csv"),
        # sweeps of one observable, and of two in an order not the default
        (["sweep", "--axis", "gamma_d", "--start", "0", "--stop", "2",
          "--steps", "11", "--observables", "s"], "sweep_gamma_d_0_2_11_s.csv"),
        (["sweep", "--axis", "delta_fs", "--start", "0", "--stop", "10",
          "--steps", "11", "--observables", "c_d,c_h"],
         "sweep_delta_fs_0_10_11_cd_ch.csv"),
        # the undriven full-generator curve: D/D analyzers read both the
        # coherence and the transfer rates of the 4x4 sector
        (_CORRELATE + ["--rabi", "0", "--delta-fs", "2", "--gamma-d", "0.4",
                       "--theta1", "0.785398", "--theta2", "0.785398",
                       "--method", "numeric"],
         "correlate_rabi0_tau10_300_numeric.csv"),
    ])
    def test_output_matches_golden_csv(self, tmp_path, argv, golden):
        # captured before sweeps were batched, figures 5 and 6 at default
        # resolution before parameter batches, the correlate curves before
        # uniform grids were filled by doubling, the default-resolution
        # degree figures before the CSV was written from the value columns,
        # the one- and two-observable sweeps before the values took the shape
        # of the rows, the undriven numeric curve before the sector blocks
        # were taken through constant index tables; output must not move a
        # byte
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / golden).read_bytes()

    @pytest.mark.parametrize("fig_id", FIGURE_IDS)
    def test_one_response_per_figure_equals_per_curve_responses(self, fig_id):
        plan = _figure_plan(fig_id, {})
        # each curve's points are a contiguous run of the figure batch
        size = len(plan.batch) // len(plan.labels)
        expected = []
        for k, label in enumerate(plan.labels):
            curve = CascadeBatch(plan.batch.table[:, k * size:(k + 1) * size])
            response = two_photon_response(curve)
            if fig_id in ("5", "6"):
                values = bell_s_from_response(response)
            else:
                values = degree_from_response(response, theta=plan.xs)
            expected += [(float(x), label, float(v))
                         for x, v in zip(plan.xs, values)]
        assert run_figure(fig_id).rows == tuple(expected)

    @pytest.mark.parametrize("fig_id, overrides", [
        *(pytest.param(fig_id, {}, id=f"{fig_id}-default")
          for fig_id in FIGURE_IDS),
        *(pytest.param(fig_id, {"steps": 11, "gamma3": 1.5},
                       id=f"{fig_id}-steps11-gamma3") for fig_id in FIGURE_IDS),
        # an override outranks a curve's own values, and a detuned curve
        # keeps the rabi = omega_star of its own delta_fs and detuning
        *(pytest.param(fig_id, {"detuning": 30.0}, id=f"{fig_id}-detuning30")
          for fig_id in ("3b", "3c", "4b")),
    ])
    def test_figure_plan_matches_independent_reference(self, fig_id, overrides):
        # the one table of a figure holds, curve by curve, the curve's point
        # with the overrides, broadcast against its swept fields; the curve's
        # header line is that point before the sweep
        plan = _figure_plan(fig_id, overrides)
        changes = {k: v for k, v in overrides.items() if k != "steps"}
        curves = _FIGURES[fig_id]
        assert plan.labels == tuple(curves)
        swept = _SWEPT.get(fig_id)
        n = len(plan.xs) if swept else 1
        note = f" ({swept} swept)" if swept else ""
        header = dict(plan.metadata)
        for k, (label, curve) in enumerate(curves.items()):
            base, axes = curve if swept else (curve, lambda x: {})
            point = base.with_(**changes)
            expected = CascadeBatch.broadcast(point, **axes(plan.xs))
            assert np.array_equal(plan.batch.table[:, k * n:(k + 1) * n],
                                  expected.table)
            assert header[f"curve {label}"] == " ".join(
                f"{name}={getattr(point, name):.11e}" for name in PARAM_FIELDS
            ) + note

    @pytest.mark.parametrize("fig_id", FIGURE_IDS)
    def test_routes_agree_on_the_figure_batch(self, fig_id):
        batch = _figure_plan(fig_id, {}).batch
        analytic = two_photon_response(batch)
        numeric = two_photon_response(batch, "numeric")
        # relative to each point's largest slot
        scale = np.max([np.abs(slot) for slot in analytic], axis=0)
        assert max(np.max(np.abs(n - a) / scale)
                   for n, a in zip(numeric, analytic)) <= 1e-12

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            run_figure("9z", {})

    def test_unknown_override_rejected(self, capsys):
        with pytest.raises(ValueError, match="gama_u"):
            run_figure("3b", {"steps": 3, "gama_u": 0.0})
        with pytest.raises(SystemExit) as exit_info:
            main(["figure", "3b", "--override", "gama_u=0"])
        assert exit_info.value.code == 2
        assert "gama_u" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["steps=x", "steps=1", "steps=0",
                                          "steps=2.7", "steps=inf", "rabi",
                                          "gamma3=-1"])
    def test_bad_override_is_usage_error(self, capsys, override):
        with pytest.raises(SystemExit) as exit_info:
            main(["figure", "3b", "--override", override])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("cascadeg2: error: ")

    @pytest.mark.parametrize("fig_id, override, fields, curve", [
        ("6", "gamma_d=1", "gamma12, gamma21", "S[dfs0_no_field]"),
        ("6", "gamma21=0.5", "gamma21", "S[dfs0_no_field]"),
        ("5", "delta_fs=1", "delta_fs", "S[no_field]"),
        ("5", "rabi=2", "rabi", "S[resonant]"),
        ("5", "detuning=3", "detuning", "S[detuned]"),
    ])
    def test_override_of_a_swept_field_is_usage_error(self, capsys, fig_id,
                                                      override, fields, curve):
        message = f"curve {curve} sweeps {fields},"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_figure(fig_id, _parse_overrides([override]))
        with pytest.raises(SystemExit) as exit_info:
            main(["figure", fig_id, "--override", override,
                  "--override", "steps=3"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(f"cascadeg2: error: {message}")

    @pytest.mark.parametrize("fig_id", ["5", "6"])
    def test_override_of_an_unswept_field_applies(self, fig_id):
        header = run_figure(fig_id, {"gamma_u": 0.0, "steps": 3}).metadata
        curves = [value for key, value in header if key.startswith("curve ")]
        assert len(curves) == 3
        assert all(f"gamma_u={0.0:.11e}" in value for value in curves)

    @pytest.mark.parametrize("argv", [
        ["degree", "--theta", "nan"],
        ["bell", "--angles", "nan", "0", "0", "0"],
        ["correlate", "--tau-max", "5", "--tau-steps", "5", "--theta1", "nan"],
        ["correlate", "--tau-max", "inf", "--tau-steps", "5"],
    ])
    def test_nonfinite_input_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("cascadeg2: error: ")
        assert "finite" in err

    def test_header_names_no_integrator_tolerances(self):
        header = run_figure("3a", {"steps": 2}).metadata
        assert [key for key, _ in header[:2]] == ["tool", "command"]
        assert not any(key in ("rtol", "atol") for key, _ in header)


class TestSweep:
    def test_rows_and_values(self):
        params = CascadeParams(gamma_u=0.0)
        config = RunConfig(start=0.0, stop=4.0, steps=3)
        result = run_sweep(params, "delta_fs", config, ("c_d", "s"))
        assert len(result.rows) == 6
        c_d = {x: v for x, label, v in result.rows if label == "c_d"}
        assert c_d[4.0] == pytest.approx(1.0 / 17.0, abs=1e-9)
        s = {x: v for x, label, v in result.rows if label == "s"}
        assert s[0.0] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)

    def test_gamma_d_axis_sets_both_rates(self):
        params = CascadeParams(gamma_u=0.0)
        config = RunConfig(start=0.0, stop=1.0, steps=2)
        result = run_sweep(params, "gamma_d", config, ("c_h",))
        values = {x: v for x, label, v in result.rows}
        assert values[1.0] == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(CascadeParams(), "nonsense",
                      RunConfig(start=0.0, stop=1.0, steps=2))

    def test_repeated_observable_rejected(self):
        with pytest.raises(ValueError, match="repeated observable 'c_d'"):
            run_sweep(CascadeParams(), "rabi",
                      RunConfig(start=0.0, stop=1.0, steps=2), ["c_d", "s", "c_d"])


class TestCommands:
    def test_bell_command(self, capsys):
        assert main(["bell", "--delta-fs", "5", "--rabi",
                     "12.247448713915889", "--detuning", "25",
                     "--gamma-u", "0"]) == 0
        out = capsys.readouterr().out
        assert out == "S = 2.71966720809e+00  violated = True\n"
        (expected,) = bell_s_from_response(two_photon_response([CascadeParams(
            delta_fs=5.0, rabi=12.247448713915889, detuning=25.0)]))
        assert float(out.split("=")[1].split()[0]) == pytest.approx(expected)

    # the README's degree and bell lines, and their output, byte for byte
    @pytest.mark.parametrize("argv, stdout", [
        ("degree --theta 0.785398 --delta-fs 5 --gamma-u 0",
         "C(theta=7.85398000000e-01) = 3.84615384616e-02\n"),
        ("bell --delta-fs 5 --rabi 12.2474487 --detuning 25",
         "S = 2.71366961038e+00  violated = True\n"),
        ("bell --angles 0 0.785398 0.392699 1.178097 --delta-fs 2",
         "S = 1.69931289295e+00  violated = False\n"),
    ])
    def test_readme_observable_command_stdout(self, capsys, argv, stdout):
        assert main(argv.split()) == 0
        assert capsys.readouterr().out == stdout

    def test_bell_at_a_drive_whose_square_overflows(self, capsys):
        # rabi^2 passes the float maximum; the closed form still answers
        assert main("bell --rabi 1e155 --delta-fs 1".split()) == 0
        assert capsys.readouterr().out == "S = 1.41421356237e+00  violated = False\n"

    def test_bell_with_explicit_angles(self, capsys):
        assert main(["bell", "--gamma-u", "0", "--angles", "0",
                     "0.7853981633974483", "0.39269908169872414",
                     "1.1780972450961724"]) == 0
        out = capsys.readouterr().out
        assert float(out.split("=")[1].split()[0]) == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-6)

    def test_correlate_command(self, tmp_path, capsys):
        out_path = tmp_path / "curve.csv"
        assert main(["correlate", "--tau-max", "4", "--tau-steps", "9",
                     "--theta1", "0.7853981633974483",
                     "--theta2", "0.7853981633974483",
                     "--delta-fs", "5", "--gamma-u", "0",
                     "--out", str(out_path)]) == 0
        lines = [ln for ln in out_path.read_text().splitlines()
                 if ln and not ln.startswith("#")]
        taus = np.linspace(0.0, 4.0, 9)
        expected = g2_analytic(CascadeParams(delta_fs=5.0),
                               DetectorSetting(math.pi / 4.0),
                               DetectorSetting(math.pi / 4.0), taus)
        for line, tau, value in zip(lines[1:], taus, expected):
            x, name, val = line.split(",")
            assert name == "g2[analytic]"
            assert float(x) == pytest.approx(tau)
            assert float(val) == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("method", ["analytic", "numeric"])
    def test_correlate_overflow_is_usage_error(self, tmp_path, capsys, method):
        out_path = tmp_path / "curve.csv"
        with pytest.raises(SystemExit) as exit_info:
            main(["correlate", "--tau-max", "1", "--tau-steps", "3",
                  "--rabi", "1e200", "--method", method,
                  "--out", str(out_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            "cascadeg2: error: closed-form exponential overflowed"
            if method == "analytic"
            else "cascadeg2: error: matrix-exponential propagation overflowed")
        assert not out_path.exists()

    def test_correlate_at_long_delays(self, tmp_path):
        out_path = tmp_path / "curve.csv"
        assert main(["correlate", "--gamma3", "1e-3", "--gamma4", "10",
                     "--gamma-u", "0", "--tau-max", "200", "--tau-steps",
                     "300", "--out", str(out_path)]) == 0
        rows = [ln.split(",") for ln in out_path.read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        assert len(rows) == 300
        assert all(math.isfinite(float(value)) for _, _, value in rows)

    @pytest.mark.parametrize("argv, config, gamma12", [
        # within one layer an explicit gamma12 beats gamma_d in either order
        (["figure", "4a", "--override", "gamma12=0.3",
          "--override", "gamma_d=1"], None, 0.3),
        (["figure", "4a", "--override", "gamma_d=1",
          "--override", "gamma12=0.3"], None, 0.3),
        # a later layer wins: flags over the config file
        (["sweep", "--gamma-d", "1"], "gamma12 = 0.3\n", 1.0),
        (["sweep", "--gamma12", "0.3"], "gamma_d = 1\n", 0.3),
    ], ids=["gamma12-then-gamma_d", "gamma_d-then-gamma12", "flag-over-config",
            "flag-gamma12-over-config-gamma_d"])
    def test_parameter_precedence(self, tmp_path, argv, config, gamma12):
        if argv[0] == "sweep":
            argv = argv + ["--axis", "rabi", "--start", "0", "--stop", "1",
                           "--steps", "2"]
        if config is not None:
            (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
            argv = argv + ["--config", str(tmp_path / "run.cfg")]
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        # the first curve or base line of the header
        header = next(line for line in out.read_text().splitlines()
                      if "gamma12=" in line)
        values = dict(item.split("=") for item in header.split(" = ", 1)[1].split()
                      if "=" in item)
        assert float(values["gamma12"]) == gamma12
        assert float(values["gamma21"]) == 1.0

    def test_empty_observable_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--axis", "rabi", "--start", "0", "--stop", "1",
                  "--steps", "2", "--observables", ","])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("cascadeg2: error: no observables")

    def test_unknown_observable_is_usage_error(self, capsys):
        # an unknown name, and a repeated one, whose rows would repeat a key
        for observables, message in [("c_h,foo", "unknown observable 'foo'"),
                                     ("s,c_h,s", "repeated observable 's'")]:
            with pytest.raises(SystemExit) as exit_info:
                main(["sweep", "--axis", "rabi", "--start", "0", "--stop", "1",
                      "--steps", "2", "--observables", observables])
            assert exit_info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines()[-1] == f"cascadeg2: error: {message}"

    @pytest.mark.parametrize("argv", [
        ["degree", "--theta", "0", "--gamma1", "0", "--gamma2", "0",
         "--gamma3", "0", "--gamma4", "0"],
        ["bell", "--gamma4", "0", "--rabi", "5", "--gamma-u", "0"],
        ["figure", "3a", "--override", "gamma3=0", "--override", "gamma21=0"],
        # the undriven point rabi = 0 of the sweep diverges
        ["sweep", "--axis", "rabi", "--start", "0", "--stop", "5",
         "--steps", "3", "--gamma4", "0", "--gamma-u", "0", "--out", "s.csv"],
    ], ids=["degree", "bell", "figure", "sweep"])
    def test_divergent_average_is_usage_error(self, tmp_path, monkeypatch,
                                              capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.splitlines()[-1].startswith(
            "cascadeg2: error: time average diverges: ")
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["figure", "3a", "--override", "steps=3"],
        ["correlate", "--tau-max", "1", "--tau-steps", "3"],
        ["sweep", "--axis", "rabi", "--start", "0", "--stop", "1", "--steps", "2"],
        ["verify"],
    ], ids=["figure", "correlate", "sweep", "verify"])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                           argv):
        def no_run():
            pytest.fail("verify ran its checks before opening --out")

        monkeypatch.setattr(cli, "run_all_checks", no_run)
        out = tmp_path / "missing" / "out.csv"
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--out", str(out)])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("cascadeg2: error: ")
        assert str(out) in err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_command_to_stdout(self, capsys):
        assert main(["sweep", "--axis", "delta_fs", "--start", "0",
                     "--stop", "2", "--steps", "2", "--observables", "c_h",
                     "--gamma-u", "0"]) == 0
        out = capsys.readouterr().out
        assert "x,observable,value" in out
        assert out.endswith("\n")

    def test_no_command_loads_scipy(self, tmp_path):
        # a fresh interpreter, since this one has imported scipy already;
        # numpy is the only runtime dependency, of every command and of
        # verify's checks too
        child = f"""
import json, sys
import numpy as np
from cascadeg2 import cli
from cascadeg2 import CascadeParams, DetectorSetting, build_generator, evolve_grid
from cascadeg2 import g2_numeric_grid
cli.main(["figure", "5", "--out", {str(tmp_path / "figure_5.csv")!r}])
cli.main(["bell"])
cli.main(["correlate", "--rabi", "3", "--tau-max", "5", "--tau-steps", "20",
          "--out", {str(tmp_path / "curve.csv")!r}])
status = cli.main(["verify", "--out", {str(tmp_path / "verify.json")!r}])
det = DetectorSetting(0.0)
grid = g2_numeric_grid(CascadeParams(), det, det, np.linspace(0.0, 2.0, 5))
driven = g2_numeric_grid(CascadeParams(rabi=3.0), det, det, np.linspace(0.0, 2.0, 5))
params = CascadeParams(rabi=1.0)
state = evolve_grid(build_generator(params), np.eye(5) / 5, [0.5])[0]
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print(json.dumps({{"loaded": loaded, "status": status, "grid": grid.tolist(),
                  "driven": driven.tolist(),
                  "trace": abs(np.trace(state) - 1.0)}}))
"""
        src = str(Path(cascadeg2.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", child], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["loaded"] == []
        assert result["status"] == 0
        for grid in (result["grid"], result["driven"]):
            assert grid[0] == pytest.approx(4.0) and np.all(np.isfinite(grid))
        assert result["trace"] < 1e-9


# the bar that ends each check's detail
_BARS = {
    "generator_restriction": "(tol 1e-14)",
    "trace_preservation": "(tol 1e-12)",
    "hermiticity_preservation": "(tol 1e-12)",
    "positivity": "(floor -1e-10)",
    "semigroup": "(tol 1e-12)",
    "evolve_route_agreement": "(tol 1e-12)",
    "w_phase": "tol 1e-12)",
    "tau0_normalization": "(tol 1e-10)",
    "oracle_equivalence": "(tol 1e-12)",
    "average_cross_oracle": "(tol 1e-12)",
    "structural_identity": "(tol 1e-09)",
    "bell_bridge": "(tol 1e-09)",
    "tsirelson_bound": "vs bound 2.828427",
}


def _plant(monkeypatch, mutant):
    """Make ``mutant`` build every generator that ``verify`` and both
    full-generator paths of ``correlate`` read: the one of a point, and the
    stack of a whole CascadeBatch."""
    for module in (verify, correlate):
        monkeypatch.setattr(module, "build_generator", mutant)


def _scaled_splitting(scale):
    """A generator builder whose splitting is delta_fs * scale."""
    def build(params):
        if isinstance(params, CascadeBatch):
            table = params.table.copy()
            table[PARAM_FIELDS.index("delta_fs")] *= scale
            return build_generator(CascadeBatch(table))
        return build_generator(replace(params, delta_fs=params.delta_fs * scale))
    return build


def _failing(results):
    return [result.name for result in results if not result.passed]


@pytest.fixture(scope="class")
def clean_run(tmp_path_factory):
    """stdout, exit status and JSON report of one ``verify --out`` run."""
    report = tmp_path_factory.mktemp("verify") / "report.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["verify", "--out", str(report)])
    return out.getvalue(), status, json.loads(report.read_text(encoding="utf-8"))


class TestVerify:
    def test_suite_passes(self, clean_run):
        out, status, payload = clean_run
        assert status == 0
        assert "oracle_equivalence" in out
        assert "FAIL" not in out
        assert payload["passed"] is True
        assert len(payload["checks"]) == 13
        for check in payload["checks"]:
            assert isinstance(check["seconds"], float)
            assert check["seconds"] >= 0.0

    def test_every_detail_names_its_bar(self, clean_run):
        out, _status, payload = clean_run
        assert [check["name"] for check in payload["checks"]] == list(_BARS)
        for check in payload["checks"]:
            assert check["detail"].endswith(_BARS[check["name"]]), check
        assert out.splitlines()[:-1] == [
            f"PASS  {check['name']}: {check['detail']}"
            for check in payload["checks"]]

    def test_bars_are_not_settable(self, capsys):
        checks = [f for name, f in vars(verify).items() if name.startswith("check_")]
        assert len(checks) == 13
        for f in checks + [run_all_checks]:
            assert not inspect.signature(f).parameters, f.__name__
        assert list(inspect.signature(cascadeg2.g2_numeric_grid).parameters) == [
            "params", "det1", "det2", "taus"]
        for option in (["--quick"], ["--tol", "1e-6"]):
            with pytest.raises(SystemExit) as exit_info:
                main(["verify"] + option)
            assert exit_info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""  # no check ran
            assert f"unrecognized arguments: {' '.join(option)}" in captured.err

    def test_tightened_tolerance_passes_at_exact_floor(self):
        # both routes are exact, so they agree to round-off
        result = check_oracle_equivalence()
        assert result.passed, result.detail
        assert result.detail.endswith("(tol 1e-12)")

    def test_sign_flip_mutation_caught_by_w_phase(self, monkeypatch):
        assert check_w_phase().passed
        _plant(monkeypatch, _scaled_splitting(-1.0))
        assert not check_w_phase().passed
        assert _failing(run_all_checks()) == [
            "w_phase", "oracle_equivalence", "average_cross_oracle"]

    def test_planted_splitting_error_caught_by_oracle(self, monkeypatch):
        # a relative 1e-9 error in the splitting: the phase slope, off by
        # 5e-9, and the route agreements, of G(tau) and of the averages, all
        # at their 1e-12 bar, see it
        _plant(monkeypatch, _scaled_splitting(1 + 1e-9))
        assert _failing(run_all_checks()) == [
            "w_phase", "oracle_equivalence", "average_cross_oracle"]

    def test_s_above_the_tsirelson_bound_fails(self, monkeypatch):
        # the check holds the bound its line names, with no margin
        assert check_tsirelson().passed
        monkeypatch.setattr(verify, "bell_s_from_response",
                            lambda response: np.array([TSIRELSON_BOUND + 5e-7]))
        result = check_tsirelson()
        assert not result.passed, result.detail
        assert result.detail == "max |S| 2.828428 vs bound 2.828427"

    def test_planted_per_delay_error_caught_by_semigroup(self, monkeypatch):
        # a relative 1e-6 error in the exponential of every delay of a
        # per-delay fill; the doubling fill exponentiates at most two
        # matrices at once, so only a per-delay fill passes a larger stack
        exact = liouvillian.expm

        def skewed(a):
            a = np.asarray(a)
            return exact(a * (1 + 1e-6) if a.ndim == 3 and len(a) > 2 else a)

        monkeypatch.setattr(liouvillian, "expm", skewed)
        result = check_semigroup()
        assert not result.passed, result.detail

    def test_planted_expm_error_caught_by_evolve_route_agreement(
            self, monkeypatch):
        # a relative 1e-10 error in every exponential, about 1e-10 in each
        # propagated state: eigenvector propagation shares no code with
        # expm, so the check sees it at its 1e-12 bar
        exact = liouvillian.expm
        assert check_evolve_routes().passed
        monkeypatch.setattr(liouvillian, "expm",
                            lambda a: exact(a) * (1 + 1e-10))
        result = check_evolve_routes()
        assert not result.passed, result.detail

    def test_planted_transposed_sector_caught_by_both_route_checks(
            self, monkeypatch):
        # the flat block positions of the sector read transposed: with
        # gamma12 = gamma21 the mutant only swaps the analyzers' roles, so
        # the route checks see it because the transfer rates are drawn apart
        sector = correlate._SECTOR
        monkeypatch.setattr(correlate, "_SECTOR_BLOCK",
                            sector * liouvillian.DIM + sector[:, None])
        assert _failing(run_all_checks()) == [
            "oracle_equivalence", "average_cross_oracle"]

    def test_crashed_check_fails_and_the_suite_goes_on(self, monkeypatch):
        def broken(params):
            raise RuntimeError("no generator")

        _plant(monkeypatch, broken)
        results = run_all_checks()
        text, ok = summarize(results)
        assert not ok and len(results) == 13
        generator_checks = [
            "generator_restriction", "trace_preservation",
            "hermiticity_preservation", "positivity", "semigroup",
            "evolve_route_agreement", "w_phase", "tau0_normalization",
            "oracle_equivalence", "average_cross_oracle"]
        assert _failing(results) == generator_checks
        lines = text.splitlines()
        for name in generator_checks:
            assert f"FAIL  {name}: raised RuntimeError('no generator')" in lines
