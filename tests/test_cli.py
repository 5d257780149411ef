import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import nlkg.grid as grid_mod
from nlkg.cli import _SCHEMA, ScenarioConfig, _synthetic_family, main
from nlkg.errors import DomainError
from nlkg.solver import SolverConfig

ROOT = Path(__file__).resolve().parents[1]


def base_config(out_dir, **over):
    cfg = {
        "grid": {"d": 2, "n": 32, "box_length": 8.0},
        "physics": {"m": 0.0, "p": 2.0},
        "data": {"kind": "gaussian", "params": {"A": 0.4, "w": 0.6}},
        "solver": {"dt_init": 5e-3, "t_max": 0.1, "adapt_theta": None,
                   "snapshot_stride": 2},
        "output": {"directory": str(out_dir)},
        "seed": 7,
    }
    for key, val in over.items():
        if isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    return cfg


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def schema_names(table, where=""):
    """(dotted key, kind) of each name of a schema table that is not a
    sub-section; the items of a list of sections give `key[].name`."""
    for name, kind in table.items():
        key = where + name
        if isinstance(kind, dict):
            yield from schema_names(kind, key + ".")
            continue
        yield key, kind
        if isinstance(kind, list) and isinstance(kind[0], dict):
            yield from schema_names(kind[0], key + "[].")


def number_keys():
    """Every int or float the schema reads, a list's items as `key[]`."""
    for key, kind in schema_names(_SCHEMA):
        if isinstance(kind, list) and not isinstance(kind[0], dict):
            key, kind = key + "[]", kind[0]
        if kind in (int, float) or kind == float | None:
            yield key


def nested(key, value):
    """The config fragment that sets dotted `key` (`[]`: a one-item list) to `value`."""
    head, _, rest = key.partition(".")
    inner = nested(rest, value) if rest else value
    return {head[:-2]: [inner]} if head.endswith("[]") else {head: inner}


class TestValidation:
    def test_missing_physics_key_fails_with_name(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        del cfg["physics"]["p"]
        code = main(["simulate", str(write_cfg(tmp_path, cfg))])
        assert code == 2
        assert "physics.p" in capsys.readouterr().err

    def test_pad2x_needs_even_p_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config(out, physics={"p": 1.8}, solver={"dealias_pad": "pad2x"})
        code = main(["simulate", str(write_cfg(tmp_path, cfg))])
        assert code == 2
        assert "pad2x" in capsys.readouterr().err
        assert not (out / "MANIFEST.json").exists()

    @pytest.mark.parametrize("solver", [
        {"adapt_theta": 0.0}, {"adapt_theta": -1.0}, {"cfl_safety": 0.0},
        {"cfl_safety": -0.5}, {"t_max": 0.0}, {"t_max": -0.1},
        {"snapshot_strid": 2}, {"adapt_theta": "fast"}])
    def test_bad_solver_setting_fails_before_any_output(self, tmp_path, capsys, solver):
        # each of these used to run and end at t = 0 (dt_underflow or
        # reached_t_max), or to be ignored (the misspelt stride key)
        out = tmp_path / "out"
        code = main(["simulate", str(write_cfg(tmp_path, base_config(out, solver=solver)))])
        assert code == 2
        assert next(iter(solver)) in capsys.readouterr().err
        assert not (out / "MANIFEST.json").exists()

    def test_solver_values_read_as_numbers(self, tmp_path):
        cfg = ScenarioConfig(base_config(tmp_path / "out",
                                         solver={"adapt_theta": "0.5", "t_max": "0.1"}))
        assert cfg.solver.adapt_theta == 0.5 and isinstance(cfg.solver.adapt_theta, float)
        assert cfg.solver.t_max == 0.1
        assert ScenarioConfig(base_config(tmp_path / "out")).solver.adapt_theta is None

    @pytest.mark.parametrize("key,over", [
        ("grid.n", {"grid": {"d": 2, "n": 32.7, "box_length": 8.0}}),
        ("grid.d", {"grid": {"d": 2.5, "n": 32, "box_length": 8.0}}),
        ("solver.snapshot_stride", {"solver": {"snapshot_stride": 2.5}}),
        ("solver.snapshot_stride", {"solver": {"snapshot_stride": "2.5"}}),
        ("seed", {"seed": 7.5}),
        ("audits.tensors.levels", {"audits": {"tensors": {"levels": 1.5}}}),
        ("audits.blowup.k_fit", {"audits": {"blowup": {"k_fit": 20.5}}}),
        ("audits.profiles.j_max", {"audits": {"profiles": {"j_max": 2.5}}}),
        ("audits.profiles.synthetic.n_members",
         {"audits": {"profiles": {"synthetic": {"n_members": 2.5}}}}),
    ])
    def test_fractional_integer_fails_before_any_output(self, tmp_path, capsys, key, over):
        # each used to be truncated: grid.n 32.7 ran as 32, a stride 2.5 as 2
        out = tmp_path / "out"
        code = main(["simulate", str(write_cfg(tmp_path, base_config(out, **over)))])
        assert code == 2
        assert f"{key} = " in capsys.readouterr().err
        assert not (out / "MANIFEST.json").exists()

    @pytest.mark.parametrize("key,over", [
        ("grid.box_length", {"grid": {"d": 2, "n": 32, "box_length": "eight"}}),
        ("physics.m", {"physics": {"m": "zero", "p": 2.0}}),
        ("physics.p", {"physics": {"m": 0.0, "p": [2.0]}}),
        ("audits.cones.top_time", {"audits": {"cones": {"top_time": "one"}}}),
        ("audits.cones.t_floor", {"audits": {"cones": {"top_time": 0.5, "t_floor": None}}}),
        ("audits.profiles.tol", {"audits": {"profiles": {"tol": "small"}}}),
        ("audits.profiles.synthetic.separation_base",
         {"audits": {"profiles": {"synthetic": {"separation_base": "far", "bubbles": []}}}}),
        ("audits.profiles.synthetic.bubbles[1].width",
         {"audits": {"profiles": {"synthetic": {"bubbles": [{"width": 2.0, "amplitude": 1.0},
                                                            {"width": "wide"}]}}}}),
        ("audits.profiles.synthetic.bubbles[0].amplitude",
         {"audits": {"profiles": {"synthetic": {"bubbles": [{"width": 2, "amplitude": "big"}]}}}}),
        ("audits.profiles.synthetic.bubbles[0].width",
         {"audits": {"profiles": {"synthetic": {"bubbles": [{"amplitude": 1.0}]}}}}),
    ])
    def test_non_numeric_float_fails_before_any_output(self, tmp_path, capsys, key, over):
        # the first three used to print a traceback (exit 1) at load, and
        # audits.profiles.tol or a bubble without a width to fail mid-run
        # after the manifest was written
        out = tmp_path / "out"
        code = main(["decompose", str(write_cfg(tmp_path, base_config(out, **over)))])
        assert code == 2
        assert f"{key} = " in capsys.readouterr().err
        assert not (out / "MANIFEST.json").exists()

    def test_float_values_read_as_floats(self, tmp_path):
        cfg = ScenarioConfig(base_config(tmp_path / "out",
                                         grid={"d": 2, "n": 32, "box_length": "8"},
                                         physics={"m": 0, "p": "2"},
                                         audits={"cones": {"top_time": 1}, "profiles": {
                                             "tol": "0.05", "synthetic": {
                                                 "separation_base": 8,
                                                 "bubbles": [{"width": 2, "amplitude": "1"}]}}}))
        assert (cfg.grid.box_length, cfg.m, cfg.p) == (8.0, 0.0, 2.0)
        assert all(isinstance(x, float) for x in (cfg.grid.box_length, cfg.m, cfg.p))
        prof = cfg.audits["profiles"]
        assert (cfg.audits["cones"]["top_time"], prof["tol"]) == (1.0, 0.05)
        assert prof["synthetic"]["bubbles"] == [{"width": 2.0, "amplitude": 1.0}]
        assert isinstance(prof["synthetic"]["separation_base"], float)
        assert cfg.raw["audits"]["profiles"]["tol"] == "0.05"  # the echoed config is untouched

    def test_missing_cone_top_time_fails_with_name(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out", audits={"cones": {"t_floor": 0.1}})
        assert main(["cones", str(write_cfg(tmp_path, cfg))]) == 2
        assert "audits.cones.top_time" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,over", [
        # unknown names, once ignored (or a KeyError mid-run for the missing w)
        ("cones", "t_flor", {"audits": {"cones": {"top_time": 0.5, "t_flor": 0.1}}}),
        ("simulate", "blowups", {"audits": {"blowups": {"k_fit": 5}}}),
        ("simulate", "data.params.centre",
         {"data": {"kind": "gaussian", "params": {"A": 0.4, "w": 0.6, "centre": [1.0, 1.0]}}}),
        ("simulate", "data.params.w", {"data": {"kind": "gaussian", "params": {"A": 0.4}}}),
        ("simulate", "gauss", {"data": {"kind": "gauss", "params": {"A": 0.4, "w": 0.6}}}),
        ("decompose", "audits.profiles.synthetic.bubbles[0] keys ['center']",
         {"audits": {"profiles": {"synthetic": {"bubbles": [
             {"width": 2.0, "amplitude": 1.0, "center": [0, 0]}]}}}}),
        # each command's inputs, once checked after the manifest was written
        ("decompose", "audits.profiles.snapshots", {"audits": {"profiles": {"j_max": 2}}}),
        ("decompose", "audits.profiles.synthetic.bubbles",
         {"audits": {"profiles": {"synthetic": {"n_members": 2}}}}),
        ("audit-tensors", "audits.tensors.levels", {"audits": {"tensors": {"levels": 0}}}),
        ("cones", "audits.cones", {}),
        ("decompose", "audits.profiles", {}),
        # k_fit 2 used to fit a line with no residual
        ("fit", "audits.blowup.k_fit", {"audits": {"blowup": {"k_fit": 2}}}),
        # unknown top-level and section names, once ignored: a misspelt `audits`
        # ran no audit, and a misspelt `output` wrote to nlkg_out
        ("simulate", "top-level keys ['audit']", {"audit": {"blowup": {"k_fit": 5}}}),
        ("simulate", "top-level keys ['outputs']", {"outputs": {"directory": "elsewhere"}}),
        ("simulate", "grid keys ['N']", {"grid": {"N": 64}}),
        ("simulate", "physics keys ['mass']", {"physics": {"mass": 0.5}}),
        ("simulate", "data keys ['param']", {"data": {"param": {"A": 0.4}}}),
        ("simulate", "output keys ['dir']", {"output": {"dir": "elsewhere"}}),
        # values of the wrong kind, once a TypeError traceback (exit 1), or
        # snapshot paths read one character at a time
        ("simulate", "output.directory", {"output": {"directory": 5}}),
        ("simulate", "data.kind", {"data": {"kind": ["gaussian"], "params": {"A": 0.4}}}),
        ("simulate", "data.params", {"data": {"kind": "gaussian", "params": [0.4, 0.6]}}),
        ("decompose", "audits.profiles.snapshots", {"audits": {"profiles": {"snapshots": "ab"}}}),
        # values out of bounds, once a failure mid-run
        ("decompose", "seed", {"seed": -1, "audits": {"profiles": {"synthetic": {
            "bubbles": [{"width": 2.0, "amplitude": 1.0}]}}}}),
        ("decompose", "audits.profiles.synthetic.n_members", {"audits": {"profiles": {
            "synthetic": {"n_members": 0, "bubbles": [{"width": 2.0, "amplitude": 1.0}]}}}}),
        ("cones", "audits.cones.vertex", {"audits": {"cones": {"top_time": 0.5, "vertex": [4.0]}}}),
        ("audit-tensors", "audits.tensors.apex", {"audits": {"tensors": {"apex": [4.0]}}}),
        ("cones", "audits.cones.top_time", {"audits": {"cones": {"top_time": 0.0}}}),
        ("cones", "audits.cones.top_time", {"audits": {"cones": {"top_time": -0.5}}}),
        # a floor at or above top_time used to write a header-only series, and
        # a negative floor, j_max 0 or tol <= 0 to run with nothing to show
        ("cones", "audits.cones.t_floor", {"audits": {"cones": {"top_time": 0.5, "t_floor": 5.0}}}),
        ("cones", "audits.cones.t_floor",
         {"audits": {"cones": {"top_time": 0.5, "t_floor": -1.0}}}),
        ("decompose", "audits.profiles.j_max", {"audits": {"profiles": {"j_max": 0, "synthetic": {
            "bubbles": [{"width": 2.0, "amplitude": 1.0}]}}}}),
        ("decompose", "audits.profiles.tol", {"audits": {"profiles": {"tol": -1.0, "synthetic": {
            "bubbles": [{"width": 2.0, "amplitude": 1.0}]}}}}),
        # initial-data parameters of the wrong kind, one per kind: once a
        # traceback after the manifest was written, a truncation or ignored
        ("simulate", "data.params.A", {"data": {"kind": "gaussian",
                                                "params": {"A": "big", "w": 0.6}}}),
        ("simulate", "data.params.k[1]", {"data": {"kind": "plane_wave",
                                                   "params": {"k": [1, 0.5]}}}),
        ("simulate", "data.params.center[0]",
         {"data": {"kind": "gaussian", "params": {"A": 0.4, "w": 0.6, "center": ["x", 4.0]}}}),
        ("simulate", "data.params.traveling",
         {"data": {"kind": "plane_wave", "params": {"k": [1, 0], "traveling": "yes"}}}),
    ])
    def test_bad_input_fails_before_any_output(self, tmp_path, capsys, command, key, over):
        out = tmp_path / "out"
        code = main([command, str(write_cfg(tmp_path, base_config(out, **over)))])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (out / "MANIFEST.json").exists()

    def test_integral_values_read_as_integers(self, tmp_path):
        cfg = ScenarioConfig(base_config(tmp_path / "out",
                                         grid={"d": 2.0, "n": 32.0, "box_length": 8.0},
                                         solver={"snapshot_stride": "3"}, seed=5.0,
                                         audits={"blowup": {"k_fit": 12.0}}))
        assert (cfg.grid.d, cfg.grid.n, cfg.solver.snapshot_stride, cfg.seed) == (2, 32, 3, 5)
        assert all(isinstance(x, int) for x in (cfg.grid.n, cfg.solver.snapshot_stride, cfg.seed))
        assert cfg.audits["blowup"]["k_fit"] == 12 and isinstance(cfg.audits["blowup"]["k_fit"], int)
        assert cfg.raw["audits"]["blowup"]["k_fit"] == 12.0  # the echoed config is untouched

    @pytest.mark.parametrize("key", list(number_keys()))
    def test_string_for_a_number_fails_at_load(self, tmp_path, key):
        name = key.replace("[]", "[0]")
        with pytest.raises(DomainError, match=re.escape(f"{name} = 'x' is not")):
            ScenarioConfig(base_config(tmp_path / "out", **nested(key, "x")))

    def test_solver_schema_is_solver_config(self):
        assert set(_SCHEMA["solver"]) == {f.name for f in dataclasses.fields(SolverConfig)}

    def test_readme_minimal_config_loads_and_table_is_the_schema(self, tmp_path):
        text = (ROOT / "README.md").read_text()
        ScenarioConfig(json.loads(text.split("```json\n", 1)[1].split("```", 1)[0]))
        table = text.split("| key | kind | required or default | bound |\n", 1)[1]
        table = table.split("\n\n", 1)[0]
        rows = re.findall(r"^\| `([^`]+)` \|", table, re.M)
        assert sorted(rows) == sorted(key for key, _ in schema_names(_SCHEMA))

    def test_cone_box_rule(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out", audits={"cones": {"top_time": 1.5}})
        code = main(["cones", str(write_cfg(tmp_path, cfg))])
        assert code == 2
        assert "box_length" in capsys.readouterr().err


class TestSimulate:
    def test_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out)
        assert main(["simulate", str(write_cfg(tmp_path, cfg))]) == 0
        manifest = json.loads((out / "MANIFEST.json").read_text())
        assert manifest["status"] == "complete"
        assert (out / "sup_norm.csv").exists()
        assert (out / "energy.csv").exists()
        assert (out / "config.json").exists()
        sidecar = json.loads((out / "sup_norm.csv.json").read_text())
        assert sidecar["config"]["physics"]["p"] == 2.0

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            cfg = base_config(out)
            assert main(["simulate", str(write_cfg(tmp_path, cfg, f"{out.name}.json"))]) == 0
        for name in ("sup_norm.csv", "energy.csv", "l2_norm.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_zero_data_all_zero_series(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, data={"kind": "constant", "params": {"A": 0.0}})
        assert main(["simulate", str(write_cfg(tmp_path, cfg))]) == 0
        rows = (out / "sup_norm.csv").read_text().strip().splitlines()[1:]
        assert all(float(row.split(",")[1]) == 0.0 for row in rows)


class TestFit:
    def test_fit_on_stored_trajectory(self, tmp_path):
        out = tmp_path / "sim"
        cfg = base_config(out, data={"kind": "constant", "params": {"A": 1.0}},
                          solver={"dt_init": 5e-3, "t_max": 5.0, "adapt_theta": 1.0,
                                  "snapshot_stride": 5})
        assert main(["simulate", str(write_cfg(tmp_path, cfg, "sim.json"))]) == 0
        fit_out = tmp_path / "fit"
        fit_cfg = base_config(fit_out)
        code = main(["fit", str(write_cfg(tmp_path, fit_cfg, "fit.json")),
                     "--trajectory", str(out / "trajectory")])
        assert code == 0
        report = json.loads((fit_out / "blowup_report.json").read_text())
        assert report["detected"] is True
        assert abs(report["t_star"] - 1.854) < 0.05


class TestAuditTensors:
    def test_report_structure(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, solver={"dt_init": 5e-3, "t_max": 0.4,
                                       "adapt_theta": None, "snapshot_stride": 4},
                          audits={"tensors": {"levels": 2}})
        assert main(["audit-tensors", str(write_cfg(tmp_path, cfg))]) == 0
        report = json.loads((out / "tensor_audit.json").read_text())
        kinds = {entry["kind"] for entry in report["tensors"]}
        assert kinds == {"energy", "dilation", "mod_dilation", "charge",
                         "conf_energy", "combined"}
        for entry in report["tensors"]:
            assert len(entry["refinement_orders"]) == 1
        assert report["slab_identities"][0]["gap"] < 1e-2


class TestConesCommand:
    def test_series_files(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, grid={"d": 2, "n": 32, "box_length": 16.0},
                          physics={"m": 0.0, "p": 4.0},
                          data={"kind": "gaussian", "params": {"A": 0.5, "w": 0.5}},
                          solver={"dt_init": 5e-3, "t_max": 1.0, "adapt_theta": None,
                                  "snapshot_stride": 10},
                          audits={"cones": {"top_time": 1.1}})
        assert main(["cones", str(write_cfg(tmp_path, cfg))]) == 0
        assert (out / "L_functional.csv").exists()
        assert (out / "mass_half_cone.csv").exists()
        flux = json.loads((out / "flux_identity.json").read_text())
        assert "gap" in flux["flux"]


class TestDecompose:
    def test_synthetic_archive(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, grid={"d": 2, "n": 128, "box_length": 16.0},
                          physics={"m": 0.0, "p": 4.0},
                          audits={"profiles": {
                              "synthetic": {"n_members": 3,
                                            "bubbles": [{"amplitude": 1.0, "width": 2.5}],
                                            "separation_base": 0},
                              "j_max": 2, "tol": 0.05}})
        assert main(["decompose", str(write_cfg(tmp_path, cfg))]) == 0
        manifest = json.loads((out / "decomposition" / "manifest.json").read_text())
        assert manifest["n_bubbles"] >= 1
        assert (out / "decomposition" / "profile0.snap").exists()

    @pytest.mark.parametrize("grid, p, m", [
        pytest.param({"d": 2, "n": 64, "box_length": 8.0}, 2.0, 0.0, id="grid0-2.0"),
        pytest.param({"d": 2, "n": 32, "box_length": 16.0}, 2.0, 0.0, id="grid1-2.0"),
        pytest.param({"d": 2, "n": 32, "box_length": 8.0}, 3.0, 0.0, id="grid2-3.0"),
        pytest.param({"d": 2, "n": 32, "box_length": 8.0}, 2.0, 0.5, id="m0.5"),
    ])
    def test_snapshot_family_off_the_config_is_named(self, tmp_path, capsys, grid, p, m):
        from nlkg.grid import Field, GridSpec
        from nlkg.snapshots import write_field_snapshot

        good, bad = tmp_path / "good.snap", tmp_path / "bad.snap"
        for path, g, q, mass in ((good, GridSpec(2, 32, 8.0), 2.0, 0.0),
                                 (bad, GridSpec(**grid), p, m)):
            write_field_snapshot(path, Field(g, np.ones(g.shape)), 0.0, mass, q)
        out = tmp_path / "out"
        cfg = base_config(out, audits={"profiles": {"snapshots": [str(good), str(bad), str(bad)]}})
        assert main(["decompose", str(write_cfg(tmp_path, cfg))]) == 2
        err = capsys.readouterr().err
        assert f"snapshot {bad} holds" in err and "good.snap" not in err
        assert not (out / "decomposition").exists()


    def test_synthetic_family_leaves_distance_cache_alone(self, tmp_path):
        # one distance table per planted bubble would otherwise stay cached
        cfg = ScenarioConfig(base_config(tmp_path / "out",
                                         grid={"d": 2, "n": 64, "box_length": 16.0}))
        grid_mod._distance_table.cache_clear()
        fam = _synthetic_family(cfg, {"n_members": 2, "separation_base": 8,
                                      "bubbles": [{"amplitude": 1.0, "width": 2.5},
                                                  {"amplitude": 0.5, "width": 2.0}]})
        assert fam.n_count == 2
        assert grid_mod._distance_table.cache_info().currsize == 0


class TestModule:
    def test_star_import_names_exist(self):
        namespace = {}
        exec("from nlkg.cli import *", namespace)
        assert callable(namespace["run"])


class TestSweep:
    def test_regime_tagged_cases(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NLKG_WORKERS", "1")
        out = tmp_path / "sweep"
        cfg = base_config(out, grid={"d": 3, "n": 8, "box_length": 4.0},
                          solver={"dt_init": 5e-3, "t_max": 0.02,
                                  "adapt_theta": None, "snapshot_stride": 1})
        cfg["sweep"] = [{"physics": {"p": 1.8}}, {"physics": {"p": 2.0}},
                        {"physics": {"p": 2.2}}]
        assert main(["sweep", str(write_cfg(tmp_path, cfg))]) == 0
        report = json.loads((out / "sweep_report.json").read_text())
        regimes = [case["regime"] for case in report["cases"]]
        assert regimes == ["sub_conformal", "conformal", "super_conformal"]
        for i in range(3):
            assert (out / f"case{i:03d}" / "MANIFEST.json").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failed_case_is_reported_and_others_finish(self, tmp_path, monkeypatch, workers):
        monkeypatch.setenv("NLKG_WORKERS", workers)
        out = tmp_path / "sweep"
        cfg = base_config(out, grid={"d": 1, "n": 32, "box_length": 8.0},
                          solver={"dt_init": 5e-3, "t_max": 0.02, "adapt_theta": None,
                                  "snapshot_stride": 1})
        cfg["sweep"] = [{}, {"data": {"params": {"A": 0.4, "w": 5.0}}}, {}]
        assert main(["sweep", str(write_cfg(tmp_path, cfg))]) == 2
        cases = json.loads((out / "sweep_report.json").read_text())["cases"]
        assert [c["index"] for c in cases] == [0, 1, 2]
        assert [c["exit"] for c in cases] == [0, 2, 0]
        assert cases[0]["error"] is None and cases[2]["error"] is None
        assert "gaussian width" in cases[1]["error"]
        assert {c["regime"] for c in cases} == {"sub_conformal"}
        status = [json.loads((out / f"case{i:03d}" / "MANIFEST.json").read_text())["status"]
                  for i in range(3)]
        assert status == ["complete", "failed", "complete"]

    @pytest.mark.parametrize("key,over", [
        ("output", {"output": "here"}),
        ("sweep[0].output", {"sweep": [{"output": "here"}]}),
        ("sweep[0]", {"sweep": [5]}),
        ("sweep", {"sweep": "abc"}),
    ])
    def test_bad_sweep_input_fails_before_any_output(self, tmp_path, monkeypatch, capsys,
                                                     key, over):
        # each used to end in an AttributeError traceback (exit 1)
        monkeypatch.chdir(tmp_path)
        cfg = base_config("sweep", **over)
        cfg.setdefault("sweep", [{}])
        assert main(["sweep", str(write_cfg(tmp_path, cfg))]) == 2
        assert f"{key} = " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("workers", ["two", "0"])
    def test_bad_worker_count_fails_before_any_case(self, tmp_path, monkeypatch, capsys,
                                                    workers):
        # "two" used to be a ValueError traceback, "0" to run serially
        monkeypatch.setenv("NLKG_WORKERS", workers)
        out = tmp_path / "sweep"
        cfg = base_config(out)
        cfg["sweep"] = [{}, {}]
        assert main(["sweep", str(write_cfg(tmp_path, cfg))]) == 2
        assert "NLKG_WORKERS = " in capsys.readouterr().err
        assert not out.exists()
