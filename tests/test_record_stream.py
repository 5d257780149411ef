"""The evolve record hook and the audits it feeds: the streamed reducers give
the stored-trajectory results exactly, `nlkg cones` holds no trajectory, and
neither `import nlkg` nor a run of any pipeline subcommand loads scipy."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nlkg.blowup import MassDiagnostics, mass_diagnostics
from nlkg.cli import main
from nlkg.cones import ConeAudit, ConeSpec, cone_audit
from nlkg.grid import GridSpec
from nlkg.solver import SolverConfig, evolve, initial_data

ROOT = Path(__file__).resolve().parents[1]

# (grid, p, data, cone, functional): L at the conformal d = 2, p = 4 and Z at
# the sub-conformal d = 3, p = 1.8; each run outlives its cone
STREAM_CASES = {
    "L_2d": (GridSpec(2, 32, 8.0), 4.0, {"A": 0.8, "w": 0.6}, ConeSpec((4.0, 4.0), 0.5), "L"),
    "Z_3d": (GridSpec(3, 16, 8.0), 1.8, {"A": 0.8, "w": 0.8},
             ConeSpec((4.0, 4.0, 4.0), 0.5), "Z"),
}
T_FLOOR = 0.05
CONFIG = SolverConfig(dt_init=1e-2, t_max=0.6, adapt_theta=None, snapshot_stride=4)


def assert_series_equal(a, b):
    assert (a.name, a.regime, a.metadata) == (b.name, b.regime, b.metadata)
    assert np.array_equal(a.times, b.times) and np.array_equal(a.values, b.values)


@pytest.fixture(scope="module", params=list(STREAM_CASES))
def stream_case(request):
    g, p, data, cone, which = STREAM_CASES[request.param]
    st = initial_data(g, "gaussian", m=0.5, p=p, **data)
    return st, cone, which, evolve(st, CONFIG)


class TestRecordHook:
    def test_hook_sees_every_record_and_keeps_only_the_last(self, stream_case):
        st, _, _, stored = stream_case
        seen = []
        streamed = evolve(st, CONFIG, on_record=seen.append)
        assert [s.time for s in seen] == list(stored.times)
        for a, b in zip(seen, stored.snapshots):
            assert np.array_equal(a.u.values, b.u.values)
            assert np.array_equal(a.v.values, b.v.values)
        assert len(streamed.snapshots) == 1 and streamed.snapshots[0] is seen[-1]
        assert streamed.termination == stored.termination
        t, v = streamed.series("sup_norm")
        assert np.array_equal(t, stored.times) and np.array_equal(v, stored.series("sup_norm")[1])

    def test_hook_exception_propagates(self, stream_case):
        st = stream_case[0]

        class Stop(Exception):
            pass

        def hook(state):
            if state.time > 0.1:
                raise Stop(state.time)

        with pytest.raises(Stop):
            evolve(st, CONFIG, on_record=hook)

    def test_streamed_cone_audit_equals_stored(self, stream_case):
        st, cone, which, stored = stream_case
        audit = ConeAudit(cone, which, T_FLOOR, CONFIG.nonlinearity)
        evolve(st, CONFIG, on_record=audit.add)
        series, monitors, flux = audit.finish()
        ref_series, ref_monitors, ref_flux = cone_audit(stored, cone, which, T_FLOOR)
        assert_series_equal(series, ref_series)
        assert list(monitors) == list(ref_monitors)
        for name in ref_monitors:
            assert_series_equal(monitors[name], ref_monitors[name])
        assert flux == ref_flux and len(flux) == 5

    def test_streamed_mass_diagnostics_equal_stored(self, stream_case):
        st, _, _, stored = stream_case
        mass = MassDiagnostics(CONFIG.nonlinearity)
        evolve(st, CONFIG, on_record=mass.add)
        got, ref = mass.finish(), mass_diagnostics(stored)
        for name in ("times", "M", "M_prime", "M_dprime"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert got.extra["p"] == ref.extra["p"]
        for name in ("energy", "grad_sq"):
            assert np.array_equal(got.extra[name], ref.extra[name]), name


def cones_peak_bytes(tmp_path, t_max: float, tag: str) -> int:
    """Peak traced memory of one `nlkg cones` run of length t_max."""
    cfg = {"grid": {"d": 2, "n": 64, "box_length": 8.0}, "physics": {"m": 0.0, "p": 4.0},
           "data": {"kind": "gaussian", "params": {"A": 0.8, "w": 0.6}},
           "solver": {"dt_init": 5e-3, "t_max": t_max, "adapt_theta": None},
           "output": {"directory": str(tmp_path / tag)}, "audits": {"cones": {"top_time": 1.0}}}
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(cfg))
    tracemalloc.start()
    try:
        assert main(["cones", str(path)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cones_peak_memory_does_not_grow_with_run_length(tmp_path):
    # a warm-up run fills the per-grid and per-dt tables first; then doubling
    # the run (50 more recorded states) may not add a state's worth of memory
    cones_peak_bytes(tmp_path, 0.1, "warm")
    short = cones_peak_bytes(tmp_path, 0.25, "short")
    long = cones_peak_bytes(tmp_path, 0.5, "long")
    one_state = 2 * 64**2 * 8
    assert long - short <= one_state, (short, long)


RUN_PATH_CONFIG = {
    "grid": {"d": 2, "n": 16, "box_length": 8.0}, "physics": {"m": 0.0, "p": 2.0},
    "data": {"kind": "gaussian", "params": {"A": 0.4, "w": 0.8}},
    "solver": {"dt_init": 1e-2, "t_max": 0.1, "adapt_theta": None, "snapshot_stride": 2},
    "audits": {"cones": {"top_time": 0.05},
               "profiles": {"j_max": 1, "synthetic": {
                   "n_members": 2, "separation_base": 4,
                   "bubbles": [{"width": 1.5, "amplitude": 1.0}]}}},
}


def test_run_path_loads_no_scipy(tmp_path):
    # import nlkg, then one tiny run of each pipeline subcommand, all in one
    # fresh interpreter: no scipy module may be loaded at the end
    argvs = []
    for command in ("simulate", "cones", "fit", "decompose"):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(dict(RUN_PATH_CONFIG,
                                        output={"directory": str(tmp_path / command)})))
        argvs.append([command, str(path)])
    argvs[2] += ["--trajectory", str(tmp_path / "simulate" / "trajectory")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    code = ("import json, sys, nlkg; from nlkg.cli import main; "
            f"codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))")
    done = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    codes, loaded = json.loads(done.stdout.strip().splitlines()[-1])
    assert codes == [0, 0, 0, 0], done.stderr
    assert loaded == []
