"""The evolve record hook and the audits it feeds: the streamed reducers give
the stored-trajectory results exactly, `nlkg cones`, `nlkg simulate`,
`nlkg fit --trajectory` and `nlkg audit-tensors` hold no trajectory, the
store reads back lazily what the run recorded, every fold over it equals
the fold over the run in RAM and reads only the states it uses, and neither
`import nlkg` nor a run of any pipeline subcommand loads scipy or the
process pool."""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nlkg.cli
from nlkg.blowup import (MassDiagnostics, blowup_surface_estimate, concavity_check,
                         critical_norm_series, detect_and_fit, lower_bound_check,
                         mass_diagnostics, truncated_mass)
from nlkg.cli import ScenarioConfig, main
from nlkg.cones import (ConeAudit, ConeSpec, averaged_gradient_bound, cone_audit,
                        energy_flux_check, lyapunov_series)
from nlkg.conslaws import charge_slab_identity
from nlkg.errors import CorruptionError
from nlkg.grid import GridSpec
from nlkg.snapshots import StoredStates, read_trajectory, write_series_csv, write_trajectory
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
        audit = ConeAudit(cone, st.exponent, which, T_FLOOR, CONFIG.nonlinearity)
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


def assert_bit_equal(a, b):
    """a and b are the same nested result, every number and array bit for bit."""
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_bit_equal(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for k in a:
            assert_bit_equal(a[k], b[k])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_bit_equal(x, y)
    elif isinstance(a, (np.ndarray, float)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    else:
        assert a == b


# the windows of the windowed folds: states 2..6 of the 16 a stream case
# records, and [0.2, 0.4] for the averaged gradient bound (t_hi = 2 t0 when
# sub-conformal, (1 + alpha) t0 with alpha = 1 otherwise)
WINDOW = (2, 6)
AVERAGED_T0 = 0.2

# each fold a stored run is read through: (trajectory, cone, functional) -> result
FOLDS = {
    "mass_diagnostics": lambda traj, cone, which: mass_diagnostics(traj),
    "critical_norm_series": lambda traj, cone, which: critical_norm_series(traj),
    "lower_bound_check": lambda traj, cone, which: lower_bound_check(traj, 1.5, cone.vertex),
    "cone_audit": lambda traj, cone, which: cone_audit(traj, cone, which, T_FLOOR),
    "lyapunov_series": lambda traj, cone, which: lyapunov_series(traj, cone, which, T_FLOOR),
    "energy_flux_check": lambda traj, cone, which: energy_flux_check(
        traj, cone, *traj.times[list(WINDOW)]),
    "averaged_gradient_bound": lambda traj, cone, which: averaged_gradient_bound(
        traj, cone, AVERAGED_T0),
    "charge_slab_identity": lambda traj, cone, which: charge_slab_identity(
        traj, *traj.times[list(WINDOW)]),
    "truncated_mass": lambda traj, cone, which: truncated_mass(traj, 0.5),
    "blowup_surface_estimate": lambda traj, cone, which: blowup_surface_estimate(traj, 0.5),
    "detect_and_fit": lambda traj, cone, which: detect_and_fit(traj, k_fit=5),
}


@pytest.mark.parametrize("fold", list(FOLDS))
def test_fold_over_the_store_equals_the_fold_in_ram(stream_case, tmp_path, fold):
    _, cone, which, in_ram = stream_case
    write_trajectory(tmp_path, in_ram)
    stored = read_trajectory(tmp_path)
    assert isinstance(stored.snapshots, StoredStates)
    got, want = FOLDS[fold](stored, cone, which), FOLDS[fold](in_ram, cone, which)
    assert_bit_equal(got, want)
    if fold == "lower_bound_check":
        assert len(want.times) > 3


def test_folds_read_only_the_states_they_use(stream_case, tmp_path, monkeypatch):
    # every state index a fold reads from the store, in order: a windowed fold
    # reads its window's states once each, picked from the times; the T* fit
    # reads the sup-norm series alone
    _, cone, which, in_ram = stream_case
    write_trajectory(tmp_path, in_ram)
    stored = read_trajectory(tmp_path)
    reads, read = [], StoredStates.__getitem__
    monkeypatch.setattr(StoredStates, "__getitem__",
                        lambda states, k: reads.append(int(k)) or read(states, k))
    t, g = stored.times, stored.grid
    t0, t1 = t[list(WINDOW)]
    t_star = g.max_fit_radius + t[5]  # the ball of the first five states is too large
    t_hi = 2.0 * AVERAGED_T0
    windows = {
        "lyapunov_series": (t > T_FLOOR) & (t <= cone.top_time),
        "cone_audit": (t > 0.0) & (t <= cone.top_time),
        "energy_flux_check": (t >= t0) & (t <= t1),
        "averaged_gradient_bound": (t >= AVERAGED_T0 - 1e-12) & (t <= t_hi + 1e-12),
        "charge_slab_identity": (t >= t0) & (t <= t1),
        "lower_bound_check": (t_star - t > 2.0 * g.spacing) & (t_star - t <= g.max_fit_radius),
        "detect_and_fit": np.zeros(len(t), dtype=bool),
    }
    for fold, window in windows.items():
        reads.clear()
        if fold == "lower_bound_check":
            lower_bound_check(stored, t_star, cone.vertex)
        else:
            FOLDS[fold](stored, cone, which)
        assert reads == np.flatnonzero(window).tolist(), fold
        assert fold == "detect_and_fit" or 0 < len(reads) < len(t) - 3, fold


def test_trajectory_times_are_read_only_and_follow_its_states(stream_case, tmp_path):
    _, _, _, in_ram = stream_case
    write_trajectory(tmp_path, in_ram)
    stored = read_trajectory(tmp_path)
    for traj in (in_ram, stored):
        with pytest.raises(ValueError, match="read-only"):
            traj.times[0] = 1.0
        shorter = dataclasses.replace(traj, snapshots=traj.snapshots[1:4])
        assert np.array_equal(shorter.times, traj.times[1:4])
        head = in_ram.snapshots[0]
        for t in (traj, shorter):
            assert (t.grid, t.mass_param, t.exponent) == (head.grid, 0.5, head.exponent)
    assert np.array_equal(stored.times, in_ram.times)


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


def tensors_peak_bytes(tmp_path, t_max: float, tag: str) -> tuple:
    """Peak traced memory of one `nlkg audit-tensors` run of length t_max
    (two levels, n = 32 and 64), and its exit code."""
    cfg = {"grid": {"d": 2, "n": 32, "box_length": 8.0}, "physics": {"m": 0.0, "p": 4.0},
           "data": {"kind": "gaussian", "params": {"A": 0.8, "w": 0.6}},
           "solver": {"dt_init": 5e-3, "t_max": t_max, "adapt_theta": None,
                      "snapshot_stride": 2},
           "audits": {"tensors": {"levels": 2}}}
    path = write_config(tmp_path, tag, cfg, tmp_path / tag)
    tracemalloc.start()
    try:
        code = main(["audit-tensors", path])
        return tracemalloc.get_traced_memory()[1], code
    finally:
        tracemalloc.stop()


def test_audit_tensors_peak_memory_does_not_grow_with_run_length(tmp_path):
    # each level's run goes through a store in a work directory under the
    # output directory, read back a state at a time, and the directory is gone
    # when the command ends, whether it completes or fails
    tensors_peak_bytes(tmp_path, 0.1, "warm")
    short, _ = tensors_peak_bytes(tmp_path, 0.2, "short")
    long, _ = tensors_peak_bytes(tmp_path, 0.8, "long")
    one_state = 2 * 64**2 * 8
    assert long - short <= one_state, (short, long)
    assert tensors_peak_bytes(tmp_path, 0.01, "failed")[1] == 2  # fewer than 3 states
    for tag in ("short", "long", "failed"):
        assert sorted(p.name for p in (tmp_path / tag).iterdir()) == sorted(
            ["MANIFEST.json", "config.json"] + (["tensor_audit.json"] if tag != "failed" else []))


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
    # fresh interpreter: no scipy module may be loaded at the end, nor the
    # process pool that only `nlkg sweep` uses
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
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("
            "('scipy', 'multiprocessing', 'concurrent.futures.process')))]))")
    done = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    codes, loaded = json.loads(done.stdout.strip().splitlines()[-1])
    assert codes == [0, 0, 0, 0], done.stderr
    assert loaded == []


# the C07 scenario at n = 32 (perfbench's refit2d at smoke size): a blowup
# run whose store `nlkg fit --trajectory` reads back
STORE_CONFIG = {
    "grid": {"d": 2, "n": 32, "box_length": 8.0}, "physics": {"m": 0.0, "p": 2.0},
    "data": {"kind": "negative_energy", "params": {"A": 1.0, "w": 0.6}},
    "solver": {"dt_init": 1e-3, "t_max": 8.0, "adapt_theta": 0.5, "blowup_threshold": 8.0,
               "snapshot_stride": 10},
}


def write_config(tmp_path, name, cfg, out):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict(cfg, output={"directory": str(out)})))
    return str(path)


@pytest.fixture(scope="module")
def stored_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("stored")
    assert main(["simulate", write_config(tmp, "sim", STORE_CONFIG, tmp / "sim")]) == 0
    return tmp, tmp / "sim" / "trajectory"


class TestTrajectoryStore:
    def test_streamed_states_equal_the_whole_store_and_the_run(self, stored_run):
        _, store = stored_run
        back = read_trajectory(store)
        cfg = ScenarioConfig(STORE_CONFIG)
        fresh = evolve(cfg.initial_state(), cfg.solver)
        assert fresh.termination == "blowup_detected" and len(fresh.snapshots) > 20
        assert isinstance(back.snapshots, StoredStates)
        assert np.array_equal(back.times, fresh.times)
        assert len(back.snapshots) == len(fresh.snapshots)
        for a, b in zip(back.snapshots, fresh.snapshots):  # read one state at a time
            assert (a.time, a.mass_param, a.exponent) == (b.time, b.mass_param, b.exponent)
            assert a.u.values.tobytes() == b.u.values.tobytes()
            assert a.v.values.tobytes() == b.v.values.tobytes()
        assert back.termination == fresh.termination
        for name in fresh.scalar_series:
            assert all(np.array_equal(a, b) for a, b in zip(back.series(name),
                                                              fresh.series(name))), name

    def test_manifest_counts_the_stored_states(self, stored_run):
        tmp, store = stored_run
        manifest = json.loads((tmp / "sim" / "MANIFEST.json").read_text())
        meta = json.loads((store / "meta.json").read_text())
        assert manifest["snapshots"] == meta["count"] == len(read_trajectory(store).snapshots)
        assert sorted(p.name for p in store.iterdir()) == ["meta.json", "states.bin"]

    def test_fit_folds_with_the_stored_coefficient(self, stored_run):
        # the fit config's own nonlinearity differs from the stored run's: the
        # mass series and report are those of mass_diagnostics on the whole store
        tmp, store = stored_run
        fit_cfg = dict(STORE_CONFIG, solver={**STORE_CONFIG["solver"], "nonlinearity": 0.5})
        path = write_config(tmp, "fit", fit_cfg, tmp / "fit")
        assert main(["fit", path, "--trajectory", str(store)]) == 0
        traj = read_trajectory(store)
        mass = mass_diagnostics(traj)
        assert traj.nl_coeff == 1.0
        assert not np.array_equal(mass_diagnostics(dataclasses.replace(traj, nl_coeff=0.5)).M_dprime,
                                  mass.M_dprime)
        write_series_csv(tmp / "want.csv", {"time": mass.times, "M": mass.M,
                                            "M_prime": mass.M_prime, "M_dprime": mass.M_dprime},
                         sidecar={"config": json.loads(Path(path).read_text())})
        for suffix in ("", ".json"):
            assert ((tmp / "fit" / f"mass_series.csv{suffix}").read_bytes()
                    == (tmp / f"want.csv{suffix}").read_bytes())
        report = json.loads((tmp / "fit" / "blowup_report.json").read_text())
        want = detect_and_fit(traj)
        assert report["detected"] is want.detected is True
        assert (report["t_star"], report["fit_residual"]) == (want.t_star, want.fit_residual)
        assert report["concavity"] == dataclasses.asdict(concavity_check(mass))

    @pytest.mark.parametrize("change", ["grid", "p", "m"])
    def test_fit_rejects_a_store_unlike_its_config(self, stored_run, capsys, change):
        # the store's grid, p and m come from its first frame header: a config
        # that differs is a validation failure naming the store, not a report
        tmp, store = stored_run
        physics, grid = STORE_CONFIG["physics"], STORE_CONFIG["grid"]
        unlike = {"grid": {"grid": {**grid, "n": 16}}, "p": {"physics": {**physics, "p": 3.0}},
                  "m": {"physics": {**physics, "m": 0.5}}}
        fit_cfg = dict(STORE_CONFIG, **unlike[change])
        out = tmp / f"unlike_{change}"
        assert main(["fit", write_config(tmp, f"unlike_{change}", fit_cfg, out),
                     "--trajectory", str(store)]) == 2
        assert f"stored trajectory {store} holds" in capsys.readouterr().err
        assert json.loads((out / "MANIFEST.json").read_text())["status"] == "failed"
        assert not (out / "blowup_report.json").exists()

    def test_failed_run_leaves_no_readable_store(self, tmp_path, monkeypatch):
        # a monitor fails part-way through a run over a complete older store
        path = write_config(tmp_path, "sim", STORE_CONFIG, tmp_path / "sim")
        assert main(["simulate", path]) == 0
        calls = itertools.count()
        real_energy = nlkg.cli.energy

        def failing_energy(state, nl):
            if next(calls) == 5:
                raise RuntimeError("monitor failed")
            return real_energy(state, nl)

        monkeypatch.setattr(nlkg.cli, "energy", failing_energy)
        with pytest.raises(RuntimeError, match="monitor failed"):
            main(["simulate", path])
        assert json.loads((tmp_path / "sim" / "MANIFEST.json").read_text())["status"] == "failed"
        with pytest.raises(CorruptionError, match="meta.json"):
            read_trajectory(tmp_path / "sim" / "trajectory")


def store_peak_bytes(tmp_path, t_max: float, tag: str) -> int:
    """Peak traced memory of `nlkg simulate` of length t_max, then `nlkg fit
    --trajectory` on its store, then the critical-norm and lower-bound folds
    over the store read back."""
    cfg = {"grid": {"d": 2, "n": 64, "box_length": 8.0}, "physics": {"m": 0.0, "p": 4.0},
           "data": {"kind": "gaussian", "params": {"A": 0.8, "w": 0.6}},
           "solver": {"dt_init": 5e-3, "t_max": t_max, "adapt_theta": None}}
    sim = write_config(tmp_path, f"{tag}_sim", cfg, tmp_path / tag / "sim")
    fit = write_config(tmp_path, f"{tag}_fit", cfg, tmp_path / tag / "fit")
    tracemalloc.start()
    try:
        assert main(["simulate", sim]) == 0
        assert main(["fit", fit, "--trajectory", str(tmp_path / tag / "sim" / "trajectory")]) == 0
        traj = read_trajectory(tmp_path / tag / "sim" / "trajectory")
        assert len(critical_norm_series(traj).values) == len(traj.snapshots)
        assert len(lower_bound_check(traj, t_max + 1.0, (4.0, 4.0)).values) == len(traj.snapshots)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stored_run_peak_memory_does_not_grow_with_run_length(tmp_path):
    # after a warm-up run, doubling the run (50 more stored states) may not
    # add a state's worth of memory to simulate, fit --trajectory and the
    # critical-norm and lower-bound folds over the stored run
    store_peak_bytes(tmp_path, 0.1, "warm")
    short = store_peak_bytes(tmp_path, 0.25, "short")
    long = store_peak_bytes(tmp_path, 0.5, "long")
    one_state = 2 * 64**2 * 8
    assert long - short <= one_state, (short, long)
