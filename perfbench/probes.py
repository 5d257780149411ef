"""Layer probes for the traced run, installed from outside the program.

A Tracer replaces every module attribute that binds a public function of
an nlkg layer (every binding: ``nlkg.cli.evolve`` and ``nlkg.solver.evolve``
are the same function and both are wrapped) with a wrapper that records a
span (name, start, end, parent) and counts calls and exceptions.  The n-d
entry points of ``numpy.fft`` and ``scipy.fft`` are wrapped for counts
only, so the transform counts stay valid when the program switches
between the two.  ``uninstall`` restores every binding.

``micro`` times single public functions directly on a workload's own grid
and state.  Untraced trials import nothing from here.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import os
import sys
import time
from collections import Counter

LAYERS = ("grid", "norms", "solver", "conslaws", "cones", "blowup", "profiles", "snapshots", "cli")
FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2")

SNAP_WRITERS = {"snapshots.write_trajectory", "snapshots.write_state_checkpoint",
                "snapshots.write_field_snapshot"}
SNAP_READERS = {"snapshots.read_trajectory", "snapshots.read_state_checkpoint",
                "snapshots.read_field_snapshot"}
FILE_WRITERS = {"snapshots.write_field_snapshot", "snapshots.write_json",
                "snapshots.write_series_csv"}

MIB = 1024.0 * 1024.0

# Units of the metrics a traced trial measures (the parent adds
# cli.import_s and trace.overhead_ratio).
SPAN_UNITS = {
    "grid.fft_calls": "count", "grid.fft_points": "count",
    "grid.gradient_calls": "count", "grid.gradients_per_snapshot": "1",
    "solver.evolve_s": "s", "solver.initial_data_s": "s",
    "solver.snapshots": "count", "solver.snapshot_mb": "MiB",
    "norms.energy_calls": "count", "norms.energy_s": "s",
    "conslaws.density_calls": "count", "conslaws.density_s": "s",
    "cones.lyapunov_s": "s", "cones.monitor_s": "s", "cones.flux_s": "s",
    "blowup.mass_s": "s", "blowup.fit_s": "s",
    "profiles.decompose_s": "s", "profiles.extract_calls": "count",
    "profiles.extract_s": "s", "profiles.audit_s": "s",
    "snapshots.write_s": "s", "snapshots.read_s": "s",
    "snapshots.write_mb": "MiB", "snapshots.read_mb": "MiB",
    "snapshots.files_written": "count", "snapshots.csv_s": "s",
    "cli.self_s": "s",
}
SPAN_UNITS.update({f"{layer}.errors": "count" for layer in LAYERS})

MICRO_UNITS = {name: "ms" for name in (
    "grid.forward_ms", "grid.inverse_ms", "grid.gradient_ms", "grid.lp_project_ms",
    "solver.step_ms", "solver.step_varying_dt_ms", "solver.linear_ms", "solver.kick_ms",
    "norms.energy_ms", "conslaws.density_ms", "blowup.mass_ms")}


def _path_arg(args, kwargs):
    return kwargs.get("path", args[0] if args else None)


class Tracer:
    """Spans and boundary counts of one traced trial, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (id, parent id, name, start, end), perf_counter seconds
        self._stack = []
        self._ids = itertools.count()
        self.errors = Counter()
        self.fft_calls = 0
        self.fft_points = 0
        self.snapshots = 0
        self.snapshot_bytes = 0
        self.write_bytes = 0
        self.read_bytes = 0
        self.last_trajectory = None
        self._patched = []

    # ------------------------------------------------------------ wrappers

    def _observe(self, name, args, kwargs, result) -> None:
        if name == "solver.evolve":
            self.snapshots += len(result.snapshots)
            self.snapshot_bytes += sum(s.u.values.nbytes + s.v.values.nbytes
                                       for s in result.snapshots)
            self.last_trajectory = result
        elif name == "snapshots.read_trajectory":
            self.last_trajectory = result
        elif name == "snapshots.write_field_snapshot":
            self.write_bytes += os.path.getsize(_path_arg(args, kwargs))
        elif name == "snapshots.read_field_snapshot":
            self.read_bytes += os.path.getsize(_path_arg(args, kwargs))

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(tracer._ids)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, start, end))
            tracer._observe(name, args, kwargs, result)
            return result

        return traced

    def _wrap_fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(x, *args, **kwargs):
            result = fn(x, *args, **kwargs)
            tracer.fft_calls += 1
            # points of the real-space transform: the larger side covers
            # both real-to-half-spectrum and complex transforms
            tracer.fft_points += max(getattr(x, "size", 0), result.size)
            return result

        return counted

    def install(self) -> None:
        import numpy.fft
        import scipy.fft

        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"nlkg.{layer}")
            for key, obj in vars(mod).items():
                if key.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = self._wrap(obj, f"{layer}.{key}", layer)
        fft_modules = (numpy.fft, scipy.fft)
        for mod in fft_modules:
            for key in FFT_NAMES:
                obj = getattr(mod, key, None)
                if obj is not None and id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap_fft(obj)
        namespaces = [vars(m) for k, m in list(sys.modules.items())
                      if m is not None and (k == "nlkg" or k.startswith("nlkg."))]
        namespaces += [vars(m) for m in fft_modules]
        for ns in namespaces:
            for key, obj in list(ns.items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((ns, key, obj))
                    ns[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, obj in reversed(self._patched):
            ns[key] = obj
        self._patched.clear()

    # ------------------------------------------------------------ metrics

    def metrics(self) -> dict:
        """Per-layer numbers of this trial, from its spans and counts."""
        spans = self.spans
        by_id = {s[0]: s for s in spans}
        calls = Counter(s[2] for s in spans)

        def outer_s(names) -> float:
            """Time in `names`, not counting a call nested in another of them."""
            total = 0.0
            for sid, parent, name, start, end in spans:
                if name not in names:
                    continue
                while parent is not None and by_id[parent][2] not in names:
                    parent = by_id[parent][1]
                if parent is None:
                    total += end - start
            return total

        child_s = Counter()
        for sid, parent, name, start, end in spans:
            if parent is not None:
                child_s[parent] += end - start
        cli_self = sum(end - start - child_s[sid]
                       for sid, parent, name, start, end in spans if name.startswith("cli."))

        snaps = self.snapshots
        out = {
            "grid.fft_calls": self.fft_calls,
            "grid.fft_points": self.fft_points,
            "grid.gradient_calls": calls["grid.spectral_gradient"],
            "grid.gradients_per_snapshot": calls["grid.spectral_gradient"] / snaps if snaps else 0.0,
            "solver.evolve_s": outer_s({"solver.evolve"}),
            "solver.initial_data_s": outer_s({"solver.initial_data"}),
            "solver.snapshots": snaps,
            "solver.snapshot_mb": self.snapshot_bytes / MIB,
            "norms.energy_calls": calls["norms.energy"],
            "norms.energy_s": outer_s({"norms.energy"}),
            "conslaws.density_calls": calls["conslaws.tensor_density"],
            "conslaws.density_s": outer_s({"conslaws.tensor_density"}),
            "cones.lyapunov_s": outer_s({"cones.lyapunov_series"}),
            "cones.monitor_s": outer_s({"cones.cone_monitor"}),
            "cones.flux_s": outer_s({"cones.energy_flux_check"}),
            "blowup.mass_s": outer_s({"blowup.mass_diagnostics"}),
            "blowup.fit_s": outer_s({"blowup.detect_and_fit", "blowup.concavity_check"}),
            "profiles.decompose_s": outer_s({"profiles.bubble_decompose"}),
            "profiles.extract_calls": calls["profiles.inverse_gn_extract"],
            "profiles.extract_s": outer_s({"profiles.inverse_gn_extract"}),
            "profiles.audit_s": outer_s({"profiles.decoupling_audit"}),
            "snapshots.write_s": outer_s(SNAP_WRITERS),
            "snapshots.read_s": outer_s(SNAP_READERS),
            "snapshots.write_mb": self.write_bytes / MIB,
            "snapshots.read_mb": self.read_bytes / MIB,
            "snapshots.files_written": sum(calls[n] for n in FILE_WRITERS),
            "snapshots.csv_s": outer_s({"snapshots.write_series_csv"}),
            "cli.self_s": cli_self,
        }
        out.update({f"{layer}.errors": self.errors[layer] for layer in LAYERS})
        return out

    def span_records(self) -> list:
        return [{"run": self.run_id, "id": sid, "parent": parent, "name": name,
                 "start": start, "end": end} for sid, parent, name, start, end in self.spans]


# ---------------------------------------------------------------- micro-timings

def summarize(samples) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": median(xs), "n": n, "pct": None, "pct_value": None}
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)
        if rank >= 1 and n - rank >= 10:
            out["pct"], out["pct_value"] = q, xs[rank - 1]
            break
    return out


def median(xs) -> float:
    xs = sorted(xs)
    n = len(xs)
    return xs[n // 2] if n % 2 else 0.5 * (xs[n // 2 - 1] + xs[n // 2])


def micro(state, min_samples: int = 30, max_samples: int = 200, budget_s: float = 0.5) -> dict:
    """Time each public kernel directly on `state` (its grid, its fields).

    Each function is called once untimed (lazy tables fill), then timed
    until it has min_samples samples and budget_s seconds, or max_samples.
    """
    import nlkg.blowup as blowup
    import nlkg.conslaws as conslaws
    import nlkg.grid as grid
    import nlkg.norms as norms
    import nlkg.solver as solver

    g = state.grid
    u = state.u
    F = grid.forward_transform(u)
    dyadic = grid.dyadic_range(g)
    N = float(dyadic[len(dyadic) // 2])
    apex = tuple([0.5 * g.box_length] * g.d)
    # the density of the workload's cone functional: Z (combined) when
    # sub-conformal, L (modified dilation) otherwise
    if norms.critical_exponent(g.d, state.exponent).regime == "sub_conformal":
        kind = conslaws.tensor_kind("combined", state)
    else:
        kind = conslaws.TensorKind("mod_dilation")
    dt = 1e-4
    fresh = itertools.count(1)
    single = solver.Trajectory(snapshots=[state], termination="reached_t_max", scalar_series={})
    cases = {
        "grid.forward_ms": lambda: grid.forward_transform(u),
        "grid.inverse_ms": lambda: grid.inverse_transform(F),
        "grid.gradient_ms": lambda: grid.spectral_gradient(u),
        "grid.lp_project_ms": lambda: grid.lp_project(u, N, "band"),
        "solver.step_ms": lambda: solver.strang_step(state, dt),
        # a new dt on every call, as adaptive stepping does
        "solver.step_varying_dt_ms": lambda: solver.strang_step(state, dt * (1.0 + 1e-9 * next(fresh))),
        "solver.linear_ms": lambda: solver.linear_propagator(state, dt),
        "solver.kick_ms": lambda: solver.nonlinear_kick(state, dt),
        "norms.energy_ms": lambda: norms.energy(state),
        "conslaws.density_ms": lambda: conslaws.tensor_density(state, kind, apex),
        "blowup.mass_ms": lambda: blowup.mass_diagnostics(single),
    }
    out = {}
    for name, fn in cases.items():
        fn()
        samples = []
        t_end = time.perf_counter() + budget_s
        while len(samples) < max_samples and (len(samples) < min_samples or time.perf_counter() < t_end):
            t0 = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - t0) * 1e3)
        out[name] = dict(summarize(samples), samples=samples)
    return out
