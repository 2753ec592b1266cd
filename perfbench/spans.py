"""In-memory span recorder and the outside-in wrapping of momtraj's layers.

Spans are recorded from the benchmark's own code: the public functions of
each momtraj module are replaced, in the namespace of every module that calls
them, by a wrapper that opens a span around the call. numpy's FFT entry
points are wrapped the same way. No file under ``src/`` is touched.

A span is ``(id, parent, name, start, end, thread)``. Parents come from a
per-thread stack, so spans opened by the CLI's worker threads nest correctly
and have no parent outside their own thread. Self time is a span's duration
minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
from momtraj.scenarios import SCENARIOS

# Layers in the order they are reported; a span's layer is its name up to the
# first dot. "cli" holds the time inside momtraj.cli.main that no other span
# covers, less the time the main thread waits on the CLI's thread pool.
LAYERS = ("cli", "scenarios", "states", "dynamics", "grid", "currents",
          "potentials", "trajectories", "ensemble", "output")

MIB = 1024.0 * 1024.0


class Tracer:
    """Collects spans and counters; one instance per traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, observe=None):
        """Run fn(*args, **kwargs) inside a span; observe(tracer, args, result) after."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = self.clock()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, threading.get_ident()))
        if observe is not None:
            observe(self, args, result)
        return result

    def wrap(self, fn, name: str, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, observe)

        return traced

    def count(self, key: str, amount: float = 1.0) -> None:
        # observers run on the CLI's pool threads too; += on a dict item is not atomic
        with self._count_lock:
            self.counters[key] += amount

    def write(self, path) -> None:
        """Write the recorded spans as CSV (times relative to the first span)."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s,thread\n")
            for sid, parent, name, start, end, thread in self.spans:
                fh.write(f"{sid},{parent},{name},{start - t0:.9f},{end - t0:.9f},{thread}\n")


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _name, start, end, _thread in spans:
        if parent:
            children[parent].append((start, end))
    out: dict[int, float] = {}
    for sid, _parent, _name, start, end, _thread in spans:
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(sid, ())):
            c0 = max(c0, reach)
            c1 = min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (end - start) - covered
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, _parent, name, start, end, _thread in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += selfs[sid]
    return dict(out)


# -- observers: counters read from arguments and results -------------------------


def _obs_points(tracer, args, _result):
    query = args[1]
    tracer.count("trajectories.interp_points", len(query) if getattr(query, "ndim", 1) > 1 else 1)


def _obs_history(tracer, _args, hist):
    from momtraj.trajectories import TrajStatus

    final = hist.status[-1]
    tracer.count("trajectories.frozen", int((final == TrajStatus.FROZEN_AT_NODE).sum()))
    tracer.count("trajectories.left_grid", int((final == TrajStatus.LEFT_GRID).sum()))
    arrays = [hist.x, hist.status, hist.times] + ([hist.p] if hist.p is not None else [])
    tracer.count("trajectories.history_mib", sum(a.nbytes for a in arrays) / MIB)


def _obs_frames(tracer, _args, frames):
    tracer.count("dynamics.frames", len(frames))
    tracer.count("dynamics.frames_mib",
                 sum(f.psi_x.values.nbytes + f.psi_p.values.nbytes for f in frames) / MIB)


def _obs_fft(tracer, args, _result):
    tracer.count("grid.fft_points", args[0].size)


def _obs_outputs(tracer, _args, manifest_path):
    manifest_path = Path(manifest_path)
    listed = json.loads(manifest_path.read_text())["outputs"]
    paths = [manifest_path.parent / name for name in listed] + [manifest_path]
    tracer.count("output.files", len(paths))
    tracer.count("output.bytes", sum(p.stat().st_size for p in paths))


# (span name, function, modules that call it, observer); the span name's prefix
# is the layer of the module that defines the function
TARGETS = (
    ("trajectories.interpolate_masked", "interpolate_masked", ("trajectories", "scenarios"),
     _obs_points),
    ("trajectories.integrate", "integrate_epstein", ("scenarios",), _obs_history),
    ("trajectories.integrate", "integrate_dbb", ("scenarios",), _obs_history),
    ("dynamics.collect_frames", "collect_frames", ("scenarios",), _obs_frames),
    ("dynamics.continuity_probe", "continuity_probe", ("scenarios",), None),
    ("grid.spectral_gradient", "spectral_gradient",
     ("grid", "currents", "potentials", "ensemble", "trajectories"), None),
    ("grid.local_position_field", "local_position_field", ("trajectories", "scenarios"), None),
    ("currents.closed_form", "current_closed_form", ("currents", "scenarios"), None),
    ("currents.poisson", "current_poisson", ("currents", "scenarios"), None),
    ("currents.continuity_residual", "continuity_residual", ("scenarios",), None),
    ("potentials.interaction_source", "interaction_source", ("currents", "scenarios"), None),
    ("ensemble.sample", "sample_momenta", ("scenarios",), None),
    ("ensemble.sample", "sample_positions", ("scenarios",), None),
    ("ensemble.equivariance_check", "equivariance_check", ("scenarios",), None),
    ("ensemble.moment_checks", "moment_checks", ("scenarios",), None),
    ("ensemble.macrostate_frequencies", "macrostate_frequencies", ("scenarios",), None),
    ("states.prepare", "gaussian_state", ("scenarios",), None),
    ("states.prepare", "superposition_state", ("scenarios",), None),
    ("states.prepare", "measurement_state", ("scenarios",), None),
    ("states.prepare", "two_packet_momentum_state", ("scenarios",), None),
    ("output.write_run_outputs", "write_run_outputs", ("cli",), _obs_outputs),
)

FFT_FUNCTIONS = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")


def install(tracer: Tracer) -> None:
    """Wrap every target in its callers' namespaces, for the rest of the process.

    A target its caller no longer imports is skipped and named on stderr.
    """
    missing: list[str] = []

    def patch(owner, attr, name, observe):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, observe))

    for name, fn, callers, observe in TARGETS:
        for caller in callers:
            module = importlib.import_module(f"momtraj.{caller}")
            if fn in vars(module):
                patch(module, fn, name, observe)
            else:
                missing.append(f"momtraj.{caller}.{fn}")
    for fn in FFT_FUNCTIONS:
        patch(np.fft, fn, "grid.fft", _obs_fft)

    cli = importlib.import_module("momtraj.cli")
    run_scenario = cli.run_scenario

    def traced_run_scenario(config):
        return tracer.call(f"scenarios.run_scenario.{config.name}", run_scenario, (config,))

    cli.run_scenario = traced_run_scenario

    pool_class = cli.ThreadPoolExecutor

    class TracedPool(pool_class):
        """Counts the pool's threads and wall time."""

        def __enter__(self):
            self._perfbench_start = tracer.clock()
            tracer.count("cli.pool_threads", self._max_workers)
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.count("cli.pool_wall_s", tracer.clock() - self._perfbench_start)

    cli.ThreadPoolExecutor = TracedPool
    if missing:
        # A renamed or removed function is not traced; its metrics read 0.
        print(f"perfbench: not traced (absent): {', '.join(missing)}", file=sys.stderr)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    summary = summarize(tracer.spans)
    c = tracer.counters

    def row(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    m: dict[str, tuple[float, str]] = {}
    interp = row("trajectories.interpolate_masked")
    m["trajectories.interp_calls"] = (interp["calls"], "count")
    m["trajectories.interp_points"] = (c["trajectories.interp_points"], "count")
    m["trajectories.interp_s"] = (interp["total_s"], "s")
    m["trajectories.integrate_s"] = (row("trajectories.integrate")["self_s"], "s")
    m["trajectories.frozen"] = (c["trajectories.frozen"], "count")
    m["trajectories.left_grid"] = (c["trajectories.left_grid"], "count")
    m["trajectories.history_mib"] = (c["trajectories.history_mib"], "MiB")

    m["dynamics.propagate_s"] = (row("dynamics.collect_frames")["total_s"], "s")
    m["dynamics.frames"] = (c["dynamics.frames"], "count")
    probe = row("dynamics.continuity_probe")
    m["dynamics.continuity_probe_calls"] = (probe["calls"], "count")
    m["dynamics.continuity_probe_s"] = (probe["total_s"], "s")
    m["dynamics.frames_mib"] = (c["dynamics.frames_mib"], "MiB")

    fft = row("grid.fft")
    m["grid.fft_calls"] = (fft["calls"], "count")
    m["grid.fft_points"] = (c["grid.fft_points"], "count")
    m["grid.fft_s"] = (fft["total_s"], "s")
    m["grid.spectral_gradient_calls"] = (row("grid.spectral_gradient")["calls"], "count")
    lpf = row("grid.local_position_field")
    m["grid.local_position_field_calls"] = (lpf["calls"], "count")
    m["grid.local_position_field_s"] = (lpf["total_s"], "s")

    for key, name in (("closed_form", "currents.closed_form"), ("poisson", "currents.poisson")):
        m[f"currents.{key}_calls"] = (row(name)["calls"], "count")
        m[f"currents.{key}_s"] = (row(name)["total_s"], "s")
    m["currents.continuity_residual_s"] = (row("currents.continuity_residual")["total_s"], "s")
    src = row("potentials.interaction_source")
    m["potentials.interaction_source_calls"] = (src["calls"], "count")
    m["potentials.interaction_source_s"] = (src["total_s"], "s")

    m["ensemble.sample_s"] = (row("ensemble.sample")["total_s"], "s")
    eq = row("ensemble.equivariance_check")
    m["ensemble.equivariance_calls"] = (eq["calls"], "count")
    m["ensemble.equivariance_s"] = (eq["total_s"], "s")
    m["ensemble.moment_checks_s"] = (row("ensemble.moment_checks")["total_s"], "s")
    m["ensemble.macrostate_s"] = (row("ensemble.macrostate_frequencies")["total_s"], "s")

    m["output.write_s"] = (row("output.write_run_outputs")["total_s"], "s")
    m["output.bytes"] = (c["output.bytes"], "B")
    m["output.files"] = (c["output.files"], "count")

    scenario_self = 0.0
    job_s = 0.0
    for scen in sorted(SCENARIOS):
        r = row(f"scenarios.run_scenario.{scen}")
        m[f"scenarios.run_s.{scen}"] = (r["total_s"], "s")
        scenario_self += r["self_s"]
        job_s += r["total_s"]
    m["scenarios.self_s"] = (scenario_self, "s")
    m["states.prepare_s"] = (row("states.prepare")["total_s"], "s")

    threads = c["cli.pool_threads"]
    pool_wall = c["cli.pool_wall_s"]
    m["cli.pool_busy_s"] = (job_s if threads else 0.0, "s")
    m["cli.pool_efficiency"] = (job_s / (threads * pool_wall) if threads and pool_wall else 0.0,
                                "ratio")

    # Self time per layer, summed over threads; its share of the total is the
    # layer's share of the run.
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for name, r in summary.items():
        per_layer[name.split(".", 1)[0]] += r["self_s"]
    # the main thread only waits while the pool runs; that wait is not cli work
    per_layer["cli"] -= pool_wall
    for layer in LAYERS:
        m[f"self_s.{layer}"] = (per_layer[layer], "s")

    m["trace.wall_s"] = (wall_s, "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m
