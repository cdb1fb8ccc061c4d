"""Spans around the calls into levypen's layers, recorded from outside.

``install`` replaces each traced function where its caller looks it up
(``verify.walk_one`` as well as ``pathsim.walk_one``, the class
attribute ``LevyModel.sample_increments``, ``mpmath.quadosc``) with a
wrapper that records a span: name, parent span, operation id, start and
end in ns, and a work count (increments drawn, steps checked, points
evaluated).  Spans stay in memory; ``write`` saves them when the run
ends and ``metrics`` reduces them to the per-layer figures.

A span's self time is its duration minus the durations of its direct
child spans.  The program runs in one thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import time
from pathlib import Path

import numpy as np


class Tracer:
    """In-memory span store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.op_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.work: list[int] = []
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.start.append(0)
        self.end.append(0)
        self.work.append(0)
        self._stack.append(idx)
        return idx

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark operation; its spans share ``op_id``."""
        self._op = op_id
        idx = self._open("op")
        self.start[idx] = time.perf_counter_ns()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()
            self._op = -1

    def wrap(self, owner, attr: str, name, work=None):
        """Trace ``owner.attr``; ``name`` may be a function of the call's args."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name(args) if callable(name) else name)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter_ns()
                self.start[idx] = t0
                self._stack.pop()
            if work is not None:
                self.work[idx] = work(args, out)
            return out

        setattr(owner, attr, traced)

    def arrays(self) -> dict:
        return {"name": np.array(self.name, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int64),
                "op_id": np.array(self.op_id, dtype=np.int32),
                "start_ns": np.array(self.start, dtype=np.int64),
                "end_ns": np.array(self.end, dtype=np.int64),
                "work": np.array(self.work, dtype=np.int64)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def metrics(self) -> dict:
        """Per-layer figures of this process; 0 where a layer did no work."""
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        has_parent = a["parent"] >= 0
        child = np.zeros_like(dur)
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_ns = dur - child
        parent_name = np.full(len(dur), -1)
        parent_name[has_parent] = a["name"][a["parent"][has_parent]]

        def sel(name, parent=None):
            if name not in self._name_ids:
                return np.zeros(len(dur), bool)
            m = a["name"] == self._name_ids[name]
            if parent is not None:
                m &= parent_name == self._name_ids.get(parent, -2)
            return m

        def ratio(num, den, scale=1.0):
            return float(num) / float(den) * scale if den else 0.0

        out = {}
        for kind in ("brownian", "stable", "jump-diffusion"):
            m = sel(f"models.sample.{kind}")
            out[f"models.sample_ns_per_step.{kind}"] = ratio(self_ns[m].sum(), a["work"][m].sum())

        walk = sel("pathsim.walk")
        drawn = sum(int(a["work"][sel(f"models.sample.{kind}", "pathsim.walk")].sum())
                    for kind in ("brownian", "stable", "jump-diffusion"))
        det = sel("pathsim.detect")
        out["pathsim.steps"] = drawn
        out["pathsim.walk_self_ns_per_step"] = ratio(self_ns[walk].sum(), drawn)
        out["pathsim.detect_step_levels"] = int(a["work"][det].sum())
        out["pathsim.detect_ns_per_step_level"] = ratio(self_ns[det].sum(), a["work"][det].sum())
        out["pathsim.useful_step_ratio"] = ratio(a["work"][walk].sum(), drawn)

        quad, h, dens, mp = (sel("resolvent.quad"), sel("resolvent.h"),
                             sel("resolvent.density"), sel("resolvent.mp"))
        out["resolvent.quad_calls"] = int(quad.sum())
        out["resolvent.quad_s"] = dur[quad].sum() / 1e9
        out["resolvent.h_calls"] = int(h.sum())
        out["resolvent.h_ms_per_call"] = ratio(dur[h].sum(), h.sum(), 1e-6)
        out["resolvent.density_calls"] = int(dens.sum())
        out["resolvent.density_ms_per_call"] = ratio(dur[dens].sum(), dens.sum(), 1e-6)
        out["resolvent.mp_calls"] = int(mp.sum())
        out["resolvent.mp_s"] = dur[mp].sum() / 1e9

        fac = sel("penalization.factor")
        out["penalization.factor_calls"] = int(fac.sum())
        out["penalization.factor_us_per_point"] = ratio(dur[fac].sum(), a["work"][fac].sum(), 1e-3)

        out["verify.self_s"] = self_ns[sel("verify.check")].sum() / 1e9
        return out


def install(tracer: Tracer) -> None:
    """Wrap every traced layer entry point, where its callers look it up."""
    import mpmath

    from levypen import models, pathsim, penalization, resolvent, verify

    tracer.wrap(models.LevyModel, "sample_increments",
                lambda args: f"models.sample.{args[0].kind}",
                work=lambda args, out: len(out))
    tracer.wrap(pathsim, "_detect_hit", "pathsim.detect",
                work=lambda args, out: len(args[0]) - 1)
    for mod in (pathsim, penalization, verify):
        tracer.wrap(mod, "walk_one", "pathsim.walk",
                    work=lambda args, out: out.final_step)
    tracer.wrap(resolvent, "quad", "resolvent.quad")
    tracer.wrap(resolvent, "zero_resolvent", "resolvent.h")
    for mod in (resolvent, verify):
        tracer.wrap(mod, "resolvent_density", "resolvent.density")
    tracer.wrap(mpmath, "quadosc", "resolvent.mp")
    for mod in (penalization, verify):
        tracer.wrap(mod, "martingale_factor", "penalization.factor",
                    work=lambda args, out: int(np.size(args[2])))
    for check in ("check_identity_local_time_until_hit",
                  "check_identity_local_time_until_either_hit",
                  "check_inverse_lt_laplace", "check_martingale",
                  "check_penalization_limit"):
        tracer.wrap(verify, check, "verify.check")
