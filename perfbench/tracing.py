"""Spans and counters at modev's module boundaries, installed from outside.

``install`` replaces the names through which one modev module calls into
another (``modev.cli.ldp_curve``, ``modev.rarevent.rep_rng``, each family's
``draw`` ...) with wrappers that time the call. Nothing under ``src/``
knows about it. Coarse calls (a subcommand, a rate point, a quadrature)
become spans (name, start, end, parent) kept in memory; hot calls (one
replication's generator, one integrand evaluation) are only aggregated,
so that a round does not hold millions of span records. Both kinds feed
the self time of their enclosing call.

Counts are exact only for calls made in this process: a pool worker's
wrappers run in the worker, and what they record is lost with it.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

PILOT_BASE = 2**33  # replication indices at or above this are pilot draws


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []  # open calls: [start, child time, span index or -1]
        # name -> [calls, inclusive seconds, self seconds, units]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counters = defaultdict(float)
        self.precisions = []
        self.prob_entry = None  # start of the open estimate_prob call, until its run_chunks

    def wrap(self, name, fn, span=False, units=None, on_call=None):
        """A wrapper of fn that records one call of ``name``.

        units(result) gives the work done (points, variates); on_call(args,
        kwargs, result) updates counters.
        """
        clock = time.perf_counter
        stack, stats = self.stack, self.stats

        def wrapper(*args, **kwargs):
            if span:
                parent = next((f[2] for f in reversed(stack) if f[2] >= 0), -1)
                self.spans.append([name, clock(), 0.0, parent])
                idx = len(self.spans) - 1
            else:
                idx = -1
            frame = [clock(), 0.0, idx]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                rec = stats[name]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    self.spans[idx][2] = end
            if units is not None:
                rec[3] += units(result)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return wrapper

    def reset(self):
        """Forget everything recorded; wrappers already made stay valid."""
        for store in (self.spans, self.stack, self.stats, self.counters, self.precisions):
            store.clear()
        self.prob_entry = None

    def write(self, path: Path) -> None:
        """Spans and per-name aggregates as JSON."""
        out = {
            "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
            "calls": {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2], "units": v[3]}
                      for k, v in sorted(self.stats.items())},
            "counters": dict(self.counters),
        }
        Path(path).write_text(json.dumps(out), encoding="utf-8")


def _patch(undo: list, owner, attr: str, wrapper) -> None:
    undo.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, wrapper)


def install(tr: Tracer):
    """Wrap modev's cross-module calls; returns a function that removes the wrappers."""
    import modev
    from modev import cli, conditions, families, lan, rarevent

    undo: list = []
    size = np.size

    _patch(undo, cli, "main", tr.wrap("cli.main", cli.main, span=True))
    for fn in ("ldp_curve", "equivalence_tail", "bahadur_sweep"):
        _patch(undo, cli, fn, tr.wrap(f"rarevent.{fn}", getattr(cli, fn), span=True))
    for fn in ("posterior_grid", "default_posterior_box"):
        _patch(undo, cli, fn, tr.wrap(f"estimators.{fn}", getattr(cli, fn), span=True))
    for check in ("dqm", "a0", "moment_b", "exp_moment", "c", "d", "e", "loss"):
        fn = f"check_{check}"
        _patch(undo, cli, fn, tr.wrap(f"conditions.{check}", getattr(cli, fn), span=True))

    def on_prob(args, kwargs, est):
        if est.method == "exact":
            return
        tr.counters["points"] += 1
        tr.counters["main_reps"] += est.n_reps
        if 0.0 < est.stderr_log < float("inf"):
            tr.precisions.append(1.0 / (est.n_reps * est.stderr_log**2))

    estimate_prob = tr.wrap("rarevent.estimate_prob", rarevent.estimate_prob, span=True,
                            on_call=on_prob)

    def entered_prob(*args, **kwargs):
        tr.prob_entry = time.perf_counter()
        return estimate_prob(*args, **kwargs)

    _patch(undo, rarevent, "estimate_prob", entered_prob)

    run_chunks = tr.wrap("sampling.run_chunks", rarevent.run_chunks, span=True, units=len)

    def timed_run_chunks(*args, **kwargs):
        if tr.prob_entry is not None:
            tr.counters["tilt_select_s"] += time.perf_counter() - tr.prob_entry
            tr.prob_entry = None
        return run_chunks(*args, **kwargs)

    _patch(undo, rarevent, "run_chunks", timed_run_chunks)

    def on_rng(args, kwargs, rng):
        if args[2] >= PILOT_BASE:
            tr.counters["pilot_reps"] += 1

    _patch(undo, rarevent, "rep_rng", tr.wrap("sampling.rep_rng", rarevent.rep_rng, on_call=on_rng))
    _patch(undo, rarevent, "logsumexp", tr.wrap("rarevent.logsumexp", rarevent.logsumexp))

    for name in modev.family_names():
        cls = type(modev.get_family(name))
        _patch(undo, cls, "draw", tr.wrap("families.draw", cls.draw, units=size))
        _patch(undo, cls, "log_density", tr.wrap("families.log_density", cls.log_density, units=size))
        for fn in ("mle_batch", "suff_stats", "loglik_from_stats"):
            _patch(undo, cls, fn, tr.wrap("families.estimator", getattr(cls, fn)))

    integrate = families.integrate_support
    quad = tr.wrap("families.quad", integrate, span=True)

    def traced_integrate(fam, fn, breaks=()):
        return quad(fam, tr.wrap("families.integrand", fn, units=size), breaks)

    _patch(undo, families, "integrate_support", traced_integrate)
    _patch(undo, conditions, "integrate_support", traced_integrate)

    _patch(undo, lan, "sup_lan_residual", tr.wrap("lan.sup", lan.sup_lan_residual, span=True))
    _patch(undo, lan, "lan_residual", tr.wrap("lan.residual", lan.lan_residual, span=True))
    _patch(undo, lan, "_ball_grid", tr.wrap("lan.ball_grid", lan._ball_grid, units=len))

    def remove():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return remove


LAYERS = ("cli", "sampling", "families", "rarevent", "estimators", "lan", "conditions")
CONDITION_METRICS = {"dqm": "dqm", "a0": "a0", "moment_b": "b", "exp_moment": "exp",
                     "c": "c", "d": "d", "e": "e", "loss": "loss"}


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics (name -> value) from one traced pass."""
    st = tr.stats

    def calls(name):
        return st[name][0] if name in st else 0

    def incl(name):
        return st[name][1] if name in st else 0.0

    def units(name):
        return st[name][3] if name in st else 0

    self_by_layer = defaultdict(float)
    for name, rec in st.items():
        self_by_layer[name.split(".")[0]] += rec[2]

    m = {
        "cli.overhead_s": self_by_layer["cli"],
        "sampling.rep_rng_calls": calls("sampling.rep_rng"),
        "sampling.rep_rng_s": incl("sampling.rep_rng"),
        "sampling.run_chunks_calls": calls("sampling.run_chunks"),
        "sampling.chunks": units("sampling.run_chunks"),
        "sampling.run_chunks_1w_s": incl("sampling.run_chunks"),
        "families.draw_calls": calls("families.draw"),
        "families.draws": units("families.draw"),
        "families.draw_s": incl("families.draw"),
        "families.estimator_s": incl("families.estimator"),
        "families.log_density_calls": calls("families.log_density"),
        "families.log_density_points": units("families.log_density"),
        "families.log_density_s": incl("families.log_density"),
        "families.quad_calls": calls("families.quad"),
        "families.integrand_calls": calls("families.integrand"),
        "families.integrand_points": units("families.integrand"),
        "families.quad_s": incl("families.quad"),
        "rarevent.points": int(tr.counters["points"]),
        "rarevent.main_reps": int(tr.counters["main_reps"]),
        "rarevent.estimate_prob_s": incl("rarevent.estimate_prob"),
        "rarevent.pilot_reps": int(tr.counters["pilot_reps"]),
        "rarevent.tilt_select_s": tr.counters["tilt_select_s"],
        "rarevent.reduce_s": incl("rarevent.logsumexp"),
        "rarevent.precision_per_rep": float(np.mean(tr.precisions)) if tr.precisions else 0.0,
        "estimators.s": sum(v[1] for k, v in st.items() if k.startswith("estimators.")),
        "lan.sup_calls": calls("lan.sup"),
        "lan.sup_grid_points": units("lan.ball_grid"),
        "lan.sup_s": incl("lan.sup"),
    }
    for check, short in CONDITION_METRICS.items():
        m[f"conditions.{short}_s"] = incl(f"conditions.{check}")
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    return m
