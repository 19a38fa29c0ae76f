"""Per-layer tracing of the fracvel package from outside.

Every public function of the six package modules is wrapped in a span and
the wrapper is bound under the same name in every fracvel module that
imported it (``cli``, ``scanner`` and ``rlcalc`` bind ``estimate_velocity``
by name, ``estimator`` binds ``refine_oscillation``).  The evaluator built
by ``cli.build_function`` is replaced by a proxy that counts calls and
points, attributed to the innermost open span.  Nothing under ``src/`` is
edited; ``Tracer.installed()`` restores every binding on exit.

Spans are aggregated as they close rather than stored: a cusp scan opens
tens of thousands of them.  A span's self time is its duration minus the
durations of the spans opened directly inside it.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
import types
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

LAYERS = ("cli", "zoo", "diffops", "estimator", "scanner", "rlcalc")

_clock = time.perf_counter


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child = 0.0


class Evaluator:
    """Counting stand-in for an evaluator; other attributes pass through."""

    def __init__(self, f, tracer: "Tracer") -> None:
        self._f = f
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __call__(self, t):
        tracer = self._tracer
        caller = tracer.innermost()
        tracer.eval_calls[caller] += 1
        tracer.eval_points[caller] += int(np.size(t))
        frame = tracer.enter("zoo.eval")
        try:
            out = self._f(t)
        except BaseException:
            tracer.leave(frame, True)
            raise
        tracer.leave(frame, False)
        return out


class Tracer:
    """Span and counter collector for one traced run."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.errors: Counter = Counter()
        self.eval_calls: Counter = Counter()
        self.eval_points: Counter = Counter()
        self.extra: Counter = Counter()
        self._stack: List[_Frame] = []
        self._open: Counter = Counter()

    # -- spans -------------------------------------------------------------

    def innermost(self) -> str:
        return self._stack[-1].name if self._stack else "-"

    def enter(self, name: str) -> _Frame:
        frame = _Frame(name, _clock())
        self._stack.append(frame)
        self._open[name.split(".")[0]] += 1
        self._open[name] += 1
        return frame

    def leave(self, frame: _Frame, failed: bool) -> None:
        duration = _clock() - frame.start
        self._stack.pop()
        self._open[frame.name.split(".")[0]] -= 1
        self._open[frame.name] -= 1
        if self._stack:
            self._stack[-1].child += duration
        self.calls[frame.name] += 1
        self.busy[frame.name] += duration
        self.self_time[frame.name] += duration - frame.child
        if failed:
            self.errors[frame.name] += 1

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def span(self, name: str, fn: Callable,
             on_enter: Optional[Callable] = None,
             on_return: Optional[Callable] = None) -> Callable:
        """fn wrapped in a span; a call made inside its own span passes through."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.is_open(name):
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter(args, kwargs)
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.leave(frame, True)
                raise
            tracer.leave(frame, False)
            return result if on_return is None else on_return(result, args)

        return traced

    # -- hooks reading arguments and return values ---------------------------

    def _hooks(self, qualname: str, fn: Callable):
        extra = self.extra
        module = qualname.split(".")[0]
        if qualname == "cli.build_function":
            return None, lambda f, args: Evaluator(f, self)
        if qualname == "cli.emit_report":
            def on_return(text, args):
                extra["cli.emit_report.bytes"] += len(text.encode())
                return text
            return None, on_return
        if qualname == "diffops.refine_oscillation":
            def on_return(est, args):
                extra["diffops.refine_oscillation.samples"] += est.n_samples
                extra["diffops.refine_oscillation.settled"] += bool(est.refined)
                return est
            return None, on_return
        if qualname == "estimator.EpsilonSchedule.increments":
            def on_return(eps, args):
                extra["estimator.schedule.kept"] += int(np.size(eps))
                extra["estimator.schedule.count"] += args[0].count
                return eps
            return None, on_return
        if qualname == "estimator.estimate_velocity":
            def on_enter(args, kwargs):
                if self.is_open("scanner"):
                    extra["scanner.velocity_calls"] += 1
            return on_enter, None
        if module == "scanner":
            sig = inspect.signature(fn)
            size = "n" if "n" in sig.parameters else "grid_n" if "grid_n" in sig.parameters else None
            if size is None:
                return None, None

            def on_enter(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                extra["scanner.grid_points"] += int(bound.arguments[size])
            return on_enter, None
        return None, None

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap fracvel's public functions for the duration of the block."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "fracvel" or name.startswith("fracvel."))]
        undo = []

        def rebind(obj, wrapped) -> None:
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is obj:
                        undo.append((m, attr, value))
                        setattr(m, attr, wrapped)

        for layer in LAYERS:
            mod = sys.modules[f"fracvel.{layer}"]
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    qualname = f"{layer}.{name}"
                    rebind(obj, self.span(qualname, obj, *self._hooks(qualname, obj)))
        schedule = sys.modules["fracvel.estimator"].EpsilonSchedule
        increments = vars(schedule)["increments"]
        qualname = "estimator.EpsilonSchedule.increments"
        undo.append((schedule, "increments", increments))
        setattr(schedule, "increments",
                self.span(qualname, increments, *self._hooks(qualname, increments)))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    # -- reading -------------------------------------------------------------

    def metrics(self, passes: int) -> Dict[str, float]:
        """The named per-layer figures; counts and times per pass."""
        x = self.extra

        def per(v: float) -> float:
            return v / passes

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        points = sum(self.eval_points.values())
        out = {
            "zoo.eval.calls": per(self.calls["zoo.eval"]),
            "zoo.eval.points": per(points),
            "zoo.eval.busy_s": per(self.busy["zoo.eval"]),
        }
        for caller in ("estimator.estimate_velocity", "diffops.variation_values",
                       "diffops.refine_oscillation", "rlcalc.rl_integral"):
            out["zoo.eval.points." + caller.split(".")[1]] = per(self.eval_points[caller])
        refine = "diffops.refine_oscillation"
        out.update({
            "diffops.variation_values.self_s": per(self.self_time["diffops.variation_values"]),
            refine + ".calls": per(self.calls[refine]),
            refine + ".self_s": per(self.self_time[refine]),
            refine + ".samples": per(x[refine + ".samples"]),
            refine + ".settled_ratio": ratio(x[refine + ".settled"], self.calls[refine]),
            "estimator.estimate_velocity.calls": per(self.calls["estimator.estimate_velocity"]),
            "estimator.estimate_velocity.self_s":
                per(self.self_time["estimator.estimate_velocity"]),
            "estimator.classify_limit.busy_s": per(self.busy["estimator.classify_limit"]),
            "estimator.estimate_holder_exponent.self_s":
                per(self.self_time["estimator.estimate_holder_exponent"]),
            "estimator.schedule.kept_ratio":
                ratio(x["estimator.schedule.kept"], x["estimator.schedule.count"]),
            "scanner.scan_change_set.self_s": per(self.self_time["scanner.scan_change_set"]),
            "scanner.verify.self_s": per(sum(self.self_time[f"scanner.verify_{t}"]
                                             for t in ("rolle", "mean_value", "weak_darboux"))),
            "scanner.velocity_calls_per_point":
                ratio(x["scanner.velocity_calls"], x["scanner.grid_points"]),
            "rlcalc.rl_integral.calls": per(self.calls["rlcalc.rl_integral"]),
            "rlcalc.rl_integral.self_s": per(self.self_time["rlcalc.rl_integral"]),
            "rlcalc.rl_integral.errors": per(self.errors["rlcalc.rl_integral"]),
            "rlcalc.quad_passes": per(self.eval_calls["rlcalc.rl_integral"]),
            "rlcalc.quad_nodes": per(self.eval_points["rlcalc.rl_integral"]),
            "rlcalc.kg_lfd.self_s": per(self.self_time["rlcalc.kg_lfd"]),
            "cli.parse_args.busy_s": per(self.busy["cli.parse_args"]),
            "cli.build_function.busy_s": per(self.busy["cli.build_function"]),
            "cli.emit_report.busy_s": per(self.busy["cli.emit_report"]),
            "cli.emit_report.bytes": per(x["cli.emit_report.bytes"]),
        })
        return out

    def table(self, passes: int) -> List[str]:
        """Every span seen, by self time, for the human-readable report."""
        rows = [f"{'span':44s} {'calls':>10s} {'busy_s':>9s} {'self_s':>9s} {'errors':>6s}"]
        for name in sorted(self.calls, key=lambda n: -self.self_time[n]):
            rows.append(f"{name:44s} {self.calls[name] / passes:10.1f} "
                        f"{self.busy[name] / passes:9.4f} {self.self_time[name] / passes:9.4f} "
                        f"{self.errors[name] / passes:6.1f}")
        rows.append("evaluator points by calling span: " + ", ".join(
            f"{k}={v / passes:.0f}" for k, v in self.eval_points.most_common()))
        return rows
