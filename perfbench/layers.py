"""Per-layer instrumentation for the traced and profiled child runs.

Nothing here touches the program's source: :class:`Tracer` wraps the
public entry points of each layer from the outside (module functions and
class methods, restored by :meth:`Tracer.uninstall`), records one span
per call (name, start, end, parent, run id) in memory, and reduces the
spans to per-layer metrics once the campaign is over.  ``profile_shares``
groups a cProfile run by module; its figures are for attribution only.
"""

from __future__ import annotations

import json
import math
from pathlib import PurePath
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Span names, one per wrapped entry point.
ENGINE = "orchestrate.engine"
PLAN = "orchestrate.plan"
RUN = "orchestrate.execute_run"
HARNESS = "faults.harness_build"
SOC = "soc.build"
SIM = "sim.run"
STORE_OPEN = "store.open"
STORE_GET = "store.get"
STORE_PUT = "store.put"
EXPORT = "analysis.export"


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id")

    def __init__(self, name, start, parent, run_id):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run_id = run_id

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.run_id]


class Tracer:
    """Span recorder around the layers' public entry points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._run_id: Optional[str] = None
        self._undo: List[Callable[[], None]] = []
        # Simulated-cycle accounting, taken at the outermost sim span.
        self._sim_depth = 0
        self.stepped_cycles = 0
        self.leaps = 0
        self.cycles_leaped = 0

    # ------------------------------------------------------------------
    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, parent, self._run_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = span.end = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _wrap_run(self, fn: Callable) -> Callable:
        def traced(run, *args, **kwargs):
            outer, self._run_id = self._run_id, run.run_id
            span = self._open(RUN)
            try:
                return fn(run, *args, **kwargs)
            finally:
                self._close(span)
                self._run_id = outer

        return traced

    def _wrap_sim(self, fn: Callable) -> Callable:
        def traced(sim, *args, **kwargs):
            if self._sim_depth:
                return fn(sim, *args, **kwargs)
            self._sim_depth += 1
            cycle, leaps, leaped = sim.cycle, sim.leaps, sim.cycles_leaped
            span = self._open(SIM)
            try:
                return fn(sim, *args, **kwargs)
            finally:
                self._close(span)
                self._sim_depth -= 1
                self.leaps += sim.leaps - leaps
                self.cycles_leaped += sim.cycles_leaped - leaped
                self.stepped_cycles += (sim.cycle - cycle) - (
                    sim.cycles_leaped - leaped
                )

        return traced

    def _patch(self, owner, attr: str, wrapper: Callable[[Callable], Callable]):
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            patched = classmethod(wrapper(original.__func__))
        else:
            patched = wrapper(original)
        setattr(owner, attr, patched)
        self._undo.append(lambda: setattr(owner, attr, original))

    def install(self) -> None:
        """Wrap every layer entry point the per-layer metrics read."""
        import repro.orchestrate.batch as batch
        import repro.orchestrate.engine as engine
        import repro.orchestrate.executor as executor
        from repro.faults.campaign import IpHarness
        from repro.orchestrate.spec import CampaignSpec
        from repro.orchestrate.store import ResultStore
        from repro.sim.kernel import Simulator
        from repro.soc.cheshire import CheshireSoC

        for owner, attr, name in (
            (CampaignSpec, "runs", PLAN),
            (engine, "plan_shards", PLAN),
            (IpHarness, "__init__", HARNESS),
            (CheshireSoC, "__init__", SOC),
            (ResultStore, "open", STORE_OPEN),
            (ResultStore, "get", STORE_GET),
            (ResultStore, "put", STORE_PUT),
        ):
            self._patch(owner, attr, lambda fn, name=name: self.wrap(name, fn))
        # execute_run is looked up by name in both executors' modules.
        self._patch(executor, "execute_run", self._wrap_run)
        self._patch(batch, "execute_run", self._wrap_run)
        self._patch(Simulator, "run", self._wrap_sim)
        self._patch(Simulator, "run_until", self._wrap_sim)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path) -> None:
        """Write the spans out, one JSON list per line:
        ``[name, start, end, parent index, run id]`` (seconds, parent -1
        for a root span)."""
        with open(path, "w") as stream:
            for span in self.spans:
                stream.write(json.dumps(span.as_list()) + "\n")

    # ------------------------------------------------------------------
    def metrics(self, registry) -> Dict[str, float]:
        """Per-layer metrics from the recorded spans and *registry*.

        *registry* is the ``MetricsRegistry`` the campaigns ran with;
        the batch and store counters come from it.
        """
        spans = self.spans
        by_name: Dict[str, List[Span]] = {}
        child_seconds = [0.0] * len(spans)
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
            if span.parent >= 0:
                child_seconds[span.parent] += span.seconds

        def total(name: str) -> float:
            return sum(span.seconds for span in by_name.get(name, ()))

        def count(name: str) -> int:
            return len(by_name.get(name, ()))

        run_ms = sorted(span.seconds * 1e3 for span in by_name.get(RUN, ()))
        runs = len(run_ms)
        engine_self = sum(
            span.seconds - child_seconds[i]
            for i, span in enumerate(spans)
            if span.name == ENGINE
        )
        sim_s = total(SIM)
        stepped = self.stepped_cycles
        counters = registry.to_dict()["counters"]
        simulated = counters.get("batch.leaders", 0) + counters.get("batch.retired", 0)
        derived = counters.get("batch.derived", 0)
        hits = sum(
            counters.get(f"store.{tier}_hit", 0) for tier in ("hot", "warm", "cold")
        )
        lookups = hits + counters.get("store.miss", 0)
        return {
            "orchestrate.plan_s": total(PLAN),
            "orchestrate.runs_executed": runs,
            "orchestrate.run_ms.p50": _quantile(run_ms, 0.50),
            "orchestrate.run_ms.p99": _quantile(run_ms, 0.99),
            "orchestrate.engine_self_s": engine_self,
            "faults.harness_builds": count(HARNESS),
            "faults.harness_build_s": total(HARNESS),
            "soc.builds": count(SOC),
            "soc.build_s": total(SOC),
            "sim.run_s": sim_s,
            "sim.stepped_cycles": stepped,
            "sim.leaps": self.leaps,
            "sim.cycles_leaped": self.cycles_leaped,
            "sim.stepped_cycles_per_run": stepped / runs if runs else 0.0,
            "sim.us_per_stepped_cycle": sim_s * 1e6 / stepped if stepped else 0.0,
            "sim.stepped_cycles_per_s": stepped / sim_s if sim_s else 0.0,
            "batch.simulated": simulated,
            "batch.derived": derived,
            "batch.derived_share": (
                derived / (derived + simulated) if derived + simulated else 0.0
            ),
            "store.open_s": total(STORE_OPEN),
            "store.gets": count(STORE_GET),
            "store.get_s": total(STORE_GET),
            "store.puts": count(STORE_PUT),
            "store.put_s": total(STORE_PUT),
            "store.hit_share": hits / lookups if lookups else 0.0,
            "store.frontier_runs": counters.get("store.frontier_runs", 0),
            "analysis.export_s": total(EXPORT),
        }


def _quantile(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


#: Module groups of the profiled run, matched on the path below
#: ``repro/`` (first match wins).
PROFILE_GROUPS = (
    ("sim.kernel", "sim/kernel.py"),
    ("sim.signal", "sim/signal.py"),
    ("sim.component", "sim/component.py"),
    ("axi", "axi/"),
    ("tmu", "tmu/"),
    ("soc", "soc/"),
    ("faults", "faults/"),
    ("orchestrate", "orchestrate/"),
    ("analysis", "analysis/"),
)

#: Modules whose call counts the profiled run reports.
PROFILE_CALLS = (("sim.signal", "sim/signal.py"), ("axi.memory", "axi/memory.py"))


def _repro_path(filename: str) -> Optional[str]:
    parts = PurePath(filename).parts
    if "repro" not in parts:
        return None
    at = len(parts) - 1 - parts[::-1].index("repro")
    return "/".join(parts[at + 1 :])


def profile_shares(stats: dict) -> Dict[str, float]:
    """Self-time shares and call counts from ``pstats.Stats(...).stats``.

    Shares are of the whole profiled self time, including the
    interpreter's builtins and the standard library, so they need not
    sum to one.
    """
    self_time = {name: 0.0 for name, _ in PROFILE_GROUPS}
    calls = {name: 0 for name, _ in PROFILE_CALLS}
    grand = 0.0
    for (filename, _line, _func), (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        grand += tottime
        path = _repro_path(filename)
        if path is None:
            continue
        for name, prefix in PROFILE_GROUPS:
            if path.startswith(prefix):
                self_time[name] += tottime
                break
        for name, prefix in PROFILE_CALLS:
            if path == prefix:
                calls[name] += ncalls
    out = {
        f"profile.self_share.{name}": (seconds / grand if grand else 0.0)
        for name, seconds in self_time.items()
    }
    out.update({f"profile.calls.{name}": count for name, count in calls.items()})
    return out

