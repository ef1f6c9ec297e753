"""Per-layer measurement for the traced run, taken from outside the program.

Three sources, all switched on only around a traced pass:

* :class:`Spans` wraps the public functions a workload calls into each
  layer and accumulates host time per span name, plus the time each
  span spends inside the spans it encloses (so a layer's self time is
  its span minus its children);
* :func:`package_self_time` groups cProfile self time by ``repro.<pkg>``
  for the layers with no public boundary on the call path;
* :func:`counter_total` reads counts from a ``repro.obs`` snapshot.

Nothing here edits the program: wrappers are installed by
:class:`Patches` on the live modules and removed afterwards.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import json
import os
import pstats
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple


class Spans:
    """Thread-safe host-time totals per span name.

    ``total[name]`` counts only the outermost span of a name on a
    thread's stack, so a recursive call is not counted twice.
    ``within[(outer, inner)]`` is the time ``inner`` spans spent while
    an ``outer`` span was open on the same thread.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.total: Dict[str, float] = defaultdict(float)
            self.calls: Dict[str, int] = defaultdict(int)
            self.hits: Dict[str, int] = defaultdict(int)
            self.within: Dict[Tuple[str, str], float] = defaultdict(float)

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            outer = name not in stack
            enclosing = set(stack)
            stack.append(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                with self._lock:
                    self.calls[name] += 1
                    if outer:
                        self.total[name] += elapsed
                        for parent in enclosing:
                            self.within[(parent, name)] += elapsed

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count calls and truthy results (no timing)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            with self._lock:
                self.calls[name] += 1
                if result:
                    self.hits[name] += 1
            return result

        return wrapper

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "total": dict(self.total),
                "calls": dict(self.calls),
                "hits": dict(self.hits),
                "within": {f"{a}>{b}": v for (a, b), v in self.within.items()},
            }

    def merge(self, data: dict) -> None:
        """Add a :meth:`to_dict` record (e.g. from another process)."""
        with self._lock:
            for key in ("total", "calls", "hits"):
                target = getattr(self, key)
                for name, value in data.get(key, {}).items():
                    target[name] += value
            for pair, value in data.get("within", {}).items():
                outer, _, inner = pair.partition(">")
                self.within[(outer, inner)] += value


class Patches:
    """Install wrappers on live objects and undo them in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def attribute(self, owner, attr: str, wrap: Callable) -> None:
        """Replace ``owner.attr`` (a class method or a module global)."""
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def function(self, original: Callable, wrap: Callable) -> None:
        """Replace ``original`` under every name any ``repro`` module binds.

        ``from x import f`` copies the binding, so patching only the
        defining module would miss callers that imported it by name.
        """
        wrapped = wrap(original)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install_program_spans(spans: Spans, patches: Patches) -> None:
    """Wrap every layer boundary an in-process workload crosses."""
    from repro.axiomatic.crosscheck import allowed_outcomes
    from repro.axiomatic.model import AxiomaticModel
    from repro.conformance import judge_conformance
    from repro.drf.drf0 import check_program
    from repro.explore.explorer import explore_program
    from repro.memsys.system import System
    from repro.sc.interleaving import enumerate_results

    install_campaign_spans(spans, patches)
    patches.attribute(
        System, "__init__", lambda f: spans.timed("system_build", f)
    )
    patches.attribute(System, "run", lambda f: spans.timed("system_run", f))
    patches.attribute(
        AxiomaticModel, "allows", lambda f: spans.counted("candidate", f)
    )
    for name, fn in (
        ("allowed", allowed_outcomes),
        ("sc_enumerate", enumerate_results),
        ("drf_check", check_program),
        ("explore", explore_program),
        ("judge", judge_conformance),
    ):
        patches.function(fn, functools.partial(spans.timed, name))


def install_campaign_spans(spans: Spans, patches: Patches) -> None:
    """Wrap the campaign packaging layer (the part a service also runs).

    ``map`` spans the executors' batch call: spec execution, and for a
    process pool also pool start-up and result transfer, which happen in
    the calling process even when the runs themselves do not.
    """
    from repro.campaign.api import run_campaign
    from repro.campaign.cache import ResultCache
    from repro.campaign.executor import ParallelExecutor, SerialExecutor
    from repro.campaign.journal import CampaignJournal
    from repro.campaign.spec import RunSpec
    from repro.litmus.runner import LitmusRunner

    for owner, attr, name in (
        (SerialExecutor, "map", "map"),
        (ParallelExecutor, "map", "map"),
        (RunSpec, "execute", "execute"),
        (RunSpec, "digest", "digest"),
        (ResultCache, "get", "cache_get"),
        (ResultCache, "put", "cache_put"),
        (CampaignJournal, "record", "journal_record"),
        (LitmusRunner, "campaign_specs", "plan"),
    ):
        patches.attribute(owner, attr, functools.partial(spans.timed, name))
    patches.function(run_campaign, functools.partial(spans.timed, "campaign"))


def package_self_time(stats: pstats.Stats) -> Dict[str, float]:
    """cProfile self time summed per top-level ``repro`` package."""
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    totals: Dict[str, float] = defaultdict(float)
    for (filename, _line, _func), row in stats.stats.items():
        path = os.path.abspath(filename)
        if not path.startswith(root):
            continue
        head = path[len(root):].split(os.sep, 1)[0]
        totals[head[:-3] if head.endswith(".py") else head] += row[2]
    return dict(totals)


#: ``repro.obs`` counters the per-layer table reads.
OBS_COUNTERS = (
    "repro_sim_events_total",
    "repro_sc_states_total",
    "repro_sc_pruned_transitions_total",
    "repro_journal_fsyncs_total",
    "repro_cache_hits_total",
    "repro_cache_misses_total",
    "repro_cpu_stall_cycles_total",
)


class Recorder:
    """Everything the traced passes of one run recorded, summed."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.packages: Dict[str, float] = defaultdict(float)
        self.obs: Dict[str, float] = defaultdict(float)

    def add_obs(self, delta) -> None:
        for name in OBS_COUNTERS:
            self.obs[name] += counter_total(delta, name)


@contextlib.contextmanager
def in_process_trace(recorder: Recorder, speed=None):
    """Spans, cProfile and ``repro.obs`` on for the enclosed work.

    ``speed``, the pass's :class:`hostspeed.HostSpeed`, is told the
    profiler so that it can pause it while it samples.
    """
    from repro.obs import METRICS, disable_metrics, enable_metrics

    patches = Patches()
    install_program_spans(recorder.spans, patches)
    enable_metrics(propagate=False)
    before = METRICS.snapshot()
    profile = cProfile.Profile()
    if speed is not None:
        speed.profile = profile
    profile.enable()
    try:
        yield
    finally:
        profile.disable()
        if speed is not None:
            speed.profile = None
        recorder.add_obs(METRICS.snapshot().diff(before))
        disable_metrics()
        patches.undo()
        for name, value in package_self_time(pstats.Stats(profile)).items():
            recorder.packages[name] += value


def counter_total(snapshot, name: str) -> float:
    """Sum of a ``repro.obs`` counter over all its label sets."""
    metric = snapshot.data.get(name) if snapshot is not None else None
    if not metric:
        return 0.0
    return float(sum(
        value for value in metric["samples"].values()
        if isinstance(value, (int, float))
    ))


BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json",
)


def metric_units(section: str) -> Dict[str, str]:
    """``name -> unit`` of one metric list of ``BENCHMARK.json``, in order."""
    with open(BENCHMARK_JSON) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def in_order(table: Dict[str, dict], section: str) -> Dict[str, dict]:
    """``table`` (name -> stats with a ``value``) in ``BENCHMARK.json``
    order, each row given its unit from there.

    Raises if the two name sets differ, so a metric added or renamed in
    one place and not the other fails at once.
    """
    units = metric_units(section)
    if set(table) != set(units):
        raise RuntimeError(
            f"{section} metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(table))}, "
            f"unlisted {sorted(set(table) - set(units))}"
        )
    return {name: dict(table[name], unit=units[name]) for name in units}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(recorder: Recorder, layer: Dict[str, float], passes: int,
                  overhead_pct: float, speed: float) -> Dict[str, dict]:
    """The per-layer table, per traced pass, from everything recorded.

    ``layer`` holds the additive counts the workload checks took from
    the traced passes' outputs (stall cycles, messages, schedules, ...).
    Times are scaled by ``speed``, the traced passes' mean speed factor,
    into the reference seconds ``wall_s`` is given in (see hostspeed.py).
    """
    spans, packages, obs = recorder.spans, recorder.packages, recorder.obs
    total, within = spans.total, spans.within
    n = max(passes, 1)
    events = obs.get("repro_sim_events_total", 0.0)
    stall_cycles = layer.get("stall_cycles") or obs.get(
        "repro_cpu_stall_cycles_total", 0.0
    )
    replay = within.get(("explore", "execute"), 0.0)
    hits = obs.get("repro_cache_hits_total", 0.0)
    lookups = hits + obs.get("repro_cache_misses_total", 0.0)
    values = {
        "sim.self_s": packages.get("sim", 0.0),
        "sim.events": events,
        "cpu.self_s": packages.get("cpu", 0.0),
        "cpu.stall_cycles": stall_cycles,
        "coherence.self_s": packages.get("coherence", 0.0),
        "coherence.sync_nacks": layer.get("sync_nacks", 0),
        "interconnect.self_s": packages.get("interconnect", 0.0),
        "interconnect.messages": layer.get("messages", 0),
        "memsys.self_s": packages.get("memsys", 0.0),
        "memsys.build_s": total.get("system_build", 0.0),
        "models.self_s": packages.get("models", 0.0),
        "core.self_s": packages.get("core", 0.0),
        "axiomatic.allowed_s": total.get("allowed", 0.0),
        "axiomatic.candidates": spans.calls.get("candidate", 0),
        "sc.enumerate_s": total.get("sc_enumerate", 0.0),
        "sc.states": obs.get("repro_sc_states_total", 0.0),
        "sc.pruned_transitions": obs.get(
            "repro_sc_pruned_transitions_total", 0.0
        ),
        "drf.check_s": total.get("drf_check", 0.0),
        "explore.self_s": total.get("explore", 0.0) - replay,
        "explore.replay_s": replay,
        "explore.schedules": layer.get("schedules", 0),
        "explore.pruned_decisions": layer.get("pruned_decisions", 0),
        # Journal appends made from inside ``map`` (the executor's
        # per-result callback) are campaign work, not execution.
        "campaign.self_s": total.get("campaign", 0.0)
        - within.get(("campaign", "map"), 0.0)
        + within.get(("map", "journal_record"), 0.0),
        "campaign.digest_s": total.get("digest", 0.0),
        "campaign.cache_get_s": total.get("cache_get", 0.0),
        "campaign.cache_put_s": total.get("cache_put", 0.0),
        "campaign.journal_record_s": total.get("journal_record", 0.0),
        "campaign.journal_fsyncs": obs.get("repro_journal_fsyncs_total", 0.0),
        "service.submit_s": total.get("submit", 0.0),
        "service.wait_s": total.get("wait", 0.0),
        "litmus.plan_s": total.get("plan", 0.0),
        "conformance.judge_s": total.get("judge", 0.0),
    }
    table = {
        name: {"value": value / n * (speed if name.endswith("_s") else 1)}
        for name, value in values.items()
    }
    # Ratios are not per-pass totals: compute them from the sums.
    table.update({name: {"value": value} for name, value in {
        "sim.us_per_event": 1e6 * speed * _ratio(
            total.get("system_run", 0.0), events
        ),
        "axiomatic.allowed_ratio": _ratio(
            spans.hits.get("candidate", 0), spans.calls.get("candidate", 0)
        ),
        "explore.distinct_ratio": _ratio(
            layer.get("distinct_outcomes", 0), layer.get("schedules", 0)
        ),
        "campaign.cache_hit_ratio": _ratio(hits, lookups),
        "service.dedup_ratio": _ratio(
            layer.get("dedup", 0), layer.get("submissions", 0)
        ),
        "obs.trace_overhead_pct": overhead_pct,
    }.items()})
    return in_order(table, "per_layer")
