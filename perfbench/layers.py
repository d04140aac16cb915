"""Per-layer tracing for the traced run, from the benchmark's own files.

Nothing is added inside ``src/``: :class:`Tracer` wraps each layer's
public functions in place for the duration of the traced pass and puts
the originals back afterwards, so timed runs never see a wrapper.

* Class attributes (methods, properties, class- and static methods) are
  replaced on the class that defines them.
* Module functions are replaced on their home module *and* on every
  ``repro`` module that imported them by name, which is how most call
  sites reach them.
* A layer's *busy* time counts only its outermost calls (a model whose
  ``lost_in`` calls its own ``is_lost`` is busy once); its *self* time
  is its own time minus the time of nested wrapped calls, so self times
  partition the traced wall time without double counting, and the rest
  is the workload's unattributed share.

Targets missing at some commit (a refactor renamed them) are skipped
and listed in :attr:`Tracer.missing`; the layer then reports zero calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


def _decisions(result: Any) -> int:
    """Slots decided by one fault-model call (a bool or a batch)."""
    return 1 if isinstance(result, bool) else len(result)


def _quorum_ok(result: Any) -> int:
    return int(getattr(result, "outcome", None) == "ok")


def _cache_hit(result: Any) -> int:
    return int(bool(result[1]))


@dataclass(frozen=True)
class Layer:
    """One layer: a metric stem and the callables that bound it.

    ``targets`` are ``"module:attr"`` or ``"module:Class.attr"``;
    ``calls_name`` overrides the default ``<name>_calls`` metric;
    ``tally`` maps an outermost call's result to a count summed into
    ``tally_name``.
    """

    name: str
    targets: tuple[str, ...]
    calls_name: str | None = None
    tally: Callable[[Any], int] | None = None
    tally_name: str | None = None


_FAULT_MODELS = ("NoFaults", "BernoulliFaults", "BurstFaults",
                 "AdversarialFaults")

#: The layers, bottom up.  The README maps each one to the end-to-end
#: metric it should move and the workload that exercises it.
LAYERS: tuple[Layer, ...] = (
    Layer(
        "sim.faults.decide",
        tuple(
            f"repro.sim.faults:{model}.{method}"
            for model in _FAULT_MODELS
            for method in ("is_lost", "lost_in")
        ) + ("repro.sim.faults:lost_in",),
        tally=_decisions,
        tally_name="sim.faults.decisions",
    ),
    Layer("bdisk.index.build", ("repro.bdisk.program_index:ProgramIndex.__init__",)),
    Layer("bdisk.program.files", ("repro.bdisk.program:BroadcastProgram.files",)),
    Layer("traffic.tables.build", (
        "repro.traffic.cohorts:RetrievalTables.build",
        "repro.traffic.cohorts:MultiChannelTables.build",
    )),
    Layer("traffic.shard", (
        "repro.traffic.engine_soa:simulate_shard_soa",
        "repro.traffic.simulate:_simulate_shard",
    )),
    Layer("traffic.arrivals", (
        "repro.traffic.cohorts:arrival_vector",
        "repro.traffic.cohorts:file_draw",
        "repro.traffic.cohorts:ThinkSampler.sample",
    )),
    # Retrieval resolution: LUT lookups on clean channels, fault-resolver
    # rounds on faulty ones (self time = the resolver remainder once its
    # fault decisions are taken out).
    Layer("traffic.lookup", (
        "repro.traffic.cohorts:RetrievalTables.lookup",
        "repro.traffic.cohorts:RetrievalTables.lookup_one",
        "repro.traffic.engine_soa:_FaultResolver.resolve",
    )),
    Layer("sim.client.retrieve", ("repro.sim.client:retrieve",)),
    Layer("sim.client.choose_channel", ("repro.sim.client:choose_channel",)),
    Layer("rtdb.versioned_read", ("repro.rtdb.updates:retrieve_versioned",)),
    Layer(
        "rtdb.quorum_read",
        ("repro.rtdb.updates:retrieve_versioned_quorum",),
        calls_name="rtdb.quorum_reads",
        tally=_quorum_ok,
        tally_name="rtdb.quorum_ok",
    ),
    Layer("core.solve", (
        "repro.core.solver:solve",
        "repro.core.solver:solve_nice_conjunct",
    ), calls_name="core.solves"),
    Layer(
        "sweep.cache.design_for",
        ("repro.sweep.cache:SolveCache.design_for",),
        tally=_cache_hit,
        tally_name="sweep.cache.hits",
    ),
    Layer("api.fingerprint", ("repro.api.scenario:Scenario.design_fingerprint",),
          calls_name="api.fingerprints"),
    Layer("api.simulate", ("repro.api.engine:BroadcastEngine.simulate",)),
    Layer("api.payload_checks", ("repro.api.engine:BroadcastEngine.payload_checks",)),
    Layer("ida.disperse", ("repro.ida.dispersal:disperse",)),
    Layer("sweep.store.append", (
        "repro.sweep.store:RunStore.append",
        "repro.sweep.store:RunStore.append_many",
    ), calls_name="sweep.store.appends"),
    Layer("server.apply", ("repro.server.server:BroadcastServer.apply",)),
    Layer("server.splice.find", ("repro.server.splice:find_splice_slot",)),
    Layer("server.splice.check", ("repro.server.splice:check_splice",),
          calls_name="server.splice.checks"),
    Layer("server.airing.build", ("repro.server.airing:AirSchedule.__init__",)),
    Layer("server.airing.retrieve", (
        "repro.server.airing:AirSchedule.retrieve",
        "repro.server.airing:AirSchedule.retrieve_versioned",
    )),
    Layer("server.resplice", (
        "repro.server.sessions:LiveSession.resplice",
        "repro.server.sessions:LiveTransactionSession.resplice",
    ), calls_name="server.resplices"),
    Layer("server.asrun.record", ("repro.server.asrun:AsRunLog.record",)),
)


@dataclass
class LayerStats:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    tally: int = 0


@dataclass
class Tracer:
    """Installs the layer wrappers; collects calls, busy and self time."""

    layers: tuple[Layer, ...] = LAYERS
    stats: dict[str, LayerStats] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    _restore: list[tuple[Any, str, Any]] = field(default_factory=list)
    _stack: list[list[float]] = field(default_factory=list)
    _depth: dict[str, int] = field(default_factory=dict)
    _paused: list[bool] = field(default_factory=lambda: [False])

    def __post_init__(self) -> None:
        for layer in self.layers:
            self.stats[layer.name] = LayerStats()
            self._depth[layer.name] = 0

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def _wrap(self, layer: Layer, fn: Callable[..., Any]) -> Callable[..., Any]:
        stats = self.stats[layer.name]
        stack = self._stack
        depth = self._depth
        name = layer.name
        tally = layer.tally
        clock = time.perf_counter
        paused = self._paused

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if paused[0]:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            begin = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - begin
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][0] += elapsed
                stats.self_time += elapsed - frame[0]
                outermost = depth[name] == 0
                if outermost:
                    stats.calls += 1
                    stats.busy += elapsed
            if outermost and tally is not None:
                stats.tally += tally(result)
            return result

        wrapper.__perfbench_original__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _install_target(self, layer: Layer, target: str) -> None:
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(target)
            return
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = None if owner is None else owner.__dict__.get(attr)
            if raw is None:
                self.missing.append(target)
                return
            if isinstance(raw, property):
                wrapped: Any = property(
                    self._wrap(layer, raw.fget), raw.fset, raw.fdel, raw.__doc__
                )
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(layer, raw.__func__))
            else:
                wrapped = self._wrap(layer, raw)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        original = module.__dict__.get(attr)
        if original is None:
            self.missing.append(target)
            return
        wrapped = self._wrap(layer, original)
        # Every module that imported the function by name holds its own
        # reference; rebind each one.
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if namespace is None or not getattr(other, "__name__", "").startswith(
                "repro"
            ):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._restore.append((other, key, original))
                    setattr(other, key, wrapped)

    def install(self) -> None:
        """Wrap every layer target (idempotence is not supported)."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        for layer in self.layers:
            for target in layer.targets:
                self._install_target(layer, target)

    def uninstall(self) -> None:
        """Put every original back, last wrapped first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Calls made in the block pass through the wrappers unrecorded
        (the harness's own output checks)."""
        self._paused[0] = True
        try:
            yield
        finally:
            self._paused[0] = False

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """``name -> (value, unit)`` for every layer."""
        out: dict[str, tuple[float, str]] = {}
        for layer in self.layers:
            stats = self.stats[layer.name]
            out[f"{layer.name}_s"] = (stats.busy, "s")
            out[f"{layer.name}_self_s"] = (stats.self_time, "s")
            out[layer.calls_name or f"{layer.name}_calls"] = (stats.calls, "count")
            if layer.tally_name:
                out[layer.tally_name] = (stats.tally, "count")
        return out

    def attributed_seconds(self) -> float:
        """Wall time covered by some wrapped call (sum of self times)."""
        return sum(stats.self_time for stats in self.stats.values())


def _is_wrapper(value: Any) -> bool:
    if isinstance(value, property):
        value = value.fget
    value = getattr(value, "__func__", value)
    return hasattr(value, "__perfbench_original__")


def originals_restored() -> bool:
    """True when no ``repro`` module or class still holds a wrapper."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for value in list(vars(module).values()):
            if _is_wrapper(value):
                return False
            if isinstance(value, type) and any(
                _is_wrapper(attr) for attr in vars(value).values()
            ):
                return False
    return True
