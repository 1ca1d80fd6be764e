"""Host time per simulator layer, measured from outside the program.

:class:`LayerTracer` replaces public methods and functions of each
``repro`` layer with timing wrappers (class and module attributes only;
nothing under ``src/`` changes) and restores the originals on
:meth:`LayerTracer.uninstall`.  A stack of open calls turns inclusive times
into self times: a call's self time is its duration minus the time its
wrapped callees took.

Per-record calls (``Simulator.step``, BTB probes, cache fetches, ...) are
aggregated as counts and seconds per function.  Coarse boundaries (set-up,
trace load and save, each warm span, each checkpoint save or load, each
detailed run or sampled interval) additionally keep a real span with its
parent span; spans stay in memory until :meth:`LayerTracer.write_spans`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter


def _targets():
    """``(layer, owner, attribute names, coarse names)`` for every layer.

    Layer names are the ``repro`` package names.  ``Simulator.state_dict``
    and ``load_state_dict`` count as ``sampling``: only checkpointing calls
    them, so their cost is the checkpoint layer's.
    """
    from repro.btb.btb2 import BTB2
    from repro.btb.btbp import BTBP
    from repro.btb.ctb import CTB
    from repro.btb.fit import FIT
    from repro.btb.history import PathHistory
    from repro.btb.pht import PHT
    from repro.btb.storage import BranchTargetBuffer
    from repro.btb.surprise import SurpriseBHT
    from repro.caches.icache import ICache
    from repro.caches.setassoc import SetAssociativeCache
    from repro.core.hierarchy import FirstLevelPredictor
    from repro.core.search import LookaheadSearch
    from repro.engine.simulator import Simulator
    from repro.experiments import common
    from repro.preload.engine import PreloadEngine
    from repro.preload.ordering import OrderingTable, OrderingTracker
    from repro.preload.tracker import TrackerFile
    from repro.preload.transfer import TransferEngine
    from repro.sampling.checkpoint import CheckpointStore
    from repro.workloads import catalog

    return [
        ("experiments", common, ("run_workload",), ("run_workload",)),
        ("workloads", catalog.WorkloadSpec, ("trace", "generate"),
         ("generate",)),
        # Patched where the catalog looks them up, not where defined.
        ("trace", catalog, ("load_trace", "save_trace"),
         ("load_trace", "save_trace")),
        ("sampling", common, ("run_sampled",), ("run_sampled",)),
        ("sampling", CheckpointStore, ("load", "save"), ("load", "save")),
        ("sampling", Simulator, ("state_dict", "load_state_dict"),
         ("load_state_dict",)),
        ("engine", Simulator,
         ("run", "step", "begin_interval", "finish", "warm_run",
          "warm_step"),
         ("run", "begin_interval", "finish", "warm_run")),
        ("core", LookaheadSearch,
         ("restart", "advance_to_branch", "run_ahead"), ()),
        ("core", FirstLevelPredictor,
         ("hits_in_row", "first_hit_in_row", "resolve_content",
          "use_prediction", "surprise_install", "software_preload",
          "preload_write", "train", "record_resolved_branch",
          "probe_level"), ()),
        ("btb", BranchTargetBuffer,
         ("search_row", "lookup", "is_mru", "row_ways", "install",
          "install_lru", "touch", "demote", "remove"), ()),
        ("btb", BTBP, ("write",), ()),
        ("btb", BTB2,
         ("transfer_row", "transfer_span", "transfer_block",
          "write_victim", "write_surprise"), ()),
        ("btb", PHT, ("predict", "update"), ()),
        ("btb", CTB, ("predict", "peek", "update"), ()),
        ("btb", FIT, ("probe", "train"), ()),
        ("btb", SurpriseBHT, ("guess", "update", "record_outcome"), ()),
        ("btb", PathHistory, ("record",), ()),
        ("preload", PreloadEngine,
         ("report_btb1_miss", "report_icache_miss", "report_decode_miss",
          "observe_completion", "advance", "flush"), ()),
        ("preload", TransferEngine, ("enqueue_sector", "advance", "drain"),
         ()),
        ("preload", TrackerFile, ("find", "allocate"), ()),
        ("preload", OrderingTracker, ("observe",), ()),
        ("preload", OrderingTable, ("lookup", "store"), ()),
        ("caches", ICache,
         ("fetch", "prefetch", "contains", "recent_miss_in_block"), ()),
        ("caches", SetAssociativeCache, ("contains", "access", "install"),
         ()),
    ]


class LayerTracer:
    """Timing wrappers over the ``repro`` layers, with self-time stacks."""

    def __init__(self) -> None:
        #: ``(layer, owner, attribute, coarse)`` per wrapped function.
        self._targets = [(layer, owner, name, name in coarse)
                         for layer, owner, names, coarse in _targets()
                         for name in names]
        #: ``(layer, qualified name)`` per wrapped function, by index.
        self.keys = [(layer, self._qualname(owner, name))
                     for layer, owner, name, _ in self._targets]
        self.calls = [0] * len(self.keys)
        self.total = [0.0] * len(self.keys)
        self.self_time = [0.0] * len(self.keys)
        #: Open-call stack of callee-time accumulators; element 0 collects
        #: the time of top-level wrapped calls.
        self._stack: list[float] = [0.0]
        #: Coarse spans: ``[id, parent id, name, layer, start, end]``.
        self.spans: list[list] = []
        self._open_spans: list[int] = []
        self._interval: list | None = None
        self._epoch = perf_counter()
        #: ``PreloadEngine.advance`` calls that issued no BTB2 row read.
        self.idle_advances = 0
        #: ``CheckpointStore.load`` calls that returned a state.
        self.checkpoints_loaded = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Wrap every target; idempotent with :meth:`uninstall`."""
        if self._saved:
            return
        for index, (_, owner, name, coarse) in enumerate(self._targets):
            original = owner.__dict__[name]
            factory = self._coarse if coarse else self._fine
            wrapper = self._probe(self.keys[index][1],
                                  factory(original, index))
            self._saved.append((owner, name, original))
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        self._close_interval()

    @staticmethod
    def _qualname(owner, name: str) -> str:
        """``Class.method`` for methods, the bare name for functions."""
        return f"{owner.__name__}.{name}" if isinstance(owner, type) else name

    # -- wrappers ------------------------------------------------------------

    def _fine(self, original, index: int):
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time
        clock = perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                callees = stack.pop()
                stack[-1] += elapsed
                calls[index] += 1
                total[index] += elapsed
                self_time[index] += elapsed - callees

        return wrapper

    def _coarse(self, original, index: int):
        fine = self._fine(original, index)
        layer, name = self.keys[index]
        is_interval = name == "Simulator.begin_interval"

        def wrapper(*args, **kwargs):
            self._close_interval()
            span = self.open_span(name, layer)
            try:
                return fine(*args, **kwargs)
            finally:
                self.close_span(span)
                if is_interval:
                    # The interval's records follow as per-record steps;
                    # its span ends at the next coarse boundary.
                    self._interval = self.open_span("detailed_interval",
                                                    "engine")
                    self._open_spans.pop()

        return wrapper

    def _probe(self, qualname: str, wrapper):
        """Add the useful-work counters some wrappers feed."""
        if qualname == "PreloadEngine.advance":
            def advance(engine, cycle):
                before = engine.transfer.rows_read
                wrapper(engine, cycle)
                if engine.transfer.rows_read == before:
                    self.idle_advances += 1
            return advance
        if qualname == "CheckpointStore.load":
            def load(*args, **kwargs):
                state = wrapper(*args, **kwargs)
                if state is not None:
                    self.checkpoints_loaded += 1
                return state
            return load
        return wrapper

    # -- spans ---------------------------------------------------------------

    def open_span(self, name: str, layer: str | None) -> list:
        """Open a coarse span under the innermost open one."""
        parent = self.spans[self._open_spans[-1]][0] if self._open_spans \
            else None
        span = [len(self.spans), parent, name, layer,
                perf_counter() - self._epoch, None]
        self.spans.append(span)
        self._open_spans.append(span[0])
        return span

    def close_span(self, span: list) -> None:
        span[5] = perf_counter() - self._epoch
        if self._open_spans and self._open_spans[-1] == span[0]:
            self._open_spans.pop()

    def _close_interval(self) -> None:
        if self._interval is not None:
            self._interval[5] = perf_counter() - self._epoch
            self._interval = None

    def write_spans(self, path) -> None:
        """Write every recorded span as JSON (once, when the run ends)."""
        fields = ("id", "parent", "name", "layer", "start_s", "end_s")
        with open(path, "w") as out:
            json.dump([dict(zip(fields, span)) for span in self.spans], out)

    # -- readout -------------------------------------------------------------

    def take(self) -> "Phase":
        """Aggregates since the last take; counting restarts from zero.

        Call only between top-level calls, never from inside a wrapped one.
        """
        phase = Phase(list(self.keys), list(self.calls), list(self.total),
                      list(self.self_time), self._stack[0],
                      self.idle_advances, self.checkpoints_loaded)
        for values in (self.calls, self.total, self.self_time):
            values[:] = [0] * len(values)
        self._stack[0] = 0.0
        self.idle_advances = self.checkpoints_loaded = 0
        return phase


@dataclass
class Phase:
    """Tracer aggregates over one phase of a run (set-up or timed ops).

    Selectors take name prefixes: ``"LookaheadSearch."`` selects every
    wrapped ``LookaheadSearch`` method, ``"load_trace"`` one function.
    """

    keys: list[tuple[str, str]]
    calls: list[int]
    total: list[float]
    self_time: list[float]
    #: Wall time covered by top-level wrapped calls.
    claimed: float
    idle_advances: int
    checkpoints_loaded: int

    def _sum(self, values, layer=None, prefixes=()):
        return sum(value for (key_layer, name), value in zip(self.keys, values)
                   if (layer is None or key_layer == layer)
                   and (not prefixes or name.startswith(prefixes)))

    def layer_self(self, layer: str) -> float:
        return self._sum(self.self_time, layer)

    def layer_calls(self, layer: str) -> int:
        return self._sum(self.calls, layer)

    def self_of(self, *prefixes: str) -> float:
        return self._sum(self.self_time, prefixes=prefixes)

    def total_of(self, *prefixes: str) -> float:
        return self._sum(self.total, prefixes=prefixes)

    def calls_of(self, *prefixes: str) -> int:
        return self._sum(self.calls, prefixes=prefixes)
