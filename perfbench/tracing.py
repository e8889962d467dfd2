"""Layer tracing and path probing for the benchmark, from outside ``repro``.

The benchmark never edits the program. It wraps public entry points of
each simulator layer -- class methods and module functions -- for the
length of one pass and puts the originals back afterwards:

* :class:`Tracer` times every wrapped call. Each call opens a frame on
  one stack; when it returns, its duration is added to its parent's
  child time, so a layer's *self* time is its span time minus the part
  its wrapped children cover (kernel -> ``words_to_int`` nests). Calls
  at point level or coarser keep one span each (id, name, start, end,
  parent). Per-packet and per-slot calls are millions per pass, so they
  are kept as one rolled-up record per (parent span, layer) with a call
  count and summed duration instead. Spans stay in memory and are
  written out once, at the end.
* :class:`PathProbe` only counts, at block and point boundaries, which
  slot loop ran each point. It runs during the timed passes, where a
  per-call clock would distort the result.

A wrapped call that re-enters its own layer (``schedule_words`` falling
back to ``schedule_masks``) is folded into the outer call, so a layer's
call count is the number of times other code entered it.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager

import repro
from repro.columnar.engine import ColumnarEngine
from repro.columnar.kernels import ColumnarKernel
from repro.core.base import Scheduler
from repro.fastpath import bitops
from repro.fastpath.kernel import BitmaskKernelMixin
from repro.obs.estimators import RateEstimator, StreamingQuantiles
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.sim import simulator
from repro.sim.crossbar import InputQueuedSwitch
from repro.sim.fifo_switch import FIFOSwitch
from repro.sim.metrics import OnlineStats
from repro.sim.outbuf import OutputBufferedSwitch
from repro.sim.queues import PacketQueue, VOQSet
from repro.sweep import merge, runner

#: Layer name of the tracer's root frame: the benchmark harness's own code.
ROOT = "harness"

#: Layers that keep one span per call (all others are rolled up).
SPAN_LAYERS = frozenset(
    {
        ROOT,
        "sweep",
        "sweep.merge",
        "simulator",
        "simulator.build",
        "columnar.engine",
        "crossbar",
        "obs.snapshot",
    }
)


def subclasses(base: type) -> list[type]:
    """``base`` and every subclass currently defined, depth first."""
    found = [base]
    for sub in base.__subclasses__():
        found.extend(subclasses(sub))
    return found


def owners(classes: list[type], name: str) -> list[type]:
    """The distinct classes whose own ``__dict__`` defines ``name``
    for the given classes (each resolved along its MRO)."""
    result: list[type] = []
    for cls in classes:
        for klass in cls.__mro__:
            if name in klass.__dict__:
                if klass not in result:
                    result.append(klass)
                break
    return result


def fast_kernel_classes() -> list[type]:
    """Classes of every registered fastpath kernel."""
    return [
        type(repro.make_fast_scheduler(name, 2, iterations=1))
        for name in repro.fast_schedulers()
    ]


class Patches:
    """Replace attributes of classes and modules, then put them back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def method(self, cls: type, name: str, wrapper) -> None:
        original = cls.__dict__[name]
        self._saved.append((cls, name, original))
        setattr(cls, name, wrapper(original))

    def function(self, original, wrapper) -> None:
        """Replace every reference to a module-level function held by a
        loaded ``repro`` module, so ``from x import f`` callers see it."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Tracer:
    """Self-time accounting over nested wrappers (see module docstring)."""

    #: Layer name of the root frame.
    root_layer = ROOT

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: layer -> [calls, self seconds, total seconds]
        self.layers: dict[str, list] = {}
        #: Named event counts taken at layer boundaries.
        self.counts: dict[str, int] = {}
        #: (span id, layer, start, end, parent span id or None)
        self.spans: list[tuple] = []
        #: (parent span id, parent layer, layer) -> [calls, total seconds]
        self.rollups: dict[tuple, list] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._patches = Patches()

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn, layer: str, hook=None):
        """Return ``fn`` wrapped as one call into ``layer``.

        ``hook(args, result)`` runs after every call, also outside a root
        frame or on a folded re-entry, to take counts at the boundary.
        """
        stack = self._stack
        clock = self.clock
        stats = self.layers.setdefault(layer, [0, 0.0, 0.0])
        keep = layer in SPAN_LAYERS
        spans = self.spans
        rollups = self.rollups
        new_id = self._new_id

        def traced(*args, **kwargs):
            if not stack or stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                parent = stack[-1]
                frame = [layer, clock(), 0.0, new_id() if keep else parent[3]]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    duration = end - frame[1]
                    stats[0] += 1
                    stats[1] += duration - frame[2]
                    stats[2] += duration
                    parent[2] += duration
                    if keep:
                        spans.append((frame[3], layer, frame[1], end, parent[3]))
                    else:
                        key = (parent[3], parent[0], layer)
                        rolled = rollups.get(key)
                        if rolled is None:
                            rollups[key] = [1, duration]
                        else:
                            rolled[0] += 1
                            rolled[1] += duration
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def root(self):
        """Open the root frame; everything traced must run inside it."""
        frame = [ROOT, self.clock(), 0.0, self._new_id()]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - frame[1]
            stats = self.layers.setdefault(ROOT, [0, 0.0, 0.0])
            stats[0] += 1
            stats[1] += duration - frame[2]
            stats[2] += duration
            self.spans.append((frame[3], ROOT, frame[1], end, None))

    def calls(self, layer: str) -> int:
        return self.layers.get(layer, [0, 0.0, 0.0])[0]

    def self_s(self, layer: str) -> float:
        return self.layers.get(layer, [0, 0.0, 0.0])[1]

    def total_s(self, layer: str) -> float:
        return self.layers.get(layer, [0, 0.0, 0.0])[2]

    # -- installing the wrappers ------------------------------------

    def _methods(self, classes: list[type], names: tuple[str, ...], layer: str, hook=None):
        for name in names:
            for cls in owners(classes, name):
                self._patches.method(
                    cls, name, lambda fn, layer=layer: self.wrap(fn, layer, hook)
                )

    def install(self) -> None:
        """Wrap every layer boundary the benchmark attributes time to."""
        count = self.count

        def pq_push(args, accepted):
            if not accepted:
                count("queues.pq_drops")

        def voq_has_space(args, has_space):
            if not has_space:
                count("queues.voq_full")

        def block(args, result):
            count("crossbar.slots", len(args[2]))

        def engine(args, result):
            count("columnar.engine_replicates", len(args[0].seeds))

        def sweep(args, result):
            count("sweep.points", result.report.total_points)

        self._methods(subclasses(repro.TrafficPattern), ("arrivals",), "traffic")
        self._methods([PacketQueue], ("head", "pop"), "queues.pq")
        self._methods([PacketQueue], ("push",), "queues.pq", pq_push)
        self._methods([VOQSet], ("push", "pop", "request_matrix"), "queues.voq")
        self._methods([VOQSet], ("has_space",), "queues.voq", voq_has_space)
        self._methods(
            fast_kernel_classes(), ("schedule_masks", "schedule_words"), "fastpath"
        )
        self._methods([BitmaskKernelMixin], ("schedule",), "fastpath.pack")
        self._methods([Scheduler], ("schedule",), "reference")
        self._methods([OnlineStats], ("add",), "stats")
        self._methods([InputQueuedSwitch], ("run_slots",), "crossbar", block)
        self._methods([InputQueuedSwitch], ("step",), "crossbar.step")
        self._methods([FIFOSwitch, OutputBufferedSwitch], ("step",), "dedicated")
        self._methods([ColumnarEngine], ("run",), "columnar.engine", engine)
        self._methods(subclasses(ColumnarKernel), ("schedule_batch",), "columnar.kernel")
        self._methods([runner.ParallelRunner], ("run",), "sweep", sweep)
        self._methods([Counter], ("inc",), "obs")
        self._methods([Histogram], ("observe",), "obs")
        self._methods([RateEstimator], ("observe",), "obs")
        self._methods([StreamingQuantiles], ("add",), "obs")
        self._methods([MetricsRegistry], ("snapshot",), "obs.snapshot")
        functions = (
            (bitops.words_to_int, "fastpath.words_to_int"),
            (simulator.build_switch, "simulator.build"),
            (simulator.run_simulation, "simulator"),
            (repro.run_replicates, "columnar.engine"),
            (merge.merge_results, "sweep.merge"),
        )
        for fn, layer in functions:
            self._patches.function(fn, self.wrap(fn, layer))

    def restore(self) -> None:
        self._patches.restore()

    def dump(self) -> dict:
        """JSON-serialisable spans, rolled-up calls and layer totals."""
        return {
            "spans": [list(span) for span in self.spans],
            "rollups": [
                [parent, parent_layer, layer, calls, total]
                for (parent, parent_layer, layer), (calls, total) in self.rollups.items()
            ],
            "layers": {
                name: {"calls": calls, "self_s": self_s, "total_s": total}
                for name, (calls, self_s, total) in self.layers.items()
            },
            "counts": dict(self.counts),
        }


def _replicate_seeds(arguments: dict) -> list[int]:
    """The seeds a ``run_replicates`` call runs, as it derives them."""
    if arguments.get("seeds") is not None:
        return list(arguments["seeds"])
    base = arguments["config"].seed
    return list(range(base, base + arguments["replicates"]))


class PathProbe:
    """Counts which slot loop and engine ran each point.

    One record per ``run_simulation`` call (``kind`` ``"point"``) and per
    ``run_replicates`` block (``kind`` ``"replicate"``), with the crossbar
    slots driven, the slots that left the fast loop for ``step``, and the
    replicates the columnar engine advanced.
    """

    def __init__(self) -> None:
        self.slots = 0
        self.steps = 0
        self.columnar_replicates = 0
        self.records: list[dict] = []
        self._patches = Patches()

    def _counting(self, original, field: str, amount):
        """Count a call only once it returns: a columnar block whose
        engine raises partway (and reruns serially) was not columnar."""

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            setattr(self, field, getattr(self, field) + amount(args))
            return result

        return counted

    def _recording(self, original, kind: str, seeds):
        signature = inspect.signature(original)

        def recorded(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            before = (self.slots, self.steps, self.columnar_replicates)
            result = original(*args, **kwargs)
            self.records.append(
                {
                    "kind": kind,
                    "scheduler": bound.arguments["scheduler_name"],
                    "load": bound.arguments["load"],
                    "seeds": seeds(bound.arguments),
                    "slots": self.slots - before[0],
                    "steps": self.steps - before[1],
                    "columnar": self.columnar_replicates - before[2],
                }
            )
            return result

        return recorded

    def install(self) -> None:
        patches = self._patches
        patches.method(
            InputQueuedSwitch,
            "run_slots",
            lambda fn: self._counting(fn, "slots", lambda args: len(args[2])),
        )
        patches.method(
            InputQueuedSwitch, "step", lambda fn: self._counting(fn, "steps", lambda args: 1)
        )
        patches.method(
            ColumnarEngine,
            "run",
            lambda fn: self._counting(
                fn, "columnar_replicates", lambda args: len(args[0].seeds)
            ),
        )
        patches.function(
            simulator.run_simulation,
            self._recording(
                simulator.run_simulation, "point", lambda a: [a["config"].seed]
            ),
        )
        patches.function(
            repro.run_replicates,
            self._recording(repro.run_replicates, "replicate", _replicate_seeds),
        )

    def restore(self) -> None:
        self._patches.restore()
