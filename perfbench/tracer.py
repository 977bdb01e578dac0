"""Outside-in tracer for the ``repro`` package.

The tracer wraps the public functions and methods of every imported
``repro.*`` module from the benchmark's own files; nothing under ``src/``
is edited.  Each call of a wrapped function records a span (name, start,
end, parent) in memory; spans are folded into per-name self time (span
time minus the time of its child spans) and written to disk when the
benchmark ends.

Three details decide whether the numbers are right:

* Every binding a caller looks up is patched, not only the defining
  module: ``repro.core.cognition.assess_leakage`` and
  ``repro.core.pipeline.assess_leakage`` are separate globals that both
  point at the same function object.
* Generator functions (``PowerTraceGenerator.generate_stream``) are left
  alone: a call span would time only the generator's creation.  Their
  work shows in the per-chunk ``generate`` spans they drive.
* Only the main thread is traced.  The campaign worker runs in-process,
  so the pickled ``run_shard_task`` reference in a queue payload resolves
  to the wrapped function; the lease-renewal daemon thread passes through
  untraced.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from types import ModuleType
from typing import Callable, Dict, Iterable, Iterator, List, Optional

#: Accessors called thousands to a hundred thousand times per pass with a
#: body of a microsecond or two.  A span around them would cost about as
#: much as the call; their time stays in the caller's self time.
HOT_ACCESSORS = frozenset({
    "features.encoding.GateTypeEncoder.encode",
    "netlist.cell_library.CellLibrary.area",
    "netlist.cell_library.CellLibrary.delay",
    "netlist.cell_library.CellLibrary.is_maskable",
    "netlist.cell_library.CellLibrary.leakage_power",
    "netlist.cell_library.CellLibrary.switching_energy",
    "netlist.cell_library.CellSpec.scaled_area",
    "netlist.cell_library.CellSpec.scaled_delay",
    "netlist.cell_library.CellSpec.scaled_energy",
    "netlist.netlist.Netlist.add_primary_input",
    "netlist.netlist.Netlist.driver_of",
    "netlist.netlist.Netlist.fanin_gates",
    "netlist.netlist.Netlist.fanout_gates",
    "netlist.netlist.Netlist.gate",
    "netlist.netlist.Netlist.sinks_of",
    "power.model.GatePowerModel.input_glitch_factor",
    "power.model.GatePowerModel.unmasked_coefficients",
    "simulation.compiled.GateSegment.__init__",
    "simulation.logic.supports_static_dispatch",
})

#: Private functions that own a named layer and are traced as well.
EXTRA_TARGETS = (
    ("repro.tvla.sharding", "_shard_moments_rebuilt"),
)


class Tracer:
    """In-memory span recorder with per-call counter hooks.

    Spans are ``[name, start_ns, end_ns, parent_index]`` lists appended
    in call order.  ``hooks`` maps a span name to a callable
    ``hook(tracer, args, kwargs, result)`` that bumps :attr:`counts`
    after the call returns.
    """

    def __init__(self, hooks: Optional[Dict[str, Callable]] = None) -> None:
        self.hooks = dict(hooks or {})
        self.enabled = False
        self._stack: List[int] = []
        self._main = threading.get_ident()
        self._patched: List[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Drop the recorded spans and counts."""
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def region(self, name: str) -> Iterator[None]:
        """Trace inside a span recorded by the benchmark itself.

        Tracing is on only inside regions, so every traced call has a
        region span as its root.
        """
        self.enabled = True
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            self.enabled = False

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return a span-recording wrapper of ``fn`` named ``name``."""
        hook = self.hooks.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    def install(self, callers: Iterable[ModuleType] = ()) -> List[str]:
        """Wrap every public function of the imported ``repro`` modules.

        ``callers`` are further modules (the benchmark's own) whose
        bindings of ``repro`` functions are re-pointed at the wrappers.
        Returns the sorted span names that were installed.
        """
        modules = {name: module for name, module in sys.modules.items()
                   if name.startswith("repro.") and module is not None}
        wrappers: Dict[int, Callable] = {}
        names: List[str] = []

        def add_function(module_name, owner, attr, fn):
            name = f"{module_name[len('repro.'):]}.{fn.__qualname__}"
            if name in HOT_ACCESSORS or inspect.isgeneratorfunction(fn):
                return
            wrapper = self.wrap(name, fn)
            wrappers[id(fn)] = wrapper
            raw = owner.__dict__[attr]
            self._patched.append((owner, attr, raw))
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(wrapper))
            elif isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(wrapper))
            else:
                setattr(owner, attr, wrapper)
            names.append(name)

        for module_name, module in sorted(modules.items()):
            source = getattr(module, "__file__", None)
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and not attr.startswith("_") \
                        and value.__module__ == module_name:
                    add_function(module_name, module, attr, value)
                elif inspect.isclass(value) and not attr.startswith("_") \
                        and value.__module__ == module_name:
                    for method_name, raw in list(vars(value).items()):
                        if method_name.startswith("_") \
                                and method_name != "__init__":
                            continue
                        fn = raw.__func__ if isinstance(
                            raw, (staticmethod, classmethod)) else raw
                        if not inspect.isfunction(fn) \
                                or fn.__code__.co_filename != source:
                            continue  # properties, dataclass-generated code
                        add_function(module_name, value, method_name, fn)
        for module_name, attr in EXTRA_TARGETS:
            module = modules.get(module_name)
            if module is not None:
                add_function(module_name, module, attr, getattr(module, attr))

        # Re-point every other binding of a wrapped function (``from x
        # import f`` copies, package re-exports) at its wrapper.
        for module in list(modules.values()) + list(callers):
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return sorted(names)

    def uninstall(self) -> None:
        """Restore every patched binding."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per-name ``{"calls", "total_s", "self_s"}`` over all spans."""
        child = child_ns(self.spans)
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, parent) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += (end - start) * 1e-9
            row["self_s"] += (end - start - child[index]) * 1e-9
        return dict(table)


def child_ns(spans: List[list]) -> List[int]:
    """Per span, the nanoseconds its direct children took."""
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return child
