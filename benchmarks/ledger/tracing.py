"""Outside-in layer tracing: wrappers installed on ``repro``'s public calls.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
imports every ``repro`` module, then replaces each target callable with a
timing wrapper:

* a module-level function is rebound on its defining module and on every
  ``repro.*`` module that imported the name;
* a method is patched on its class (policy objects are never wrapped or
  subclassed, so ``vector_capable``'s exact-type checks keep seeing the
  stock classes).

A target that no longer exists is skipped and its layer reports 0, so
deleting code under ``src/`` never breaks the benchmark.

Exclusive (self) time comes from a span stack: a timed call pushes a
child-time accumulator, and on return its self time is its duration minus
the time its wrapped children took.  Coarse ("span") calls are always
timed and also keep an in-memory span ``[name, layer, start_ns, end_ns,
parent, attrs]`` that :meth:`Tracer.write_chrome_trace` writes out as
Chrome trace-event JSON.  Per-slot ("slot") calls are counted every time
but timed on a fixed pseudo-random one in :data:`SAMPLE_EVERY` calls,
because a timed call costs several times an untimed one; the untimed
calls' self time is estimated from the timed ones (see
:meth:`Tracer.self_seconds`).
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import random
import sys
import time
import zlib
from contextlib import contextmanager

#: Layers in report order; ``other`` (the unattributed remainder) is
#: derived, not wrapped.
LAYERS = (
    "traffic",
    "analysis.feasibility",
    "analysis.metrics",
    "core.offline",
    "core",
    "core.stagekernel",
    "sim.engine",
    "sim.vector",
    "sim.recorder",
    "sim.invariants",
    "faults",
    "obs",
    "verify",
    "verify.oracle",
    "runner.cache",
    "runner.batch",
    "experiments",
    "cli_report",
)

SPAN = "span"  # coarse call: always timed, kept as a span
SLOT = "slot"  # per-slot call: counted always, timed when sampled

#: A SLOT wrapper times about one call in this many.
SAMPLE_EVERY = 16
#: Length of each SLOT wrapper's sampling pattern (a power of two).
_PATTERN = 4096

#: ``(layer, module, attribute, kind)``; ``Class.method`` patches a class.
TARGETS = (
    ("traffic", "repro.traffic.feasible", "generate_feasible_stream", SPAN),
    ("traffic", "repro.traffic.multi", "generate_multi_feasible", SPAN),
    ("analysis.feasibility", "repro.analysis.feasibility", "check_stream_against_profile", SPAN),
    ("analysis.feasibility", "repro.analysis.feasibility", "check_multi_against_profiles", SPAN),
    ("analysis.feasibility", "repro.analysis.feasibility", "simulate_fifo_delay", SPAN),
    ("core.stagekernel", "repro.core.stagekernel", "StageKernel.scan", SLOT),
    ("core.stagekernel", "repro.core.stagekernel", "StageKernel.advance", SLOT),
    ("sim.engine", "repro.sim.engine", "run_single_session", SPAN),
    ("sim.engine", "repro.sim.engine", "run_multi_session", SPAN),
    ("sim.vector", "repro.sim.vector", "EngineState.step", SPAN),
    ("sim.vector", "repro.sim.vector", "EngineState.feed", SPAN),
    ("sim.vector", "repro.sim.vector", "MultiEngineState.step", SPAN),
    ("sim.vector", "repro.sim.vector", "run_batched", SPAN),
    ("sim.recorder", "repro.sim.recorder", "SingleSessionRecorder.finalize", SPAN),
    ("sim.recorder", "repro.sim.recorder", "MultiSessionRecorder.finalize", SPAN),
    ("faults", "repro.faults.plan", "FaultPlan.capacity_factor", SLOT),
    ("faults", "repro.faults.plan", "FaultPlan.ingress_factor", SLOT),
    ("faults", "repro.faults.signaling", "UnreliableSignaling.decide", SLOT),
    ("faults", "repro.faults.signaling", "UnreliableMultiSignaling.step", SLOT),
    ("faults", "repro.faults.signaling", "HeadroomPolicy.decide", SLOT),
    ("obs", "repro.obs.registry", "Histogram.observe", SLOT),
    ("verify", "repro.verify.certificates", "certify", SPAN),
    ("verify", "repro.verify.certificates", "certify_single", SPAN),
    ("verify", "repro.verify.certificates", "certify_multi", SPAN),
    ("verify", "repro.verify.fairness", "certify_max_min_trace", SPAN),
    ("verify", "repro.verify.fairness", "certify_tier_trace", SPAN),
    ("verify.oracle", "repro.verify.oracle", "min_changes_oracle", SPAN),
    ("runner.cache", "repro.runner.cache", "ContentCache.load_json", SPAN),
    ("runner.cache", "repro.runner.cache", "ContentCache.load_arrays", SPAN),
    ("runner.cache", "repro.runner.cache", "ContentCache.store_json", SPAN),
    ("runner.cache", "repro.runner.cache", "ContentCache.store_arrays", SPAN),
    ("runner.batch", "repro.runner.batch", "run_batch", SPAN),
    ("experiments", "repro.experiments.registry", "run", SPAN),
    ("cli_report", "repro.cli_report", "render_report", SPAN),
)

#: Layers whose targets are every public function of these modules.
PUBLIC_FUNCTION_LAYERS = (
    ("analysis.metrics", ("repro.analysis.metrics",)),
    ("core.offline", ("repro.core.offline", "repro.core.offline_multi", "repro.core.opt_bruteforce")),
)

#: Bulk commits are counted (not timed) through both recorders.
KEEPUP_TARGETS = (
    ("repro.sim.recorder", "SingleSessionRecorder.record_keepup_block"),
    ("repro.sim.recorder", "MultiSessionRecorder.record_keepup_block"),
)

_VECTOR_STEPS = ("EngineState.step", "MultiEngineState.step")


def import_everything() -> None:
    """Import every ``repro`` module, so every importer of a target exists
    (``__main__`` runs the CLI, so it is left out)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def _resolve(module_name: str, attribute: str):
    """``(owner, name, original)`` for a target, or None when it is gone."""
    module = sys.modules.get(module_name)
    if module is None:
        return None
    owner = module
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(name)
    else:
        original = getattr(owner, name, None)
    if not callable(original) or isinstance(original, (staticmethod, classmethod)):
        return None
    return owner, name, original


def _public_functions(module_name: str):
    module = sys.modules.get(module_name)
    if module is None:
        return []
    return sorted(
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and callable(value)
        and not isinstance(value, type)
        and getattr(value, "__module__", None) == module_name
    )


def _policy_methods():
    """``(module, "Class.method")`` for every concrete policy decide/step
    defined in ``repro.core``."""
    from repro.core.allocator import BandwidthPolicy, MultiSessionPolicy

    found = []
    for module_name, module in sorted(sys.modules.items()):
        if not module_name.startswith("repro.core.") or module is None:
            continue
        for cls_name, cls in sorted(vars(module).items()):
            if not isinstance(cls, type) or cls.__module__ != module_name:
                continue
            if not issubclass(cls, (BandwidthPolicy, MultiSessionPolicy)):
                continue
            for method in ("decide", "step"):
                function = cls.__dict__.get(method)
                if callable(function) and not getattr(function, "__isabstractmethod__", False):
                    found.append((module_name, f"{cls_name}.{method}"))
    return found


def _monitor_methods():
    """``(module, "Class.hook")`` for every per-slot monitor hook."""
    module_name = "repro.sim.invariants"
    module = sys.modules.get(module_name)
    monitor = getattr(module, "Monitor", None)
    if monitor is None:
        return []
    found = []
    for cls_name, cls in sorted(vars(module).items()):
        if isinstance(cls, type) and issubclass(cls, monitor):
            for hook in ("on_single_slot", "on_multi_slot"):
                if hook in cls.__dict__:
                    found.append((module_name, f"{cls_name}.{hook}"))
    return found


def all_targets():
    """Every ``(layer, module, attribute, kind)`` the tracer will try,
    each ``(module, attribute)`` once."""
    targets = list(TARGETS)
    for layer, modules in PUBLIC_FUNCTION_LAYERS:
        for module_name in modules:
            targets.extend(
                (layer, module_name, name, SPAN) for name in _public_functions(module_name)
            )
    targets.extend(("core", module, attribute, SLOT) for module, attribute in _policy_methods())
    targets.extend(
        ("sim.invariants", module, attribute, SLOT) for module, attribute in _monitor_methods()
    )
    seen = set()
    unique = []
    for target in targets:
        if target[1:3] not in seen:
            seen.add(target[1:3])
            unique.append(target)
    return unique


#: The SLOT wrapper.  It is generated with the target's own parameter
#: list when that list is plain: a ``*args, **kwargs`` wrapper costs
#: several times more per call, and these run once per simulated slot.
_SLOT_WRAPPER = """
def wrapper({params}):
    calls = stats[1]
    stats[1] = calls + 1
    if skip[calls & mask]:
        return fn({params})
    callers = stats[3]
    caller = owners[-1]
    callers[caller] = callers.get(caller, 0) + 1
    stack.append(0)
    owners.append(me)
    start = clock()
    try:
        return fn({params})
    finally:
        elapsed = clock() - start
        owners.pop()
        stats[0] += elapsed - stack.pop()
        stats[2] += 1
        stack[-1] += elapsed
"""

_WRAPPER_NAMES = frozenset(
    ("wrapper", "calls", "stats", "skip", "mask", "fn", "callers", "caller", "stack",
     "owners", "me", "start", "clock", "elapsed")
)


def _plain_params(fn) -> str:
    """``fn``'s parameter names when they are all positional without
    defaults (and clash with no wrapper local), else ``*args, **kwargs``."""
    try:
        parameters = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):
        return "*args, **kwargs"
    names = []
    for parameter in parameters:
        if (
            parameter.kind is not inspect.Parameter.POSITIONAL_OR_KEYWORD
            or parameter.default is not inspect.Parameter.empty
            or parameter.name in _WRAPPER_NAMES
        ):
            return "*args, **kwargs"
        names.append(parameter.name)
    return ", ".join(names)


class Tracer:
    """Per-layer exclusive time, call counts and coarse spans.

    Usage: :meth:`install`, then run work inside :meth:`region` blocks,
    then :meth:`uninstall`.  Wall time is counted only inside regions, so
    a wrapped call outside one shows up in :meth:`attribution_error`.
    """

    def __init__(self):
        self._clock = time.perf_counter_ns
        #: layer -> [self_ns, calls] of its SPAN wrappers
        self.layers = {layer: [0, 0] for layer in LAYERS}
        #: ``(layer, [timed_self_ns, calls, timed_calls, {caller: timed}])``
        #: per SLOT wrapper; a caller is a SPAN layer (or ``other``) or
        #: the index of a SLOT wrapper.
        self._sampled: list[tuple[str, list]] = []
        #: Child-time accumulators and their owners (SPAN layer, ``other``
        #: or SLOT index); index 0 is the open region's root.
        self._stack = [0]
        self._owners = ["other"]
        self._open = [-1]
        #: ``[name, layer, start_ns, end_ns, parent_index, attrs]``
        self.spans: list[list] = []
        #: Bulk commits seen by the recorders: ``[slots, blocks]``.
        self.keepup = [0, 0]
        self.region_ns = 0
        self.top_ns = 0
        self.installed: list[tuple[object, str, object]] = []
        self.skipped: list[str] = []
        self._origin = None

    # -- wrappers ----------------------------------------------------------

    def _slot(self, fn, layer, name):
        me = len(self._sampled)
        stats = [0, 0, 0, {}]
        self._sampled.append((layer, stats))
        # A fixed pattern per wrapper: nested per-slot calls (decide ->
        # advance) are sampled independently, never in lockstep.
        rng = random.Random(zlib.crc32(name.encode()))
        skip = [rng.random() * SAMPLE_EVERY >= 1.0 for _ in range(_PATTERN)]
        skip[0] = False
        namespace = {
            "fn": fn,
            "stats": stats,
            "skip": skip,
            "mask": _PATTERN - 1,
            "me": me,
            "stack": self._stack,
            "owners": self._owners,
            "clock": self._clock,
        }
        exec(_SLOT_WRAPPER.format(params=_plain_params(fn)), namespace)
        return namespace["wrapper"]

    def _span(self, fn, layer, name, on_result):
        acc = self.layers[layer]
        stack = self._stack
        owners = self._owners
        opened = self._open
        spans = self.spans
        clock = self._clock

        def wrapper(*args, **kwargs):
            record = [name, layer, 0, 0, opened[-1], None]
            opened.append(len(spans))
            spans.append(record)
            stack.append(0)
            owners.append(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                owners.pop()
                acc[0] += elapsed - stack.pop()
                acc[1] += 1
                stack[-1] += elapsed
                opened.pop()
                record[2] = start
                record[3] = end
            if on_result is not None:
                record[5] = on_result(args, result)
            return result

        return wrapper

    def _keepup(self, fn):
        counts = self.keepup

        def wrapper(recorder, block, *args, **kwargs):
            counts[0] += len(block)
            counts[1] += 1
            return fn(recorder, block, *args, **kwargs)

        return wrapper

    @staticmethod
    def _on_result(layer, attribute):
        if layer in ("sim.engine", "sim.recorder"):
            return lambda args, result: {"slots": result.slots}
        if attribute.startswith("ContentCache.load_"):
            return lambda args, result: {"hit": result is not None}
        if layer == "experiments":
            return lambda args, result: {"id": args[0] if args else "?"}
        return None

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists (see the module docstring)."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        import_everything()
        rebinds: dict[int, object] = {}
        for layer, module_name, attribute, kind in all_targets():
            resolved = _resolve(module_name, attribute)
            if resolved is None:
                self.skipped.append(f"{module_name}:{attribute}")
                continue
            owner, name, original = resolved
            if kind == SLOT:
                wrapper = self._slot(original, layer, attribute)
            else:
                wrapper = self._span(
                    original, layer, attribute, self._on_result(layer, attribute)
                )
            self._patch(owner, name, original, wrapper)
            if not isinstance(owner, type):
                rebinds[id(original)] = wrapper
        for module_name, attribute in KEEPUP_TARGETS:
            resolved = _resolve(module_name, attribute)
            if resolved is not None:
                owner, name, original = resolved
                self._patch(owner, name, original, self._keepup(original))
        # Every original is still bound on its defining module, hence alive,
        # so an equal id() is the same object.
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for name, value in list(vars(module).items()):
                wrapper = rebinds.get(id(value))
                if wrapper is not None:
                    self._patch(module, name, value, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        if getattr(owner, name) is wrapper:
            return
        setattr(owner, name, wrapper)
        self.installed.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, name, original in reversed(self.installed):
            setattr(owner, name, original)
        self.installed.clear()

    @contextmanager
    def traced(self):
        """Install for the duration of the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- regions -------------------------------------------------------------

    @contextmanager
    def region(self):
        """Count the block's wall time; its top-level calls feed ``other``."""
        if len(self._stack) != 1:
            raise RuntimeError("region opened inside a wrapped call")
        self._stack[0] = 0
        start = self._clock()
        if self._origin is None:
            self._origin = start
        try:
            yield
        finally:
            self.region_ns += self._clock() - start
            self.top_ns += self._stack[0]

    # -- results -------------------------------------------------------------

    def _slot_means(self) -> list[float]:
        """Mean self ns of each SLOT wrapper's calls.

        A timed call's measured self time also holds its untimed SLOT
        children, which the clock did not separate out.  Their estimated
        share is taken off before averaging; since that share depends on
        the children's own means, iterate to the fixed point (one round
        per nesting level).
        """
        sampled = self._sampled
        means = [stats[0] / stats[2] if stats[2] else 0.0 for _, stats in sampled]
        for _ in range(len(sampled) + 1):
            excess = [0.0] * len(sampled)
            for mean, (_, (_, calls, timed, callers)) in zip(means, sampled):
                if timed:
                    untimed = (calls - timed) * mean
                    for caller, count in callers.items():
                        if isinstance(caller, int):
                            excess[caller] += untimed * count / timed
            updated = [
                (stats[0] - extra) / stats[2] if stats[2] else 0.0
                for extra, (_, stats) in zip(excess, sampled)
            ]
            if updated == means:
                break
            means = updated
        return means

    def self_seconds(self) -> dict[str, float]:
        """Exclusive seconds per layer, plus ``other``.

        A SLOT wrapper's layer gets ``calls × mean self``.  Each untimed
        call's self time sat in whatever timed frame was open around it;
        a SPAN caller (or ``other``) gives up the estimate in proportion
        to the timed calls made from it, and a SLOT caller already did in
        :meth:`_slot_means`.  The total is unchanged.
        """
        out = {layer: float(acc[0]) for layer, acc in self.layers.items()}
        out["other"] = float(self.region_ns - self.top_ns)
        for mean, (layer, (_, calls, timed, callers)) in zip(self._slot_means(), self._sampled):
            out[layer] += calls * mean
            if timed:
                untimed = (calls - timed) * mean
                for caller, count in callers.items():
                    if isinstance(caller, str):
                        out[caller] -= untimed * count / timed
        return {layer: ns / 1e9 for layer, ns in out.items()}

    def calls(self) -> dict[str, int]:
        out = {layer: acc[1] for layer, acc in self.layers.items()}
        for layer, stats in self._sampled:
            out[layer] += stats[1]
        return out

    def attribution_error(self) -> float:
        """``|Σ self + other − wall| / wall``: 0 unless the stack broke."""
        if self.region_ns <= 0:
            return 0.0
        total = sum(acc[0] for acc in self.layers.values())
        total += sum(stats[0] for _, stats in self._sampled)
        total += self.region_ns - self.top_ns
        return abs(total - self.region_ns) / self.region_ns

    def span_totals(self) -> dict[str, float]:
        """Counts read off the span tree."""
        vector_ancestors: set[int] = set()
        for record in self.spans:
            if record[0] in _VECTOR_STEPS:
                parent = record[4]
                while parent >= 0 and parent not in vector_ancestors:
                    vector_ancestors.add(parent)
                    parent = self.spans[parent][4]
        general = 0
        recorded = 0
        hits = 0
        misses = 0
        for index, record in enumerate(self.spans):
            attrs = record[5] or {}
            if record[1] == "sim.engine" and index not in vector_ancestors:
                general += attrs.get("slots", 0)
            elif record[1] == "sim.recorder":
                recorded += attrs.get("slots", 0)
            elif "hit" in attrs:
                if attrs["hit"]:
                    hits += 1
                else:
                    misses += 1
        return {
            "general_slots": general,
            "recorded_slots": recorded,
            "cache_hits": hits,
            "cache_misses": misses,
        }

    def experiment_seconds(self) -> dict[str, float]:
        """Inclusive seconds per experiment id (``registry.run`` spans)."""
        out: dict[str, float] = {}
        for name, layer, start, end, _, attrs in self.spans:
            if layer == "experiments" and attrs:
                out[attrs["id"]] = out.get(attrs["id"], 0.0) + (end - start) / 1e9
        return out

    def write_chrome_trace(self, path) -> None:
        """Coarse spans as Chrome trace-event JSON (load in Perfetto)."""
        origin = self._origin or 0
        events = []
        for index, (name, layer, start, end, parent, attrs) in enumerate(self.spans):
            args = {"parent": parent, "index": index}
            if attrs:
                args.update(attrs)
            events.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": (start - origin) / 1e3,
                    "dur": (end - start) / 1e3,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
