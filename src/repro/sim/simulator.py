"""Top-level simulator: build the machine, replay the kernel, report.

``simulate(kernel, params, design)`` is the one-call entry point used by
the examples, the tests and the experiment harness.

Trace memoization: generating a kernel's per-CTA access traces is pure
numpy work that depends only on the kernel, its VA layout and the seed —
not on the VM design being simulated.  Because every figure sweeps the
same workload across several designs back to back, the traces are cached
in a small process-local LRU keyed by the full trace-generation context,
so repeated designs over the same kernel skip regeneration entirely.
Set ``REPRO_TRACE_CACHE=0`` to disable (e.g. for ad-hoc kernels whose
trace callables share a name but not behaviour), or call
:func:`clear_trace_cache` to drop it.
"""

import os
from collections import OrderedDict

from repro.arch.interconnect import Interconnect
from repro.core.balance import BalanceController, BalanceParams
from repro.core.hsl import DynamicHSL
from repro.driver.kernel_launch import launch_kernel
from repro.mem.memory_system import MemorySystem
from repro.engine.event_queue import Engine
from repro.obs.probe import NULL_PROBE
from repro.sim.cu import ComputeUnit
from repro.sim.translation import TranslationSystem
from repro.stats.counters import RunStats

# -- trace memoization ---------------------------------------------------------

_TRACE_CACHE_CAPACITY = 8
_TRACE_CACHE = OrderedDict()


def clear_trace_cache():
    """Drop all memoized kernel traces."""
    _TRACE_CACHE.clear()


def _trace_cache_enabled():
    return os.environ.get("REPRO_TRACE_CACHE", "1") != "0"


class _Unfingerprintable(Exception):
    """Raised when a trace callable cannot be identified structurally."""


_FREEZABLE = (type(None), bool, int, float, str, bytes)


def _freeze(value, depth):
    """A hashable, *content-based* stand-in for ``value``.

    Only primitives, tuples and lists of freezable items and plain
    functions are accepted; anything whose equality we cannot establish
    structurally (arrays, dicts, arbitrary objects) raises
    :class:`_Unfingerprintable`, which makes the kernel's traces
    uncacheable rather than wrongly shared.  A sequence freezes to its
    type plus its items, so ``[x]`` and ``(x,)`` stay distinct.
    """
    if isinstance(value, _FREEZABLE):
        return value
    if isinstance(value, (tuple, list)):
        return (type(value),) + tuple(_freeze(item, depth) for item in value)
    if callable(value):
        return _fn_fingerprint(value, depth + 1)
    raise _Unfingerprintable


def _fn_fingerprint(fn, depth=0):
    """Structural identity of a trace callable.

    Two rebuilt closures (e.g. from calling the same workload builder
    twice) fingerprint equal when their code *and* captured state match;
    closures over different data — even with the same ``__qualname__`` —
    fingerprint differently because the cell contents are part of the
    key.
    """
    if depth > 4:
        raise _Unfingerprintable
    code = getattr(fn, "__code__", None)
    if code is None:
        raise _Unfingerprintable
    cells = ()
    closure = getattr(fn, "__closure__", None)
    if closure:
        cells = tuple(
            _freeze(cell.cell_contents, depth) for cell in closure
        )
    defaults = tuple(
        _freeze(value, depth) for value in (fn.__defaults__ or ())
    )
    return (
        getattr(fn, "__module__", None),
        getattr(fn, "__qualname__", None),
        code.co_code,
        cells,
        defaults,
    )


def _trace_cache_key(launch, seed):
    """Identity of one trace set: kernel + trace callable + layout + seed.

    The key captures everything :class:`~repro.workloads.base.TraceContext`
    exposes to a trace function (bases, sizes, num_ctas, seed) plus the
    structural fingerprint of the trace callable and the kernel's
    metadata, so two kernels only share traces when they would generate
    identical streams.  Returns ``None`` (uncacheable) when any component
    cannot be fingerprinted safely.
    """
    kernel = launch.kernel
    try:
        return (
            kernel.name,
            _fn_fingerprint(kernel.trace),
            kernel.num_ctas,
            kernel.cta_partition,
            tuple(sorted(launch.bases.items())),
            tuple(
                sorted((a.name, a.size) for a in kernel.allocations)
            ),
            tuple(sorted(kernel.extras.items())),
            seed,
        )
    except (_Unfingerprintable, TypeError):
        return None


def _traces_for(launch, seed):
    """Per-CTA traces for ``launch``, memoized across simulations."""
    if not _trace_cache_enabled():
        context = launch.trace_context(seed)
        kernel = launch.kernel
        return [
            kernel.trace(cta_id, context)
            for cta_id in range(kernel.num_ctas)
        ]
    key = _trace_cache_key(launch, seed)
    if key is not None:
        cached = _TRACE_CACHE.get(key)
        if cached is not None:
            _TRACE_CACHE.move_to_end(key)
            return cached
    context = launch.trace_context(seed)
    kernel = launch.kernel
    traces = [
        kernel.trace(cta_id, context) for cta_id in range(kernel.num_ctas)
    ]
    if key is not None:
        _TRACE_CACHE[key] = traces
        while len(_TRACE_CACHE) > _TRACE_CACHE_CAPACITY:
            _TRACE_CACHE.popitem(last=False)
    return traces


class Simulator:
    """One simulation run of one kernel under one VM design."""

    def __init__(self, launch, params, seed=0, balance_params=None, probe=None):
        self.launch = launch
        self.params = params
        self.geometry = launch.geometry
        self.engine = Engine()
        # Observability: the probe every component pre-binds its hooks
        # from.  NULL_PROBE's hooks are no-ops, so an uninstrumented run
        # pays only a no-op bound-method call on the (rare) translation
        # path and nothing at all per engine event (see repro.obs).
        self.probe = probe if probe is not None else NULL_PROBE
        self.stats = RunStats(num_chiplets=params.num_chiplets)
        # The fabric: a routed, topology-aware interconnect.  The default
        # all-to-all reproduces the paper's package exactly (one hop of
        # link_latency per remote message); ring/mesh/dual-package charge
        # per-hop latency along routed paths.  Translation, data and PTE
        # traffic all share it, so per-link contention (when enabled) and
        # per-link crossing statistics cover every message kind.
        self.interconnect = Interconnect(
            params.num_chiplets,
            link_latency=params.link_latency,
            issue_interval=params.link_issue_interval or None,
            topology=getattr(params, "topology", "all-to-all"),
            inter_package_latency=getattr(
                params, "inter_package_latency", None
            ),
        )
        self.memory_system = MemorySystem(
            params.num_chiplets,
            link_latency=params.link_latency,
            l2_size=params.l2_cache_size,
            l2_assoc=params.l2_cache_assoc,
            l2_latency=params.l2_cache_latency,
            l2_banks=params.l2_cache_banks,
            dram_latency=params.dram_latency,
            interconnect=self.interconnect,
        )

        self.balance = None
        if launch.design.balance and isinstance(launch.hsl, DynamicHSL):
            if balance_params is None:
                balance_params = BalanceParams(
                    epoch_length=params.balance_epoch,
                    share_threshold=params.balance_share_threshold,
                    hit_rate_threshold=params.balance_hit_threshold,
                )
            self.balance = BalanceController(
                self.engine,
                launch.hsl,
                params.num_chiplets,
                params.link_latency,
                params=balance_params,
                probe=self.probe,
                interconnect=self.interconnect,
            )

        self.translation = TranslationSystem(
            self.engine,
            launch,
            params,
            self.memory_system,
            self.interconnect,
            self.stats,
            balance=self.balance,
            probe=self.probe,
        )

        self.cus = [
            ComputeUnit(self, cu_id, cu_id // params.cus_per_chiplet, params)
            for cu_id in range(params.total_cus)
        ]

        self._build_traces(seed)
        self._live_slots = 0
        # Hand the probe the finished machine (engine clock + component
        # references) once everything it may want to sample exists.
        self.probe.attach(self)

    def _build_traces(self, seed):
        launch = self.launch
        kernel = launch.kernel
        gap = kernel.compute_gap
        traces = _traces_for(launch, seed)
        for cta_id, trace in enumerate(traces):
            cu = self.cus[launch.cta_cus[cta_id]]
            cu.compute_gap = gap
            cu.add_cta(trace)

    def note_slot_retired(self):
        self._live_slots -= 1

    def run(self, max_events=None, profiler=None):
        """Execute to completion; return the populated :class:`RunStats`.

        ``profiler`` (a :class:`repro.obs.HostProfiler` or anything with
        a ``record(callback, seconds)`` method) routes dispatch through
        :meth:`Engine.run_profiled`, attributing host wall-clock to
        every executed event.  ``None`` keeps the uninstrumented fast
        loop.  Simulated results are identical either way.
        """
        for cu in self.cus:
            cu.start()
            self._live_slots += cu._active_slots
        if profiler is not None:
            self.engine.run_profiled(profiler.record, max_events=max_events)
        else:
            self.engine.run(max_events=max_events)
        stats = self.stats
        stats.cycles = self.engine.now
        stats.record_fabric(self.interconnect)
        if self.balance is not None:
            stats.balance_alerts = self.balance.alerts
            stats.balance_switches = list(self.balance.switch_events)
        self.probe.run_finished(stats)
        return stats


def simulate(
    kernel,
    params,
    design,
    seed=0,
    balance_params=None,
    probe=None,
    profiler=None,
):
    """Launch ``kernel`` under ``design`` and run it to completion.

    ``probe`` attaches an observability probe (e.g.
    :class:`repro.obs.TraceProbe` or :class:`repro.obs.MetricsRecorder`)
    to the run; ``None`` leaves instrumentation disabled.  ``profiler``
    attaches a host-side self-profiler (:class:`repro.obs.HostProfiler`)
    that attributes wall-clock to event kinds via
    :meth:`repro.engine.event_queue.Engine.run_profiled`.
    """
    launch = launch_kernel(kernel, params, design)
    simulator = Simulator(
        launch, params, seed=seed, balance_params=balance_params, probe=probe
    )
    return simulator.run(profiler=profiler)
