"""Event queue and simulation clock.

Events are callbacks scheduled at absolute times.  Ties are broken by a
monotonically increasing sequence number so that events scheduled earlier
run earlier, which keeps the simulation deterministic.

Two queue disciplines implement the same contract (``push`` / ``pop`` /
``peek_time`` / ``__len__`` / ``drain``):

* :class:`CalendarEventQueue` (the default) — a two-level bucketed
  calendar queue: a sliding wheel of 1-cycle-wide buckets for the near
  future plus an overflow heap for events beyond the wheel horizon.
  Push and pop are O(1) amortized (a C-speed ``list.append`` on push, a
  ``list.pop()`` from a presorted per-tick run on pop; each tick's
  bucket is sorted once, costing O(k log k) for k events which amortizes
  to O(log k) << O(log n) with the typical k ≈ events-per-cycle).

* :class:`HeapEventQueue` — the original binary heap, O(log n) per
  operation, kept behind the ``REPRO_ENGINE_QUEUE=heap`` environment
  escape hatch and as the property-test oracle
  (``tests/test_engine.py`` proves pop-order equivalence between the
  two disciplines on randomized schedules).

The dispatch loop is the hottest code in the simulator (every TLB probe,
cache access and link traversal passes through it), so each queue class
owns its own :meth:`drain` loop: the queue internals stay in locals and
the common full-run case is a straight-line pop-and-dispatch with no
method-call round trips.  :meth:`Engine.run` and
:meth:`Engine.run_profiled` are thin wrappers over the same ``drain``
implementation, so profiled and unprofiled dispatch share one
``until``/``max_events`` horizon/budget implementation and cannot drift
apart.  The observable semantics — time order, FIFO among ties, the
stopping rules — are identical across disciplines and covered by
``tests/test_engine.py`` / ``tests/test_profile.py``.
"""

import heapq
import os
import time
from collections import deque

_heappush = heapq.heappush
_heappop = heapq.heappop
_perf_counter = time.perf_counter

#: Number of 1-cycle buckets in the calendar wheel.  Must be a power of
#: two (the tick-to-bucket map is a mask).  1024 covers every small
#: latency in the simulated machine (compute gaps, cache/TLB latencies,
#: link hops, DRAM); only page-fault-class delays (~20k cycles) overflow.
_WHEEL_SIZE = 1024
_WHEEL_MASK = _WHEEL_SIZE - 1


class HeapEventQueue:
    """A binary-heap priority queue of (time, seq, callback) events.

    The pre-calendar discipline; selected with ``REPRO_ENGINE_QUEUE=heap``
    and used as the ordering oracle in the equivalence property tests.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self):
        self._heap = []
        self._seq = 0

    def __len__(self):
        return len(self._heap)

    def push(self, time, callback):
        """Schedule ``callback`` to run at absolute ``time``."""
        _heappush(self._heap, (time, self._seq, callback))
        self._seq += 1

    def pop(self):
        """Remove and return the earliest ``(time, callback)`` pair."""
        time, _seq, callback = _heappop(self._heap)
        return time, callback

    def peek_time(self):
        """Return the time of the earliest event, or ``None`` if empty."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def no_event_before(self, time):
        """True iff no queued event is scheduled strictly before ``time``.

        O(1) and side-effect free.  This is the query behind the fused
        access fast path's provable-safety window (see
        :mod:`repro.sim.cu`): both disciplines answer it exactly, so
        fusion decisions — and therefore simulated results — do not
        depend on the queue discipline.
        """
        heap = self._heap
        return not heap or heap[0][0] >= time

    def fusion_horizon(self):
        """Time of the earliest queued event, or ``None`` if empty.

        The fused fast path's batched window query: during one callback
        the queue is frozen (nothing pops, the callback's own push
        happens after its fusion loop), so the horizon computed once
        bounds *every* ``no_event_before(t)`` with ``t <= horizon`` for
        the rest of the callback — one query instead of one per fused
        access.
        """
        heap = self._heap
        return heap[0][0] if heap else None

    def drain(self, engine, until=None, max_events=None, record=None):
        """Dispatch events in order; see :meth:`Engine.run` for semantics.

        Returns the number of events executed.  When ``record`` is given,
        every callback is timed and reported via ``record(callback,
        seconds)`` (the :meth:`repro.obs.profile.HostProfiler.record`
        contract); simulated event order and times are unchanged.
        """
        heap = self._heap
        pop = _heappop
        executed = 0

        if until is None and max_events is None and record is None:
            # Fast path (the common full-run case): straight-line
            # pop-and-dispatch with no per-event peeking or bound-method
            # lookups.  Callbacks may push new events; they land in the
            # same ``heap`` list, so the loop naturally picks them up.
            while heap:
                item = pop(heap)
                engine.now = item[0]
                item[2]()
                executed += 1
            return executed

        # General path: honour the ``until`` horizon and ``max_events``
        # budget, but still drain runs of same-timestamp events without
        # re-evaluating the horizon (events at the time that already
        # passed the check cannot fail it).  ``record`` rides along here
        # so profiled dispatch shares the exact same stopping rules.
        perf = _perf_counter
        while heap:
            next_time = heap[0][0]
            if until is not None and next_time > until:
                break
            if max_events is not None and executed >= max_events:
                break
            engine.now = next_time
            while heap and heap[0][0] == next_time:
                if max_events is not None and executed >= max_events:
                    break
                item = pop(heap)
                callback = item[2]
                if record is None:
                    callback()
                else:
                    start = perf()
                    callback()
                    record(callback, perf() - start)
                executed += 1
        return executed


class CalendarEventQueue:
    """A two-level bucketed calendar queue of (time, seq, callback) events.

    Structure:

    * ``_run`` — the live events at or around the wheel position, a
      deque sorted **descending** by ``(time, seq)`` so the earliest
      event is popped from the *right* end (C-speed O(1)).  The deque
      (rather than a list) is what makes re-entrant same-tick pushes
      O(1): a push into the current tick always carries the largest
      sequence number, i.e. the largest key, so it lands at the *left*
      end via ``appendleft`` — no re-sort, ever, on the common path.
    * ``_staged`` — the rare out-of-order case: a push whose key falls
      strictly *inside* the current run (possible only when the run
      spans mixed ticks after an overflow migration, with a fractional
      timestamp).  Merged by rebuilding the run before the next pop;
      in integral-time simulations this list stays empty for entire
      runs.
    * ``_buckets`` — a ``_WHEEL_SIZE``-entry wheel of lists; an event
      at time ``t`` with ``base_tick < int(t) < base_tick +
      _WHEEL_SIZE`` is appended to ``_buckets[int(t) & _WHEEL_MASK]``.
      Because pushes only target ticks strictly inside the wheel window
      and ``base_tick`` only grows, each bucket holds events of exactly
      one tick (two ticks congruent mod ``_WHEEL_SIZE`` can never both
      lie inside one window) — and, since appends happen in sequence
      order, each bucket is already sorted ascending whenever
      timestamps are integral (as in this simulator); draining it into
      the run is one near-no-op Timsort pass plus ``extendleft``.
    * ``_overflow`` — a small heap for events at or beyond the wheel
      horizon (page-fault-class delays); migrated lazily when the wheel
      position reaches their tick, or jumped to directly when the wheel
      is empty (no O(wheel) idle scans across long gaps).

    Pop order is exactly ``(time, seq)`` ascending — identical to
    :class:`HeapEventQueue` including FIFO among ties, which the
    randomized property tests in ``tests/test_engine.py`` assert.
    """

    __slots__ = (
        "_seq",
        "_base_tick",
        "_buckets",
        "_staged",
        "_run",
        "_overflow",
        "_wheel_count",
    )

    def __init__(self):
        self._seq = 0
        self._base_tick = 0
        self._buckets = [[] for _ in range(_WHEEL_SIZE)]
        self._staged = []
        self._run = deque()
        self._overflow = []
        self._wheel_count = 0

    def __len__(self):
        return (
            len(self._staged)
            + len(self._run)
            + self._wheel_count
            + len(self._overflow)
        )

    def push(self, time, callback):
        """Schedule ``callback`` to run at absolute ``time``."""
        seq = self._seq
        self._seq = seq + 1
        tick = int(time)
        base = self._base_tick
        if tick <= base:
            # Current (or already-passed) wheel position: join the live
            # run directly.  The new event holds the largest sequence
            # number ever issued, so if its time is >= the run's
            # largest time it is the largest key overall and belongs at
            # the left end (O(1)); if its time is below the run's
            # *smallest* pending time it is the smallest key and
            # belongs at the right end (O(1) — it pops next).  Only a
            # key strictly inside the run (mixed-tick run after an
            # overflow migration + fractional timestamp) needs the
            # staging list, which triggers a full merge before the
            # next pop.
            run = self._run
            if not run or time >= run[0][0]:
                run.appendleft((time, seq, callback))
            elif time < run[-1][0]:
                run.append((time, seq, callback))
            else:
                self._staged.append((time, seq, callback))
        elif tick - base < _WHEEL_SIZE:
            self._buckets[tick & _WHEEL_MASK].append((time, seq, callback))
            self._wheel_count += 1
        else:
            _heappush(self._overflow, (time, seq, callback))

    def fusion_horizon(self):
        """Time of the earliest queued event, or ``None`` if empty.

        Same batched-window contract as
        :meth:`HeapEventQueue.fusion_horizon`.  Settling here is safe
        mid-callback: :meth:`drain` re-reads the wheel position after
        every dispatch, so the advance cannot desynchronize the loop.
        """
        return self.peek_time()

    def _advance(self):
        """Advance the wheel until ``_run`` is non-empty.

        Returns ``False`` (leaving ``_run`` empty) when the queue holds
        no events at all.  ``_run`` and ``_staged`` must be empty on
        entry (callers drain/merge first) — staged events belong to the
        current tick or earlier and would be skipped by moving the
        wheel.
        """
        run = self._run
        overflow = self._overflow
        buckets = self._buckets
        wheel_count = self._wheel_count
        base = self._base_tick
        while True:
            if wheel_count == 0:
                if not overflow:
                    self._base_tick = base
                    return False
                # The wheel is empty: jump straight to the earliest
                # overflow tick instead of stepping bucket by bucket.
                base = int(overflow[0][0])
                bucket = []
            else:
                base += 1
                bucket = buckets[base & _WHEEL_MASK]
                if not bucket:
                    continue
                wheel_count -= len(bucket)
            # Pull overflow events that have become due at this tick.
            if overflow:
                horizon = base + 1
                while overflow and overflow[0][0] < horizon:
                    bucket.append(_heappop(overflow))
            if bucket:
                # Near-no-op for integral timestamps (appends arrived
                # in (time, seq) order); pays real work only for
                # fractional times or an overflow migration.
                bucket.sort()
                run.extendleft(bucket)
                del bucket[:]
                self._base_tick = base
                self._wheel_count = wheel_count
                return True

    def _settle(self):
        """Ensure ``_run`` holds the next event (returns False if empty)."""
        staged = self._staged
        run = self._run
        if staged:
            # Rare out-of-order merge: rebuild the descending run.
            staged.extend(run)
            staged.sort(reverse=True)
            run.clear()
            run.extend(staged)
            del staged[:]
        if run:
            return True
        return self._advance()

    def pop(self):
        """Remove and return the earliest ``(time, callback)`` pair."""
        if not self._settle():
            raise IndexError("pop from an empty event queue")
        time, _seq, callback = self._run.pop()
        return time, callback

    def peek_time(self):
        """Return the time of the earliest event, or ``None`` if empty."""
        if not self._settle():
            return None
        return self._run[-1][0]

    def no_event_before(self, time):
        """True iff no queued event is scheduled strictly before ``time``.

        Side-effect free (no staged merge, no wheel advance) and exact:
        gives the same answer as :meth:`HeapEventQueue.no_event_before`
        for identical queue contents.  Cost is O(events ahead of
        ``time``) in the worst case, but the fused fast path only asks
        about horizons a few cycles out, so the wheel scan touches a
        handful of buckets — and none at all when the wheel is empty
        (the single-actor tail phase where fusion fires most).
        """
        run = self._run
        if run and run[-1][0] < time:
            # Common rejection in a dense simulation: the current tick
            # still holds events — one list-index compare and out.
            return False
        for item in self._staged:
            if item[0] < time:
                return False
        if self._wheel_count:
            base = self._base_tick
            buckets = self._buckets
            tick_end = int(time)
            stop = tick_end
            horizon = base + _WHEEL_SIZE
            if stop > horizon:
                stop = horizon
            t = base + 1
            while t < stop:
                if buckets[t & _WHEEL_MASK]:
                    return False
                t += 1
            # Boundary bucket for fractional ``time``: bucket
            # ``int(time)`` spans [int(time), int(time)+1), so only its
            # items strictly below ``time`` count.
            if base < tick_end < time and tick_end - base < _WHEEL_SIZE:
                for item in buckets[tick_end & _WHEEL_MASK]:
                    if item[0] < time:
                        return False
        overflow = self._overflow
        if overflow and overflow[0][0] < time:
            return False
        return True

    def drain(self, engine, until=None, max_events=None, record=None):
        """Dispatch events in order; see :meth:`Engine.run` for semantics.

        Returns the number of events executed.  ``record`` follows the
        same contract as :meth:`HeapEventQueue.drain`.
        """
        run = self._run
        staged = self._staged
        settle = self._settle
        executed = 0

        if until is None and max_events is None and record is None:
            # Fast path (the common full-run case): pop presorted events
            # off the right end of the run deque; same-tick re-entrant
            # pushes land at the left end in O(1) (see :meth:`push`), so
            # the ``staged`` check is a near-always-False truthiness
            # test.  The wheel advance is inlined (it fires every tick
            # boundary — roughly every 2-4 events in a real simulation —
            # so the method call and per-call attribute reads are
            # measurable).  ``_base_tick``/``_wheel_count`` must be
            # re-read on entry and written back before dispatch resumes:
            # ``push`` reads them from the callbacks we dispatch.
            buckets = self._buckets
            overflow = self._overflow
            pop = run.pop
            while True:
                if staged:
                    settle()
                if run:
                    item = pop()
                    engine.now = item[0]
                    item[2]()
                    executed += 1
                    continue
                # Inline _advance (kept in lock-step with the method).
                wheel_count = self._wheel_count
                if wheel_count == 0 and not overflow:
                    return executed
                base = self._base_tick
                while True:
                    if wheel_count == 0:
                        # Wheel empty: jump straight to the earliest
                        # overflow tick (no O(wheel) idle scans).
                        base = int(overflow[0][0])
                        bucket = []
                    else:
                        base += 1
                        bucket = buckets[base & _WHEEL_MASK]
                        if not bucket:
                            continue
                        wheel_count -= len(bucket)
                    # Pull overflow events that have become due.
                    if overflow:
                        horizon = base + 1
                        while overflow and overflow[0][0] < horizon:
                            bucket.append(_heappop(overflow))
                    if bucket:
                        break
                bucket.sort()
                run.extendleft(bucket)
                del bucket[:]
                self._base_tick = base
                self._wheel_count = wheel_count
            return executed

        # General path: per-event horizon/budget checks (two compares
        # against the presorted run tail — no heap peeking), with the
        # optional profiling timer.  Shared by ``run`` and
        # ``run_profiled`` so the stopping rules cannot drift apart.
        perf = _perf_counter
        while settle():
            next_time = run[-1][0]
            if until is not None and next_time > until:
                break
            if max_events is not None and executed >= max_events:
                break
            item = run.pop()
            engine.now = next_time
            callback = item[2]
            if record is None:
                callback()
            else:
                start = perf()
                callback()
                record(callback, perf() - start)
            executed += 1
        return executed


def EventQueue():
    """Build the configured event-queue discipline.

    Returns a :class:`CalendarEventQueue` (the default) or, when the
    environment sets ``REPRO_ENGINE_QUEUE=heap``, the original
    :class:`HeapEventQueue` — the escape hatch for triaging any
    suspected queue-discipline problem (both disciplines are proven
    pop-order-identical by property test, so results do not change).
    Unset or empty means the calendar; any value other than
    ``calendar`` or ``heap`` raises :class:`ValueError`.
    """
    queue = os.environ.get("REPRO_ENGINE_QUEUE", "").strip().lower()
    if queue == "heap":
        return HeapEventQueue()
    if queue in ("", "calendar"):
        return CalendarEventQueue()
    raise ValueError(
        "REPRO_ENGINE_QUEUE must be 'calendar' or 'heap' (got %r)"
        % os.environ["REPRO_ENGINE_QUEUE"]
    )


class Engine:
    """Owns the clock and drives the event queue to completion.

    Components schedule work with :meth:`at` (absolute time) or
    :meth:`after` (relative delay).  :meth:`run` executes events in time
    order until the queue drains or an optional horizon is reached.
    """

    __slots__ = ("now", "events", "events_executed")

    def __init__(self):
        self.now = 0.0
        self.events = EventQueue()
        self.events_executed = 0

    def at(self, time, callback):
        """Schedule ``callback`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(
                "cannot schedule event in the past: %r < now %r" % (time, self.now)
            )
        self.events.push(time, callback)

    def after(self, delay, callback):
        """Schedule ``callback`` after ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError("negative delay: %r" % (delay,))
        self.events.push(self.now + delay, callback)

    def run(self, until=None, max_events=None):
        """Run events in order.

        Stops when the queue is empty, when the next event would be after
        ``until``, or after ``max_events`` events.  Returns the number of
        events executed by this call.
        """
        executed = self.events.drain(self, until, max_events)
        self.events_executed += executed
        return executed

    def run_profiled(self, record, until=None, max_events=None):
        """Like :meth:`run`, but time every callback through ``record``.

        ``record(callback, seconds)`` is invoked after each dispatched
        event with the callback object and its host wall-clock cost (the
        contract :meth:`repro.obs.profile.HostProfiler.record` fulfils).
        Dispatch goes through the same queue ``drain`` implementation as
        :meth:`run` — one shared horizon/budget loop — so profiled and
        unprofiled runs execute identical event sequences; only the two
        timer reads per event differ.
        """
        executed = self.events.drain(self, until, max_events, record)
        self.events_executed += executed
        return executed
