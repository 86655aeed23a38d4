"""Compute-unit model: closed-loop replay of CTA access streams.

Each CU owns a private L1 TLB and L1 vector cache and a fixed number of
wavefront slots.  A slot executes one CTA at a time: it spends
``compute_gap`` cycles of compute, issues the CTA's next coalesced memory
access, waits for it to complete (address translation + data access), and
repeats.  Translation latency therefore directly throttles instruction
throughput, which is the back-pressure mechanism behind every result in
the paper.

Performance notes — the slot state machine is the hottest callback chain
in the simulator, and three structural optimizations live here (see
docs/performance.md for the full safety argument):

* **Vectorized trace precomputation**: :meth:`ComputeUnit.add_cta`
  derives each CTA's ``vpn`` (``trace >> page_shift``) and page-offset
  (``trace & (page_size - 1)``) numpy arrays once, and
  :meth:`_WavefrontSlot.pick_cta` converts them to plain Python-int
  lists, so the per-access path indexes a list instead of calling
  ``int(trace[i])`` plus two geometry methods.

* **Fused zero-heap fast path**: when an access hits the L1 TLB *and*
  the L1 cache — the steady-state majority — its data-access event is
  eliminated: the cache lookup happens at issue time and completion is
  delegated to the classic ``_complete`` event at
  ``issue + l1_tlb_latency + l1_cache_latency``, so the slot schedules
  **one** follow-up event instead of the two of the stepped
  ``_issue → _data_access → _complete`` chain — or consumes an entire
  *run* of hit/hit accesses (up to ``_FUSE_RUN_CAP``) with a single
  event.  Safety: the subtle hazard is not the CU-private L1
  structures but global tie order — eliminating an event shifts the
  sequence numbers that break FIFO ties among same-cycle events
  machine-wide.  The guard is therefore *provable*: fuse only
  when the event queue holds no foreign event before the fused
  completion time t3, so nothing can execute — hence nothing can push
  — inside the fused window, and the elimination shifts every later
  sequence number by the same constant, preserving every (time, seq)
  tie order exactly.  This one check also subsumes the CU-local
  hazards (a pending translation response or a sibling slot's stepped
  access would be a queued event inside the window).  Everything else
  falls back to the stepped path, byte-for-byte the original chain;
  cache misses are detected with
  :meth:`repro.mem.cache.Cache.access_if_hit`, which leaves a miss
  completely untouched for the fallback to perform at its classic
  time.  ``scripts/diff_gate.sh`` double-checks the bit-identity claim
  over the golden matrix.

The classic slot state machine keeps its in-flight state (``index``,
``entry``) in ``__slots__`` attributes and hands the engine *pre-bound*
methods created once per slot, so the steady state allocates no
callables at all.  Set ``REPRO_SIM_FUSE=0`` to disable fusion and force
the stepped path everywhere (results do not change; only event count
and speed do).
"""

import os
from collections import deque

import numpy as np

from repro.mem.cache import LINE_SIZE, Cache
from repro.vm.tlb import TLB, TLBEntry


#: Initial accesses consumed per fused event in single-slot run fusion.
#: Correctness does not depend on this bound (every fused segment is
#: independently stepped-equivalent, whatever its length); it only keeps
#: single events short for profiler attribution and engine fairness.
#: The cap adapts per CU: a run that exhausts it doubles it (up to
#: ``_FUSE_CAP_MAX``), a failed provable-window check halves it (down to
#: ``_FUSE_CAP_MIN``) — so CUs in long single-actor phases batch-drain
#: whole windows while CUs in dense phases keep events short.
_FUSE_RUN_CAP = 64

#: Adaptive-cap bounds (they never change simulated results, only
#: event granularity).
_FUSE_CAP_MIN = 16
_FUSE_CAP_MAX = 1024

#: After a failed provable-window check, skip further checks on that CU
#: for this many simulated cycles.  A failed check means the queue is
#: dense around the CU's completion horizon, which is a persistent
#: property of the simulation phase (hundreds of interleaved slots), so
#: immediately re-checking is almost always futile; the retry interval
#: bounds the guard cost in dense phases to one comparison per TLB hit
#: while re-probing quickly once the machine drains.  Keyed to
#: *simulated* time so the attempt pattern is a deterministic function
#: of simulation history (identical under either queue discipline) and
#: costs no state write on the skip path.  Host-side only: the value
#: never changes simulated results, just how often fusion is attempted.
_FUSE_RETRY_INTERVAL = 128.0

#: Cache-line shift for the vectorized same-line pre-check (see
#: :meth:`ComputeUnit.add_cta`).  Two VAs on the same line share their
#: page, hence their PPN, hence their PA line.
_LINE_SHIFT = LINE_SIZE.bit_length() - 1

_INF = float("inf")


class _WavefrontSlot:
    """One wavefront slot: the per-access state machine of a CU.

    The slot advances through ``advance -> _issue -> _data_access ->
    _complete`` for every element of its CTA trace — or through one
    fused ``_issue`` event on the L1-TLB-hit + L1-cache-hit fast path —
    then picks the next CTA from the CU's queue.  All engine callbacks
    are the bound methods cached in ``__init__``; no per-access
    closures.
    """

    __slots__ = (
        "cu",
        "engine",
        "vpns",
        "offs",
        "sames",
        "length",
        "index",
        "entry",
        "_issue_cb",
        "_data_access_cb",
        "_complete_cb",
    )

    def __init__(self, cu):
        self.cu = cu
        self.engine = cu.engine
        self.vpns = None
        self.offs = None
        self.sames = None
        self.length = 0
        self.index = 0
        self.entry = None
        self._issue_cb = self._issue
        self._data_access_cb = self._data_access
        self._complete_cb = self._complete

    # -- state machine -----------------------------------------------------

    def pick_cta(self):
        cu = self.cu
        if not cu.cta_queue:
            self.vpns = None
            self.offs = None
            self.sames = None
            cu._active_slots -= 1
            cu.sim.note_slot_retired()
            return
        vpns, offs, sames = cu.cta_queue.popleft()
        # Plain Python ints and bools: every later index is one list
        # load instead of a numpy scalar extraction + conversion.
        self.vpns = vpns.tolist()
        self.offs = offs.tolist()
        self.sames = sames.tolist()
        self.length = len(self.vpns)
        self.index = 0
        self.advance()

    def advance(self):
        if self.index >= self.length:
            self.pick_cta()
            return
        # compute_gap instructions of compute, then the memory access.
        self.engine.after(self.cu._gap_f, self._issue_cb)

    def _issue(self):
        cu = self.cu
        i = self.index
        vpn = self.vpns[i]
        entry = cu.l1_tlb.lookup(vpn)
        engine = self.engine
        t_after_l1 = engine.now + cu.l1_tlb_latency
        if entry is not None:
            stats = cu.stats
            stats.l1_tlb_hits += 1
            # ``engine.now < cu._fuse_retry_at`` means a recent guard
            # failure showed the queue is dense around this CU; skip
            # the (futile) window check for a while.  Purely a
            # host-side heuristic: it selects *which* accesses attempt
            # fusion, never how a fused access behaves, so results are
            # unaffected — and it is a deterministic function of
            # simulated time, so the attempt pattern is reproducible.
            if cu._fuse_enabled and engine.now >= cu._fuse_retry_at:
                t3 = t_after_l1 + cu.l1_cache_latency
                # Provable fusion window: the queue holds no foreign
                # event before this access's classic completion time
                # t3, so nothing can execute — hence nothing can push —
                # between now and t3.  Eliminating our own intermediate
                # events then shifts every later sequence number by the
                # same constant, which preserves all (time, seq) tie
                # orders machine-wide: the simulation is bit-identical
                # by construction (see docs/performance.md for the full
                # argument, including why an event exactly *at* t3 is
                # harmless — it was pushed before our completion in
                # both schedules).
                #
                # The horizon is the earliest queued event time, read
                # once: the queue is frozen for the rest of this
                # callback (nothing pops mid-callback and our own push
                # comes after the fusion loop), so one query bounds the
                # whole run — ``t <= horizon`` is exactly
                # ``no_event_before(t)`` for every probe below.
                horizon = cu._fusion_horizon()
                if horizon is not None and t3 > horizon:
                    cu._fuse_retry_at = engine.now + _FUSE_RETRY_INTERVAL
                    # Dense window: next provable run, if any, should
                    # start small again.
                    if cu._fuse_cap > _FUSE_CAP_MIN:
                        cu._fuse_cap >>= 1
                elif cu.l1_cache.access_if_hit(
                    (entry.ppn << cu.page_shift) | self.offs[i]
                ):
                    # ---- fused fast path ----
                    # The access's data-access event is eliminated: its
                    # cache lookup just happened here (hit, consumed),
                    # and its completion is delegated to the classic
                    # ``_complete`` event at t3 = (t1 + L) + C — the
                    # exact float-association order of the stepped
                    # chain, so every push ``_complete`` performs
                    # happens at the same simulated moment as stepped.
                    stats.l1_cache_hits += 1
                    fused = 1
                    cap = cu._fuse_cap
                    if i + 1 < self.length:
                        # Run fusion: consume subsequent hit/hit
                        # accesses arithmetically for as long as each
                        # one's classic completion still precedes the
                        # first foreign event (the one-shot horizon).
                        # Probe non-mutatingly first; mutate — in the
                        # classic per-structure operation order — only
                        # when consuming.  The final consumed access's
                        # completion is again delegated to
                        # ``_complete`` at its classic time.
                        horizon_f = _INF if horizon is None else horizon
                        gap_plus_1 = cu.compute_gap + 1
                        vpns = self.vpns
                        offs = self.offs
                        sames = self.sames
                        length = self.length
                        tlb = cu.l1_tlb
                        cache = cu.l1_cache
                        gap_f = cu._gap_f
                        lat_l1 = cu.l1_tlb_latency
                        lat_c = cu.l1_cache_latency
                        shift = cu.page_shift
                        bulk = 0
                        while fused < cap:
                            t1n = t3 + gap_f
                            t3n = (t1n + lat_l1) + lat_c
                            if t3n > horizon_f:
                                break
                            if sames[i + 1]:
                                # Same VA line as the access just
                                # consumed (vectorized pre-check in
                                # add_cta): same page -> same PPN ->
                                # same PA line, whose TLB entry and
                                # cache line are both MRU from the
                                # previous access — a guaranteed
                                # hit/hit whose LRU touches are
                                # no-ops.  Consume arithmetically;
                                # the counter adds are batched below
                                # (integer sums, order-free).
                                i += 1
                                bulk += 1
                                fused += 1
                                t3 = t3n
                                if i + 1 >= length:
                                    break
                                continue
                            nxt = tlb.probe(vpns[i + 1])
                            if nxt is None or not cache.access_if_hit(
                                (nxt.ppn << shift) | offs[i + 1]
                            ):
                                break
                            # The previous access completes; this one
                            # issues and hits both levels.
                            stats.instructions += gap_plus_1
                            stats.mem_accesses += 1
                            i += 1
                            tlb.lookup(vpns[i])
                            stats.l1_tlb_hits += 1
                            stats.l1_cache_hits += 1
                            fused += 1
                            t3 = t3n
                            if i + 1 >= length:
                                break
                        if bulk:
                            stats.instructions += bulk * gap_plus_1
                            stats.mem_accesses += bulk
                            stats.l1_tlb_hits += bulk
                            stats.l1_cache_hits += bulk
                            tlb.hits += bulk
                            cache.hits += bulk
                        self.index = i
                        if fused >= cap and cap < _FUSE_CAP_MAX:
                            # The window was still open at the cap:
                            # let the next run batch-drain more.
                            cu._fuse_cap = cap << 1
                    self.entry = None
                    cu._fused_accesses += fused
                    engine.at(t3, self._complete_cb)
                    return
                else:
                    # Guard passed but the L1 cache missed: the CU is
                    # in a sparse-but-cache-missing phase, where every
                    # attempt pays the window check plus a futile cache
                    # probe.  Throttle attempts the same way as on a
                    # dense window.
                    cu._fuse_retry_at = engine.now + _FUSE_RETRY_INTERVAL
            # Stepped fallback: TLB hit but the access cannot be fused
            # (fusion off, retry cooldown, dense window or cache miss).
            self.entry = entry
            engine.at(t_after_l1, self._data_access_cb)
            return

        cu.stats.l1_tlb_misses += 1
        waiters = cu._pending_translations.get(vpn)
        if waiters is not None:
            # Another wavefront on this CU already misses on the same
            # page; coalesce instead of issuing a duplicate request.
            waiters.append(self)
            cu._probe_l1_coalesced(cu, vpn)
            return
        cu._pending_translations[vpn] = [self]
        cu._probe_l1_miss(cu, vpn)
        cu.sim.translation.request(cu, vpn, t_after_l1, cu._translated_cb)

    def _data_access(self):
        cu = self.cu
        entry = self.entry
        pa = (entry.ppn << cu.page_shift) | self.offs[self.index]
        if cu.l1_cache.access(pa):
            cu.stats.l1_cache_hits += 1
            self.engine.after(cu.l1_cache_latency, self._complete_cb)
            return
        done, remote = cu.sim.memory_system.access(
            cu.chiplet,
            entry.data_home,
            pa,
            self.engine.now + cu.l1_cache_latency,
            kind="data",
        )
        if remote:
            cu.stats.data_accesses_remote += 1
        else:
            cu.stats.data_accesses_local += 1
        self.engine.at(done, self._complete_cb)

    def _complete(self):
        cu = self.cu
        cu.stats.instructions += cu.compute_gap + 1
        cu.stats.mem_accesses += 1
        self.index += 1
        self.advance()


class ComputeUnit:
    """One CU: L1 TLB + L1 cache + wavefront slots replaying CTAs."""

    __slots__ = (
        "sim",
        "engine",
        "stats",
        "geometry",
        "cu_id",
        "chiplet",
        "l1_tlb",
        "l1_cache",
        "l1_tlb_latency",
        "l1_cache_latency",
        "num_slots",
        "cta_queue",
        "compute_gap",
        "page_shift",
        "_offset_mask",
        "_gap_f",
        "_pending_translations",
        "_active_slots",
        "_fuse_enabled",
        "_fuse_retry_at",
        "_fuse_cap",
        "_fusion_horizon",
        "_fused_accesses",
        "_translated_cb",
        "_slots",
        "_probe_l1_miss",
        "_probe_l1_coalesced",
    )

    def __init__(self, simulator, cu_id, chiplet, params):
        self.sim = simulator
        self.engine = simulator.engine
        self.stats = simulator.stats
        self.geometry = simulator.geometry
        # Observability: pre-bound hooks (no-ops when probes are off, so
        # the hot path never branches on an "instrumentation enabled"
        # flag; see repro.obs.probe).
        probe = simulator.probe
        self._probe_l1_miss = probe.l1_miss
        self._probe_l1_coalesced = probe.l1_coalesced
        self.cu_id = cu_id
        self.chiplet = chiplet
        self.l1_tlb = TLB(params.l1_tlb_entries, name="l1tlb%d" % cu_id)
        self.l1_cache = Cache(
            params.l1_cache_size, params.l1_cache_assoc, name="l1c%d" % cu_id
        )
        self.l1_tlb_latency = params.l1_tlb_latency
        self.l1_cache_latency = params.l1_cache_latency
        self.num_slots = params.wavefront_slots_per_cu
        self.cta_queue = deque()
        self.compute_gap = 1
        self.page_shift = self.geometry.page_shift
        self._offset_mask = self.geometry.page_size - 1
        self._gap_f = 1.0
        self._pending_translations = {}
        self._active_slots = 0
        # The fusion guard is *provable* (it requires the event queue to
        # hold no foreign event before the fused completion time, so
        # eliminating events cannot reorder any same-cycle tie), hence
        # safe for every design.  REPRO_SIM_FUSE=0 force-disables
        # fusion everywhere; unset, empty or 1 leaves it on.
        fuse_mode = os.environ.get("REPRO_SIM_FUSE", "").strip()
        if fuse_mode not in ("", "0", "1"):
            raise ValueError(
                "REPRO_SIM_FUSE must be '0' or '1' (got %r)" % fuse_mode
            )
        self._fuse_enabled = fuse_mode != "0"
        self._fuse_retry_at = 0.0
        # Per-CU adaptive fusion cap (see module constants).
        self._fuse_cap = _FUSE_RUN_CAP
        # Pre-bound machine-wide horizon query (both queue disciplines
        # answer it exactly, so fusion decisions are
        # engine-mode-independent).
        self._fusion_horizon = simulator.engine.events.fusion_horizon
        self._fused_accesses = 0
        self._translated_cb = self._translated
        self._slots = []

    def add_cta(self, trace):
        """Queue one CTA's access stream (numpy int64 array of VAs).

        The per-page decomposition is vectorized here — one shift and
        one mask over the whole trace — instead of per access in the
        issue path.  ``sames[i]`` pre-answers "does access ``i`` touch
        the same VA cache line as access ``i-1``?" for the whole trace
        in two vectorized compares: same VA line implies same page,
        same PPN and same PA line, so inside a provable fused run such
        an access is a guaranteed L1-TLB + L1-cache hit whose LRU
        touches are no-ops — the fast path consumes it without probing
        either structure (see :meth:`_WavefrontSlot._issue`).  All three
        stay numpy arrays until a slot picks the CTA and turns them into
        lists, so a queued CTA holds no Python objects for the garbage
        collector to traverse.
        """
        if len(trace):
            lines = trace >> _LINE_SHIFT
            sames = np.empty(len(trace), dtype=bool)
            sames[0] = False
            np.equal(lines[1:], lines[:-1], out=sames[1:])
            self.cta_queue.append(
                (trace >> self.page_shift, trace & self._offset_mask, sames)
            )

    def start(self):
        """Activate up to ``num_slots`` wavefront slots."""
        self._gap_f = float(self.compute_gap)
        while self._active_slots < self.num_slots and self.cta_queue:
            self._active_slots += 1
            slot = _WavefrontSlot(self)
            self._slots.append(slot)
            slot.pick_cta()

    def _translated(self, vpn, entry):
        """Translation response arrives back at this CU."""
        self.l1_tlb.insert(
            TLBEntry(entry.vpn, entry.ppn, entry.data_home, entry.coarse_home)
        )
        for slot in self._pending_translations.pop(vpn):
            slot.entry = entry
            slot._data_access()
