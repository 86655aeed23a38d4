"""Online invariant auditor: is what the simulator did *legal*?

:class:`AuditProbe` consumes the same 19 hooks as the tracer and the
metrics recorder (see :mod:`repro.obs.probe`), but instead of recording
them it *checks* them against the conservation-style invariants the
paper's accounting rests on:

* **Request conservation** — every translation that starts gets exactly
  one response (``translation_start`` count == ``respond`` count), no
  request responds twice, and nothing is left in flight when the run
  finishes.  Unique L1 misses and issued translations pair one-to-one.
* **MSHR balance** — occupancy moves in steps of exactly one entry,
  never exceeds the file's capacity, every allocation is retired, and
  all files are empty at the end of the run.
* **Walker pairing** — every walker grant is followed by exactly
  ``start_level`` per-level PTE reads with strictly descending levels
  (``start_level .. 1``) and then one completion; no walk is reported
  done twice or left running.
* **Timestamp monotonicity** — each request's observable lifecycle
  (``l1_miss -> route -> slice_arrive -> slice_lookup -> walk_* ->
  respond``) carries non-decreasing timestamps; a message scheduled to
  arrive at ``t`` arrives at exactly ``t``.
* **Fabric latency** — every routed message's charged latency equals the
  topology's precomputed ``path_latency`` for its (src, dst) pair (a
  lower bound when per-link contention is enabled), and the reported hop
  count matches ``hop_count``.
* **RTU epoch reconciliation** — each ``rtu_epoch`` roll's ``incoming``
  count equals the number of remote translation routes the auditor
  itself observed into that chiplet since the previous roll.  (The RTU
  counts messages at *issue* time — the ``route`` hook — which is the
  conserved quantity; slice arrivals lag it by the link latency.)

Violations become structured :class:`AuditViolation` records (never
exceptions mid-run, so one broken invariant cannot mask later ones);
callers inspect :attr:`AuditProbe.violations`, or call
:meth:`AuditProbe.raise_if_violations` to fail hard (what the
``REPRO_AUDIT_STRICT=1`` pytest fixture and the ``--audit`` CLI flag
do).

Truncated runs (``Simulator.run(max_events=N)`` stopping with events
still queued) legitimately leave requests in flight; the end-of-run
conservation checks are skipped automatically when the event queue is
non-empty at ``run_finished``.
"""

from repro.obs.probe import Probe

# Float comparisons: engine timestamps are sums of float latencies, so
# two independently computed times that are *semantically* equal can
# differ by accumulated rounding.  All equality checks use this slack.
_TOL = 1e-6


class AuditViolation:
    """One broken invariant, with enough context to debug it."""

    __slots__ = ("kind", "t", "message", "detail")

    def __init__(self, kind, t, message, detail=None):
        self.kind = kind  # short machine-readable category
        self.t = t  # engine time the violation was detected
        self.message = message
        self.detail = detail or {}

    def to_dict(self):
        return {
            "kind": self.kind,
            "t": self.t,
            "message": self.message,
            "detail": self.detail,
        }

    def __repr__(self):
        return "AuditViolation(%s @ %.1f: %s)" % (self.kind, self.t, self.message)


class AuditError(AssertionError):
    """Raised by :meth:`AuditProbe.raise_if_violations`."""


class AuditProbe(Probe):
    """Online invariant checker; see the module docstring."""

    # Fully slotted (the Probe base is too): the per-translation hooks
    # read and write these attributes several times per request, and a
    # fixed-offset slot load is measurably cheaper than an instance-dict
    # lookup on the audited hot path.
    __slots__ = (
        "max_violations",
        "bus",
        "violations",
        "suppressed",
        "checks_passed",
        "l1_misses",
        "l1_coalesced_count",
        "starts",
        "responds",
        "_mshr",
        "_walks",
        "walk_grants",
        "walk_dones",
        "_win_in",
        "_pending_epochs",
        "epochs",
        "page_faults",
        "finished",
        "_contended",
        "_interconnect",
        "_pair_chk",
        "_clock_hwm",
    )

    def __init__(self, max_violations=200, bus=None):
        super().__init__()
        if max_violations < 1:
            raise ValueError("max_violations must be >= 1")
        self.max_violations = max_violations
        #: Optional :class:`repro.obs.bus.MetricsBus`: every recorded
        #: violation is also published as a ``violation`` event.  Only
        #: the (cold) violation path touches it — the satisfied-check
        #: hot path never sees the bus.
        self.bus = bus
        self.violations = []
        self.suppressed = 0  # violations past the max_violations cap
        self.checks_passed = 0  # satisfied invariant evaluations
        # Request conservation.
        self.l1_misses = 0
        self.l1_coalesced_count = 0
        self.starts = 0
        self.responds = 0
        # Request lifecycle state lives in a dedicated slot on the
        # request object itself (``audit_t`` is the last observed
        # timestamp; ``None`` once the response is seen) — a slot read
        # is several times cheaper than an id-keyed dict in the hot
        # hooks.  The in-flight count is derived: starts - responds.
        # MSHR files: name -> [occupancy, allocs, retires, capacity].
        self._mshr = {}
        # Walks in flight: id(record) -> [record, chiplet, last_level,
        # reads]; completed counters for the end-of-run balance.
        self._walks = {}
        self.walk_grants = 0
        self.walk_dones = 0
        # RTU reconciliation: routed-in count per chiplet since the last
        # epoch roll, and rolls awaiting the (synchronous) route hook of
        # the message that triggered them.
        self._win_in = []
        self._pending_epochs = []
        self.epochs = 0
        self.page_faults = 0
        self.finished = False
        self._contended = False
        self._interconnect = None
        # src -> dst -> (hop_count, latency_lo, latency_hi), snapshotted
        # at attach time: the route hook is the auditor's hottest path
        # and two list indexes beat fabric method calls (and the
        # tuple-key allocation a (src, dst)-keyed dict would need on
        # every call).  latency_hi is +inf on contended fabrics, folding
        # the "lower bound only" rule into the same range check.
        self._pair_chk = None
        # Global dispatch-clock high-water mark.  Per-request
        # monotonicity (audit_t) cannot see a machine-wide ordering
        # violation: an event dispatched out of order by a buggy queue
        # still carries its *own* consistent timestamps, so every
        # per-request chain stays monotone while engine.now jumps
        # backward between events.  Tracking the maximum observed
        # engine.now across all hook invocations catches exactly that.
        self._clock_hwm = float("-inf")

    # -- lifecycle ---------------------------------------------------------

    def attach(self, sim):
        super().attach(sim)
        fabric = sim.interconnect
        self._interconnect = fabric
        self._contended = getattr(fabric, "_links", None) is not None
        self._win_in = [0] * fabric.num_chiplets
        n = fabric.num_chiplets
        hi_slack = float("inf") if self._contended else _TOL
        self._pair_chk = [
            [
                (
                    fabric.hop_count(src, dst),
                    fabric.path_latency(src, dst) - _TOL,
                    fabric.path_latency(src, dst) + hi_slack,
                )
                for dst in range(n)
            ]
            for src in range(n)
        ]
        for slice_ in sim.translation.slices:
            mshr = slice_.mshr
            self._mshr[mshr.name] = [0, 0, 0, mshr.capacity]

    # -- violation plumbing -------------------------------------------------

    def _violate(self, kind, message, **detail):
        if len(self.violations) >= self.max_violations:
            self.suppressed += 1
            return
        t = self.engine.now if self.engine is not None else 0.0
        self.violations.append(AuditViolation(kind, t, message, detail))
        if self.bus is not None:
            self.bus.publish(
                "violation", t=t, violation=kind, message=message,
                detail=detail,
            )

    def _clock(self, what):
        """Engine-clock monotonicity: dispatch time must never regress.

        Called from hooks that fire inside event dispatch.  The event
        queue dispatches in machine-wide ``(time, seq)`` order, so
        ``engine.now`` is non-decreasing across *all* events — a
        regression below the high-water mark means some event was
        dispatched out of order.
        """
        engine = self.engine
        if engine is None:
            return  # hook stream driven directly (unit tests)
        now = engine.now
        hwm = self._clock_hwm
        if now >= hwm:
            if now > hwm:
                self._clock_hwm = now
            self.checks_passed += 1
            return
        if now < hwm - _TOL:
            self._violate(
                "engine-clock-regression",
                "%s dispatched at %.6f after the engine clock already "
                "reached %.6f (out-of-order dispatch)"
                % (what, now, hwm),
                hook=what,
                now=now,
                high_water_mark=hwm,
            )

    # -- CU / routing hooks -------------------------------------------------

    def l1_miss(self, cu, vpn):
        self.l1_misses += 1

    def l1_coalesced(self, cu, vpn):
        self.l1_coalesced_count += 1

    def translation_start(self, req):
        self._clock("translation_start")
        self.starts += 1
        try:
            if req.audit_t is not None:
                self._duplicate_start(req)
                return
        except AttributeError:
            pass  # fresh request: slot never written yet
        # req.t0 is the moment the L1 miss resolves (now + L1 latency),
        # slightly ahead of the hook's own clock; it is the lifecycle's
        # first timestamp.
        req.audit_t = req.t0

    def _duplicate_start(self, req):
        """Cold path of translation_start()."""
        self._violate(
            "request-duplicate",
            "translation_start for a request already in flight "
            "(vpn %#x)" % req.vpn,
            vpn=req.vpn,
            origin=req.origin,
        )

    # The hot hooks below fire once per translation; all violation
    # formatting lives in cold ``_*`` helpers to keep their bodies
    # small.

    def route(self, req, src, dst, depart, arrive, hops=1):
        # RTU window bookkeeping.  The overwhelmingly common case — no
        # epoch roll pending — is a bare counter bump kept inline; the
        # reconciliation slow path lives in _close_epochs.
        if self._pending_epochs:
            self._close_epochs(src, dst)
        elif src != dst:
            win = self._win_in
            try:
                win[dst] += 1
            except IndexError:
                # Unattached probes (hook streams driven directly in unit
                # tests) start with an empty window list; grow on demand.
                win.extend([0] * (dst + 1 - len(win)))
                win[dst] += 1

        try:
            last = req.audit_t
        except AttributeError:
            last = None
        if last is None:
            self._unknown_request(
                "route-unknown-request",
                "route hook for a request that never started or already "
                "responded",
                req,
            )
            return
        if depart < last - _TOL or arrive < depart - _TOL:
            self._route_time_violation(req, depart, arrive, last)
        chk = self._pair_chk
        if chk is not None:
            expected_hops, lo, hi = chk[src][dst]
            latency = arrive - depart
            if lo <= latency <= hi and hops == expected_hops:
                self.checks_passed += 1
            else:
                self._route_fabric_violation(src, dst, hops, latency)
        # The message is in flight towards `dst` until `arrive`; recording
        # the arrival keeps the monotonic chain and lets slice_arrive
        # verify the scheduled delivery with a plain equality check.
        req.audit_t = arrive

    def _unknown_request(self, kind, what, req):
        """Cold path shared by the lifecycle hooks: request not in flight."""
        self._violate(kind, "%s (vpn %#x)" % (what, req.vpn), vpn=req.vpn)

    def _route_time_violation(self, req, depart, arrive, last):
        """Cold path of route(): emit precise timestamp violation(s)."""
        if depart < last - _TOL:
            self._violate(
                "timestamp-regression",
                "route departs at %.3f, before the request's previous "
                "event at %.3f (vpn %#x)" % (depart, last, req.vpn),
                vpn=req.vpn,
                depart=depart,
                last=last,
            )
        if arrive < depart - _TOL:
            self._violate(
                "timestamp-regression",
                "route arrives at %.3f before departing at %.3f (vpn %#x)"
                % (arrive, depart, req.vpn),
                vpn=req.vpn,
            )

    def _route_fabric_violation(self, src, dst, hops, latency):
        """Cold path of route(): emit hop-count / latency violation(s)."""
        fabric = self._interconnect
        expected_hops = fabric.hop_count(src, dst)
        charged = fabric.path_latency(src, dst)
        if hops != expected_hops:
            self._violate(
                "route-hops",
                "route %d->%d reported %d hops; topology charges %d"
                % (src, dst, hops, expected_hops),
                src=src,
                dst=dst,
                reported=hops,
                expected=expected_hops,
            )
        if self._contended:
            ok = latency >= charged - _TOL
        else:
            ok = -_TOL <= latency - charged <= _TOL
        if not ok:
            self._violate(
                "route-latency",
                "route %d->%d charged %.3f cycles; topology path "
                "latency is %.3f%s"
                % (
                    src,
                    dst,
                    latency,
                    charged,
                    " (lower bound, contended fabric)"
                    if self._contended
                    else "",
                ),
                src=src,
                dst=dst,
                charged=latency,
                expected=charged,
            )

    def _close_epochs(self, src, dst):
        """Reconcile pending RTU epoch roll(s) against the observed window.

        This route is the message whose RTU accounting triggered the
        roll(s); it belongs to the *closed* epoch.
        """
        win = self._win_in
        remote = src != dst
        limit = dst
        for chiplet, _incoming in self._pending_epochs:
            if chiplet > limit:
                limit = chiplet
        if limit >= len(win):
            win.extend([0] * (limit + 1 - len(win)))
        rolled = set()
        for chiplet, incoming in self._pending_epochs:
            rolled.add(chiplet)
            expected = win[chiplet] + (1 if remote and dst == chiplet else 0)
            if expected != incoming:
                self._violate(
                    "rtu-epoch-mismatch",
                    "RTU epoch on chiplet %d closed with incoming=%d "
                    "but the auditor observed %d routed-in messages "
                    "in the window" % (chiplet, incoming, expected),
                    chiplet=chiplet,
                    reported=incoming,
                    observed=expected,
                )
            else:
                self.checks_passed += 1
            win[chiplet] = 0
        self._pending_epochs = []
        if remote and dst not in rolled:
            win[dst] += 1

    # -- slice hooks --------------------------------------------------------

    def slice_arrive(self, req, chiplet):
        self._clock("slice_arrive")
        try:
            last = req.audit_t
        except AttributeError:
            last = None
        if last is None:
            self._unknown_request(
                "arrive-unknown-request",
                "slice_arrive for a request not in flight",
                req,
            )
            return
        # After a route hook, audit_t is the scheduled delivery time: the
        # arrival must land exactly there (one equality doubles as both
        # the arrival-time check and timestamp monotonicity).
        now = self.engine.now
        delta = now - last
        if -_TOL <= delta <= _TOL:
            self.checks_passed += 1
        else:
            self._arrival_time_violation(req, chiplet, now, last)
        req.audit_t = now

    def _arrival_time_violation(self, req, chiplet, now, last):
        """Cold path of slice_arrive()."""
        self._violate(
            "arrival-time",
            "request arrived at slice %d at %.3f; its route said %.3f "
            "(vpn %#x)" % (chiplet, now, last, req.vpn),
            vpn=req.vpn,
            chiplet=chiplet,
            arrived=now,
            expected=last,
        )

    def slice_lookup(self, req, chiplet, hit):
        self._clock("slice_lookup")
        try:
            last = req.audit_t
        except AttributeError:
            last = None
        if last is None:
            self._unknown_request(
                "lookup-unknown-request",
                "slice_lookup for a request not in flight",
                req,
            )
            return
        # _advance, inlined: this hook fires once per translation.
        now = self.engine.now
        if now < last - _TOL:
            self._time_regression("slice_lookup", req, now, last)
        req.audit_t = now

    def _time_regression(self, what, req, now, last):
        """Cold path shared by the monotonicity checks."""
        self._violate(
            "timestamp-regression",
            "%s at %.3f precedes the request's previous event at %.3f "
            "(vpn %#x)" % (what, now, last, req.vpn),
            vpn=req.vpn,
            event=what,
        )

    def mshr_merge(self, req, chiplet):
        self._advance(req, "mshr_merge")

    def mshr_stall(self, req, chiplet):
        self._advance(req, "mshr_stall")

    def _advance(self, req, what, _TOL=_TOL):
        last = getattr(req, "audit_t", None)
        if last is None:
            return  # not in flight (matching the old dict-lookup skip)
        now = self.engine.now
        if now < last - _TOL:
            self._time_regression(what, req, now, last)
        req.audit_t = now

    def page_fault(self, vpn, chiplet):
        self.page_faults += 1

    # -- MSHR occupancy -----------------------------------------------------

    def mshr_occupancy(self, name, occupancy):
        entry = self._mshr.get(name)
        if entry is None:
            # An MSHR file the auditor never saw at attach time (e.g. a
            # standalone unit test driving hooks directly): adopt it with
            # unknown capacity.
            entry = self._mshr[name] = [0, 0, 0, None]
        prev = entry[0]
        delta = occupancy - prev
        if delta == 1:
            entry[1] += 1
        elif delta == -1:
            entry[2] += 1
        else:
            self._violate(
                "mshr-occupancy-step",
                "MSHR %s jumped from %d to %d entries; occupancy must "
                "move one allocation/retire at a time" % (name, prev, occupancy),
                name=name,
                previous=prev,
                occupancy=occupancy,
            )
        capacity = entry[3]
        if occupancy < 0 or (capacity is not None and occupancy > capacity):
            self._violate(
                "mshr-capacity",
                "MSHR %s reported %d live entries (capacity %s)"
                % (name, occupancy, capacity),
                name=name,
                occupancy=occupancy,
                capacity=capacity,
            )
        else:
            self.checks_passed += 1
        entry[0] = occupancy

    # -- page walks ---------------------------------------------------------

    def walk_start(self, record, chiplet):
        self.walk_grants += 1
        key = id(record)
        if key in self._walks:
            self._violate(
                "walk-duplicate-grant",
                "walker granted twice for the same walk (vpn %#x)" % record.vpn,
                vpn=record.vpn,
                chiplet=chiplet,
            )
            return
        if record.t_request > self.engine.now + _TOL:
            self._violate(
                "timestamp-regression",
                "walk granted at %.3f before it was requested at %.3f "
                "(vpn %#x)" % (self.engine.now, record.t_request, record.vpn),
                vpn=record.vpn,
            )
        # last_level None = no PTE read yet; the first read names the
        # walk's start level (the PWC decides it after this hook fires).
        self._walks[key] = [record, chiplet, None, 0]

    def walk_level(self, record, chiplet, level, remote, t0, t1):
        state = self._walks.get(id(record))
        if state is None:
            self._violate(
                "walk-level-without-grant",
                "PTE read (level %d) for a walk that was never granted "
                "(vpn %#x)" % (level, record.vpn),
                vpn=record.vpn,
                level=level,
            )
            return
        last = state[2]
        if last is None:
            expected = record.start_level
        else:
            expected = last - 1
        if level != expected:
            self._violate(
                "walk-level-order",
                "walk of vpn %#x read level %d; expected level %d "
                "(levels must descend start_level..1)"
                % (record.vpn, level, expected),
                vpn=record.vpn,
                level=level,
                expected=expected,
            )
        else:
            self.checks_passed += 1
        if t1 < t0 - _TOL:
            self._violate(
                "timestamp-regression",
                "PTE read of vpn %#x level %d finishes at %.3f before "
                "starting at %.3f" % (record.vpn, level, t1, t0),
                vpn=record.vpn,
                level=level,
            )
        if chiplet != state[1]:
            self._violate(
                "walk-migrated",
                "walk of vpn %#x granted on chiplet %d read a PTE on "
                "chiplet %d" % (record.vpn, state[1], chiplet),
                vpn=record.vpn,
            )
        state[2] = level
        state[3] += 1

    def walk_done(self, record, chiplet):
        self._clock("walk_done")
        self.walk_dones += 1
        state = self._walks.pop(id(record), None)
        if state is None:
            self._violate(
                "walk-done-without-grant",
                "walk_done for a walk that was never granted (or finished "
                "twice): vpn %#x" % record.vpn,
                vpn=record.vpn,
            )
            return
        if state[2] != 1:
            self._violate(
                "walk-incomplete",
                "walk of vpn %#x finished after level %s; walks must end "
                "with the level-1 (leaf) read" % (record.vpn, state[2]),
                vpn=record.vpn,
                last_level=state[2],
            )
        elif state[3] != record.start_level:
            self._violate(
                "walk-depth",
                "walk of vpn %#x performed %d PTE reads; its start level "
                "%s demands exactly that many"
                % (record.vpn, state[3], record.start_level),
                vpn=record.vpn,
                reads=state[3],
                start_level=record.start_level,
            )
        else:
            self.checks_passed += 1

    # -- responses ----------------------------------------------------------

    def respond(self, req, entry, walk, chiplet, arrive):
        self._clock("respond")
        try:
            last = req.audit_t
        except AttributeError:
            last = None
        if last is None:
            self._respond_unmatched(req, chiplet)
            return
        req.audit_t = None  # marks the lifecycle closed
        self.responds += 1
        now = self.engine.now
        if arrive < now - _TOL or now < last - _TOL:
            self._respond_time_violation(req, arrive, now, last)
        else:
            self.checks_passed += 1
        if entry is not None and entry.vpn != req.vpn:
            self._violate(
                "wrong-translation",
                "request for vpn %#x answered with the entry of vpn %#x"
                % (req.vpn, entry.vpn),
                requested=req.vpn,
                answered=entry.vpn,
            )

    def _respond_unmatched(self, req, chiplet):
        """Cold path of respond(): request not in flight."""
        self._violate(
            "respond-unmatched",
            "respond for a request that never started or already "
            "responded (vpn %#x)" % req.vpn,
            vpn=req.vpn,
            chiplet=chiplet,
        )

    def _respond_time_violation(self, req, arrive, now, last):
        """Cold path of respond(): timestamps out of order."""
        self._violate(
            "timestamp-regression",
            "response to vpn %#x leaves at %.3f / arrives at %.3f, "
            "against a previous event at %.3f" % (req.vpn, now, arrive, last),
            vpn=req.vpn,
            arrive=arrive,
        )

    # -- balance machinery --------------------------------------------------

    def rtu_epoch(self, chiplet, incoming, outgoing, possible):
        self.epochs += 1
        if incoming < 0 or outgoing < 0:
            self._violate(
                "rtu-negative",
                "RTU epoch on chiplet %d closed with negative counters "
                "(incoming=%d outgoing=%d)" % (chiplet, incoming, outgoing),
                chiplet=chiplet,
            )
        # The roll fires from inside the RTU accounting of one routed
        # message whose own `route` hook has not run yet; reconciliation
        # is deferred to that hook (see `route`).
        self._pending_epochs.append((chiplet, incoming))

    # -- end of run ---------------------------------------------------------

    def run_finished(self, stats):
        self.finished = True
        if self._pending_epochs:
            # Cannot happen with the simulator's synchronous hook order;
            # seeing it means a route hook was skipped.
            for chiplet, incoming in self._pending_epochs:
                self._violate(
                    "rtu-epoch-orphan",
                    "RTU epoch on chiplet %d (incoming=%d) was never "
                    "followed by the route that triggered it"
                    % (chiplet, incoming),
                    chiplet=chiplet,
                )
            self._pending_epochs = []
        if self.engine is not None and len(self.engine.events) > 0:
            # Truncated run (max_events): in-flight work is expected;
            # conservation cannot be checked.
            return
        if self.starts != self.responds:
            self._violate(
                "request-conservation",
                "%d translations started but %d responded"
                % (self.starts, self.responds),
                starts=self.starts,
                responds=self.responds,
            )
        else:
            self.checks_passed += 1
        open_count = self.starts - self.responds
        if open_count > 0:
            self._violate(
                "requests-in-flight",
                "%d requests still in flight at run end" % open_count,
                count=open_count,
            )
        if self.l1_misses != self.starts:
            self._violate(
                "miss-start-pairing",
                "%d unique L1 misses but %d translations issued"
                % (self.l1_misses, self.starts),
                l1_misses=self.l1_misses,
                starts=self.starts,
            )
        for name, (occupancy, allocs, retires, _cap) in sorted(
            self._mshr.items()
        ):
            if occupancy != 0:
                self._violate(
                    "mshr-leak",
                    "MSHR %s still holds %d entries at run end"
                    % (name, occupancy),
                    name=name,
                    occupancy=occupancy,
                )
            if allocs != retires:
                self._violate(
                    "mshr-balance",
                    "MSHR %s allocated %d entries but retired %d"
                    % (name, allocs, retires),
                    name=name,
                    allocs=allocs,
                    retires=retires,
                )
        if self.walk_grants != self.walk_dones:
            self._violate(
                "walk-conservation",
                "%d walker grants but %d walk completions"
                % (self.walk_grants, self.walk_dones),
                grants=self.walk_grants,
                dones=self.walk_dones,
            )
        if self._walks:
            self._violate(
                "walks-in-flight",
                "%d page walks still running at run end" % len(self._walks),
                count=len(self._walks),
            )
        if stats is not None:
            observed = self.l1_misses + self.l1_coalesced_count
            if observed != stats.l1_tlb_misses:
                self._violate(
                    "stats-l1-misses",
                    "probe saw %d L1 misses (unique + coalesced); RunStats "
                    "counted %d" % (observed, stats.l1_tlb_misses),
                    observed=observed,
                    counted=stats.l1_tlb_misses,
                )
            if self.walk_dones != stats.walks:
                self._violate(
                    "stats-walks",
                    "probe saw %d walk completions; RunStats counted %d"
                    % (self.walk_dones, stats.walks),
                    observed=self.walk_dones,
                    counted=stats.walks,
                )

    # -- reporting ----------------------------------------------------------

    @property
    def ok(self):
        return not self.violations and not self.suppressed

    def summary(self):
        by_kind = {}
        for violation in self.violations:
            by_kind[violation.kind] = by_kind.get(violation.kind, 0) + 1
        return {
            "ok": self.ok,
            "violations": len(self.violations) + self.suppressed,
            "by_kind": by_kind,
            "checks_passed": self.checks_passed,
            "requests": self.starts,
            "responses": self.responds,
            "walks": self.walk_dones,
            "epochs": self.epochs,
            "finished": self.finished,
        }

    def raise_if_violations(self, limit=10):
        """Raise :class:`AuditError` listing the first ``limit`` violations."""
        if self.ok:
            return
        total = len(self.violations) + self.suppressed
        lines = ["%d audit violation(s):" % total]
        for violation in self.violations[:limit]:
            lines.append(
                "  [%s @ t=%.1f] %s"
                % (violation.kind, violation.t, violation.message)
            )
        if total > limit:
            lines.append("  ... %d more" % (total - limit))
        raise AuditError("\n".join(lines))
