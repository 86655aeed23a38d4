"""One chiplet's L2 TLB slice.

Owns the slice's TLB array, lookup port, MSHR file and the link to the
chiplet's walker pool.  Implements:

* hit/miss servicing with port contention and MSHR back-pressure;
* the routing/re-routing rules for asynchronous dHSL switches
  (Figure 6b of the paper): a slice looks up every request it receives;
  on a miss it only starts a walk if *its own* copy of the HSL says the
  request belongs here, otherwise it forwards the request to the home
  its HSL copy names — bounded, because all copies eventually agree;
* the remote-TLB-caching mode of Figure 16 (local slice first, forward
  to the home slice on miss, install the response locally).
"""

from repro.engine.resources import Timeline
from repro.vm.mshr import MSHRFile
from repro.vm.tlb import TLB, TLBEntry

_MAX_REROUTES = 4


class L2TLBSlice:
    """The L2 TLB slice (and translation service) of one chiplet."""

    __slots__ = (
        "system",
        "engine",
        "stats",
        "chiplet",
        "tlb",
        "port",
        "lookup_latency",
        "mshr",
        "probe",
        "_probe_arrive",
        "_probe_lookup",
        "_probe_respond",
    )

    def __init__(self, system, chiplet, params):
        self.system = system
        self.engine = system.engine
        self.stats = system.stats
        self.chiplet = chiplet
        self.tlb = TLB(
            params.l2_tlb_entries, params.l2_tlb_assoc, name="l2tlb%d" % chiplet
        )
        self.port = Timeline(params.l2_tlb_port_interval)
        self.lookup_latency = params.l2_tlb_latency
        # Observability hooks (pre-bound no-ops when probes are off).
        probe = system.probe
        self.probe = probe
        self._probe_arrive = probe.slice_arrive
        self._probe_lookup = probe.slice_lookup
        self._probe_respond = probe.respond
        self.mshr = MSHRFile(
            params.l2_tlb_mshrs, name="l2mshr%d" % chiplet, probe=probe
        )

    # -- request intake --------------------------------------------------------

    def receive(self, req):
        """A translation request arrives at this slice."""
        if req.origin != self.chiplet:
            self.stats.per_chiplet_incoming[self.chiplet] += 1
        self._probe_arrive(req, self.chiplet)
        start = self.port.reserve(self.engine.now)
        self.engine.at(
            start + self.lookup_latency, lambda: self._lookup_done(req)
        )

    def _lookup_done(self, req):
        entry = self.tlb.lookup(req.vpn)
        system = self.system
        self._probe_lookup(req, self.chiplet, entry is not None)
        if system.balance is not None:
            system.balance.note_slice_access(
                self.chiplet, entry is not None, system.coarse_home(req.va)
            )
        if entry is not None:
            self._respond(req, entry, walk=None)
            return

        # Miss in this slice's array.
        if req.forward_home is not None and req.forward_home != self.chiplet:
            # Remote-caching mode: local slice missed; forward to the true
            # home and remember to install the answer locally.
            target = req.forward_home
            req.forward_home = None
            req.cache_locally = True
            system.forward(req, self.chiplet, target)
            return

        if system.dynamic_hsl is not None:
            owner = system.dynamic_hsl.home(
                req.va, req.origin, component=(self.chiplet, "slice")
            )
            if owner != self.chiplet and req.hops < _MAX_REROUTES:
                # This slice's HSL copy says another slice owns the VA
                # (asynchronous switch in flight): re-route.
                req.hops += 1
                self.stats.reroutes += 1
                self.probe.reroute(req, self.chiplet, owner)
                system.forward(req, self.chiplet, owner)
                return

        self._admit_miss(req)

    # -- miss path ---------------------------------------------------------------

    def _admit_miss(self, req):
        self.stats.l2_miss_requests += 1
        if self.mshr.merge(req.vpn, req):
            self.stats.mshr_merges += 1
            self.probe.mshr_merge(req, self.chiplet)
            return
        if not self.mshr.allocate(req.vpn, req):
            # MSHR full: the miss cannot be serviced yet (paper: "no new
            # TLB misses can be served").
            self.stats.mshr_stalls += 1
            self.probe.mshr_stall(req, self.chiplet)
            self.mshr.park(req)
            return
        self._start_walk(req.vpn)

    def _start_walk(self, vpn):
        system = self.system
        handler = system.fault_handler
        if handler is not None and not system.page_table.is_mapped(vpn):
            # Demand paging (UVM): resolve the GPU page fault first, then
            # walk.  The handler places the data page and homes any new
            # page-table pages (Section VII of the paper).
            self.probe.page_fault(vpn, self.chiplet)
            self.stats.page_faults += 1
            self.stats.fault_cycles += system.fault_latency
            handler.handle(vpn, self.chiplet)
            self.engine.after(
                system.fault_latency,
                lambda: system.walkers[self.chiplet].walk(vpn, self._walk_done),
            )
            return
        system.walkers[self.chiplet].walk(vpn, self._walk_done)

    def _walk_done(self, record):
        vpn = record.vpn
        system = self.system
        stats = self.stats
        ppn, data_home = system.page_table.translate(vpn)
        coarse = system.coarse_home(vpn * system.geometry.page_size)
        entry = TLBEntry(vpn, ppn, data_home, coarse_home=coarse)
        self.tlb.insert(entry)

        stats.walks += 1
        stats.walk_latency_sum += record.latency
        stats.pw_accesses_local += record.accesses_local
        stats.pw_accesses_remote += record.accesses_remote
        stats.pw_cycles_local += record.cycles_local
        stats.pw_cycles_remote += record.cycles_remote

        for waiter in self.mshr.complete(vpn):
            self._respond(waiter, entry, walk=record)

        parked = self.mshr.unpark()
        if parked is not None:
            # Re-admit one parked miss now that an MSHR entry is free.
            if self.mshr.merge(parked.vpn, parked):
                self.stats.mshr_merges += 1
                self.probe.mshr_merge(parked, self.chiplet)
            elif self.mshr.allocate(parked.vpn, parked):
                self._start_walk(parked.vpn)
            else:
                self.mshr.park(parked)

    # -- responses ----------------------------------------------------------------

    def _respond(self, req, entry, walk):
        system = self.system
        arrive = system.interconnect.traverse(
            self.chiplet, req.origin, self.engine.now, kind="translation"
        )
        self._probe_respond(req, entry, walk, self.chiplet, arrive)
        latency = arrive - req.t0
        stats = self.stats
        if walk is None:
            if self.chiplet == req.origin:
                stats.l2_hits_local += 1
                stats.cycles_local_hit += latency
            else:
                stats.l2_hits_remote += 1
                stats.cycles_remote_hit += latency
        else:
            remote_fraction = walk.remote_cycle_fraction
            stats.cycles_pw_remote += latency * remote_fraction
            stats.cycles_pw_local += latency * (1.0 - remote_fraction)

        if req.cache_locally and self.chiplet != req.origin:
            # Figure 16: install the translation in the requester's slice.
            origin_slice = system.slices[req.origin]
            clone = TLBEntry(
                entry.vpn, entry.ppn, entry.data_home, entry.coarse_home
            )
            self.engine.at(arrive, lambda: origin_slice.tlb.insert(clone))

        self.engine.at(arrive, lambda: req.callback(req.vpn, entry))
