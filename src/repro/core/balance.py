"""dHSL-balance: runtime detection and correction of L2 TLB imbalance.

Implements the monitoring hardware of Section V (Figure 6) and the
command-processor decision flow (Listing 2):

* Each chiplet's RTU counts incoming and outgoing translation requests
  and the total serviced, over epochs of 5000 requests.  If
  ``incoming > 2 * outgoing`` for two consecutive epochs, the RTU alerts
  the command processor (CP).
* The CP gathers every RTU's incoming count and every L2 slice's
  hit/miss counters (each message crossing the interconnect), and
  declares imbalance when one chiplet receives more than 80% of incoming
  traffic while the global L2 hit rate exceeds 90%, for two consecutive
  evaluations.  It then broadcasts a switch to fine-grain (page
  granularity) interleaving.
* Switch messages arrive at each chiplet's components asynchronously
  (one link crossing); until they do, components route with their stale
  HSL copy and requests may be re-routed a bounded number of times (the
  simulator's slice logic handles the re-forwarding).
* For switching back, every L2 TLB entry is tagged with its dHSL-coarse
  home chiplet; per-slice counters of accesses per tag reveal when the
  concentration has dissipated (max share below 0.5 for two consecutive
  epochs), and the CP broadcasts a switch back to coarse mode.
"""

from dataclasses import dataclass

from repro.obs.probe import NULL_PROBE


@dataclass
class BalanceParams:
    """Thresholds of the monitoring logic (paper defaults)."""

    epoch_length: int = 5000
    rtu_trigger_ratio: float = 2.0
    share_threshold: float = 0.8
    hit_rate_threshold: float = 0.9
    consecutive_epochs: int = 2
    switch_back_share: float = 0.5
    # Hypothetical configuration from Section V: switching is free — the
    # CP decision and the broadcast apply instantaneously, so no request
    # is ever re-routed.  The paper measured < 1% difference vs real
    # switching; the ablation bench reproduces that comparison.
    magic: bool = False


class _RTUMonitor:
    """Per-chiplet RTU counters (Figure 6a)."""

    __slots__ = (
        "incoming",
        "outgoing",
        "serviced",
        "prev_incoming",
        "prev_outgoing",
        "possible_streak",
    )

    def __init__(self):
        self.incoming = 0
        self.outgoing = 0
        self.serviced = 0
        self.prev_incoming = 0
        self.prev_outgoing = 0
        self.possible_streak = 0

    def roll_epoch(self, trigger_ratio):
        """Close the epoch; return True if imbalance looks possible."""
        possible = self.incoming > trigger_ratio * self.outgoing and self.incoming > 0
        self.prev_incoming = self.incoming
        self.prev_outgoing = self.outgoing
        self.incoming = 0
        self.outgoing = 0
        self.serviced = 0
        if possible:
            self.possible_streak += 1
        else:
            self.possible_streak = 0
        return possible


class BalanceController:
    """The distributed monitoring logic plus the CP decision flow.

    ``interconnect`` (optional) makes message propagation
    route-dependent: the command processor sits on a command die adjacent
    to chiplet ``cp_chiplet`` (0 by default), so reaching chiplet ``i``
    costs one link crossing onto the fabric plus the routed path from the
    CP's chiplet — on the paper's all-to-all that is exactly one
    ``link_latency`` to every chiplet (the original flat model), while on
    a ring or mesh far chiplets receive switch broadcasts later than near
    ones, exactly like the asynchronous arrival the paper describes.
    Without an interconnect, the flat ``link_latency`` model is used.
    """

    def __init__(
        self,
        engine,
        hsl,
        num_chiplets,
        link_latency,
        params=None,
        probe=None,
        interconnect=None,
        cp_chiplet=0,
    ):
        self.engine = engine
        self.hsl = hsl
        self.num_chiplets = num_chiplets
        self.link_latency = link_latency
        self.interconnect = interconnect
        self.cp_chiplet = cp_chiplet
        self.params = params or BalanceParams()
        # Observability hooks (no-ops when probes are off).
        self.probe = probe if probe is not None else NULL_PROBE
        self._rtus = [_RTUMonitor() for _ in range(num_chiplets)]
        # Slice hit/miss counters over the current epoch window.
        self._slice_hits = [0] * num_chiplets
        self._slice_accesses = [0] * num_chiplets
        # Switch-back: per-slice counters keyed by the coarse-home tag of
        # the accessed entry, and an access countdown acting as the epoch.
        self._tag_counters = [
            [0] * num_chiplets for _ in range(num_chiplets)
        ]
        self._tag_window = 0
        self._balanced_streak = 0
        # CP state (Listing 2's prevImbalance).
        self._cp_prev_imbalance = False
        self._cp_busy = False
        # Statistics.
        self.alerts = 0
        self.switch_events = []
        self.enabled = True

    # -- message propagation -----------------------------------------------------

    def _cp_delay(self, chiplet):
        """One-way CP <-> chiplet message latency (route-dependent).

        The CP's command die hangs off the fabric next to ``cp_chiplet``:
        any CP message pays one link crossing to enter the fabric, plus
        the routed path from there.  On an all-to-all this is one
        ``link_latency`` for every chiplet (the paper's flat model).
        """
        if self.interconnect is None:
            return self.link_latency
        if chiplet == self.cp_chiplet:
            return self.interconnect.link_latency
        return self.interconnect.path_latency(self.cp_chiplet, chiplet)

    def _gather_delay(self, alerting_chiplet):
        """Alert -> CP poll -> replies: the end-to-end evaluate latency."""
        if self.interconnect is None:
            # Flat model: alert + poll + reply, one crossing each.
            return 3 * self.link_latency
        worst = max(
            self._cp_delay(chiplet) for chiplet in range(self.num_chiplets)
        )
        return self._cp_delay(alerting_chiplet) + 2 * worst

    # -- event hooks called by the simulator -----------------------------------

    def note_routed(self, src_chiplet, home_chiplet):
        """An L1 miss was routed; updates RTU counters on both ends."""
        if not self.enabled:
            return
        if src_chiplet == home_chiplet:
            # Local requests bypass the RTU entirely (Figure 6a counts
            # only traffic that passes through the RTU).
            return
        self._rtus[src_chiplet].outgoing += 1
        self._rtus[home_chiplet].incoming += 1
        self._note_serviced(src_chiplet)
        self._note_serviced(home_chiplet)

    def _note_serviced(self, chiplet):
        rtu = self._rtus[chiplet]
        rtu.serviced += 1
        if rtu.serviced >= self.params.epoch_length:
            self._end_rtu_epoch(chiplet)

    def note_slice_access(self, chiplet, hit, coarse_home):
        """An L2 slice lookup completed (hit or miss)."""
        if not self.enabled:
            return
        self._slice_accesses[chiplet] += 1
        if hit:
            self._slice_hits[chiplet] += 1
        if coarse_home is not None and self.hsl.commanded == "fine":
            self._tag_counters[chiplet][coarse_home] += 1
            self._tag_window += 1
            if self._tag_window >= self.params.epoch_length:
                self._end_tag_epoch()

    # -- RTU epoch / CP protocol ------------------------------------------------

    def _end_rtu_epoch(self, chiplet):
        rtu = self._rtus[chiplet]
        possible = rtu.roll_epoch(self.params.rtu_trigger_ratio)
        self.probe.rtu_epoch(
            chiplet, rtu.prev_incoming, rtu.prev_outgoing, possible
        )
        if (
            rtu.possible_streak >= self.params.consecutive_epochs
            and self.hsl.commanded == "coarse"
            and not self._cp_busy
        ):
            rtu.possible_streak = 0
            self.alerts += 1
            self.probe.balance_alert(chiplet)
            if self.params.magic:
                self._cp_evaluate()
                return
            self._cp_busy = True
            # Alert travels to the CP, the CP polls all RTUs and slices,
            # replies come back.  Route-dependent on a routed fabric;
            # three link crossings end-to-end on the flat all-to-all.
            # The evaluation runs at the CP; the gather delay covers the
            # alert, the poll fan-out and the replies, all of which are
            # at least one fabric crossing.
            self.engine.after(self._gather_delay(chiplet), self._cp_evaluate)

    def _cp_evaluate(self):
        """Listing 2: the CP decides whether to switch to fine grain."""
        self._cp_busy = False
        incoming = [rtu.prev_incoming for rtu in self._rtus]
        total = sum(incoming)
        accesses = sum(self._slice_accesses)
        hits = sum(self._slice_hits)
        hit_rate = hits / accesses if accesses else 0.0
        imbalance = total > 0 and any(
            count / total > self.params.share_threshold for count in incoming
        )
        if imbalance and hit_rate > self.params.hit_rate_threshold:
            if self._cp_prev_imbalance:
                self._broadcast("fine")
            else:
                self._cp_prev_imbalance = True
        else:
            self._cp_prev_imbalance = False
        # The hit/miss window restarts after each CP evaluation.
        self._slice_hits = [0] * self.num_chiplets
        self._slice_accesses = [0] * self.num_chiplets

    def _broadcast(self, mode):
        if not self.hsl.command(mode):
            return
        self.switch_events.append((self.engine.now, mode))
        self.probe.balance_switch(mode)
        self._cp_prev_imbalance = False
        self._balanced_streak = 0
        if self.params.magic:
            for component in self.hsl.components():
                self.hsl.apply(component, mode)
            return
        for component in self.hsl.components():
            # Each L1 TLB, RTU and slice receives the message after the
            # CP -> chiplet route (one crossing on the flat all-to-all);
            # they apply it asynchronously, so far chiplets on a routed
            # topology run with a stale HSL copy for longer.
            self.engine.after(
                self._cp_delay(component[0]), self._make_apply(component, mode)
            )

    def _make_apply(self, component, mode):
        def apply():
            self.hsl.apply(component, mode)

        return apply

    # -- switch-back ------------------------------------------------------------

    def _end_tag_epoch(self):
        self._tag_window = 0
        balanced = True
        for per_slice in self._tag_counters:
            total = sum(per_slice)
            if total == 0:
                continue
            if max(per_slice) / total > self.params.switch_back_share:
                balanced = False
                break
        self._tag_counters = [
            [0] * self.num_chiplets for _ in range(self.num_chiplets)
        ]
        if balanced:
            self._balanced_streak += 1
            if self._balanced_streak >= self.params.consecutive_epochs:
                self._balanced_streak = 0
                self._broadcast("coarse")
        else:
            self._balanced_streak = 0
