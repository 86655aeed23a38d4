"""Topology-aware in-package interconnect between chiplets.

The paper models 768 GB/s of bi-directional bandwidth between any pair
of chiplets with ~32 ns latency, and notes the bandwidth is adequate —
the latency is what hurts.  This layer generalizes that fixed all-to-all
into a routed fabric: a :class:`~repro.arch.topology.Topology` yields a
per-pair path (an ordered tuple of directed links), and every message
charges per-hop latency along its route.  On the default all-to-all
every remote path is one hop, so ``traverse`` costs exactly the old
``link_latency`` and nothing about the paper's timing model changes.

Optional per-link bandwidth contention: when ``issue_interval`` is set,
every directed link owns a :class:`~repro.engine.resources.Timeline`
that admits one message per ``issue_interval`` cycles; a routed message
reserves each link of its path in order, so congestion on a shared ring
or mesh segment delays everyone routed through it.

Statistics: messages are counted per requester *kind* (``translation``,
``data``, ``pte``, ``control``), both as crossings (messages that left
their source chiplet) and as hops (total link traversals — on multi-hop
topologies hops > crossings); each directed link additionally keeps its
own per-kind traversal counts for hotspot analysis, exported into the
raw CSV (see ``repro.stats.export``).

The RTU (Remote Translation Unit) and RMA (Remote Memory Access) units
of each chiplet are the endpoints: translation traffic and data traffic
are counted separately.
"""

from repro.arch.topology import AllToAllTopology, build_topology
from repro.engine.resources import Timeline

#: Message kinds the fabric accounts separately.
KINDS = ("translation", "data", "pte", "control")


class Interconnect:
    """Routed chiplet fabric charging per-hop latency along each path."""

    def __init__(
        self,
        num_chiplets=None,
        link_latency=32.0,
        issue_interval=None,
        topology=None,
        inter_package_latency=None,
    ):
        if topology is None:
            if num_chiplets is None:
                raise ValueError("need num_chiplets or a topology")
            topology = AllToAllTopology(num_chiplets)
        elif isinstance(topology, str):
            weight = None
            if inter_package_latency is not None and link_latency:
                weight = float(inter_package_latency) / float(link_latency)
            topology = build_topology(
                topology, num_chiplets, inter_package_weight=weight
            )
        elif num_chiplets is not None and topology.num_chiplets != num_chiplets:
            raise ValueError(
                "topology %r has %d chiplets, machine has %d"
                % (topology.kind, topology.num_chiplets, num_chiplets)
            )
        self.topology = topology
        self.num_chiplets = topology.num_chiplets
        self.link_latency = float(link_latency)

        # Precomputed per-link latency and per-pair tables: the all-to-all
        # fast path must stay a dict lookup plus one add.
        self._link_latency = {
            link: self.link_latency * topology.link_weight(link)
            for link in topology.links()
        }
        self._paths = {}
        self._pair_latency = {}
        self._pair_hops = {}
        n = self.num_chiplets
        for src in range(n):
            for dst in range(n):
                path = topology.path(src, dst)
                self._paths[(src, dst)] = path
                self._pair_hops[(src, dst)] = len(path)
                self._pair_latency[(src, dst)] = sum(
                    self._link_latency[link] for link in path
                )

        self._links = None
        if issue_interval:
            self._links = {
                link: Timeline(issue_interval) for link in topology.links()
            }

        # Uniform single-hop fabrics (the default all-to-all) take a
        # short traverse path: constant latency, one hop, no path loop.
        self._single = None
        if topology.diameter_hops() <= 1 and all(
            weight == 1.0
            for weight in (topology.link_weight(l) for l in topology.links())
        ):
            self._single = self.link_latency

        # Accounting: messages (crossings) and link traversals (hops) per
        # kind.  Per-directed-link per-kind counts live in flat lists
        # indexed ``src * n + dst`` — a list index is markedly cheaper
        # than a tuple-keyed dict lookup in the traverse hot path; the
        # dict-shaped views below rebuild the friendly form on demand.
        self.crossings = {kind: 0 for kind in KINDS}
        self.hops = {kind: 0 for kind in KINDS}
        self._kind_link_counts = {
            kind: [0] * (self.num_chiplets * self.num_chiplets)
            for kind in KINDS
        }

    # -- traversal ----------------------------------------------------------

    def traverse(self, src, dst, at, kind="translation"):
        """Time at which a message sent at ``at`` arrives at ``dst``.

        Charges the routed path's per-hop latency; with per-link
        contention enabled, reserves each link's timeline in order.
        ``src == dst`` is free and records nothing.
        """
        if src == dst:
            return at
        self.crossings[kind] += 1
        single = self._single
        if single is not None:
            # Uniform single-hop fabric (default all-to-all): constant
            # latency, exactly one link, no routing loop.
            self.hops[kind] += 1
            self._kind_link_counts[kind][src * self.num_chiplets + dst] += 1
            if self._links is None:
                return at + single
            return self._links[(src, dst)].reserve(at) + single
        path = self._paths[(src, dst)]
        self.hops[kind] += len(path)
        counts = self._kind_link_counts[kind]
        n = self.num_chiplets
        for a, b in path:
            counts[a * n + b] += 1
        if self._links is None:
            return at + self._pair_latency[(src, dst)]
        t = at
        for link in path:
            start = self._links[link].reserve(t)
            t = start + self._link_latency[link]
        return t

    def path_latency(self, src, dst):
        """Uncontended latency of the routed ``src -> dst`` path (0 local)."""
        return self._pair_latency[(src, dst)]

    def hop_count(self, src, dst):
        """Links a ``src -> dst`` message traverses (0 if local)."""
        return self._pair_hops[(src, dst)]

    def round_trip(self, src, dst):
        """Added latency of going to ``dst`` and back (0 if local)."""
        return self._pair_latency[(src, dst)] + self._pair_latency[(dst, src)]

    # -- statistics ---------------------------------------------------------

    def total_crossings(self):
        """Messages that left their source chiplet (all kinds)."""
        return sum(self.crossings.values())

    def total_hops(self):
        """Total link traversals (all kinds)."""
        return sum(self.hops.values())

    @property
    def link_crossings(self):
        """``{directed link: {kind: traversals}}`` (dict view)."""
        n = self.num_chiplets
        return {
            link: {
                kind: self._kind_link_counts[kind][link[0] * n + link[1]]
                for kind in KINDS
            }
            for link in self.topology.links()
        }

    def link_totals(self):
        """``{directed link: total traversals}`` over all kinds."""
        n = self.num_chiplets
        return {
            link: sum(
                self._kind_link_counts[kind][link[0] * n + link[1]]
                for kind in KINDS
            )
            for link in self.topology.links()
        }

    def max_link_crossings(self):
        """Traversals of the busiest directed link (0 if no traffic)."""
        totals = self.link_totals()
        return max(totals.values()) if totals else 0

    def link_wait_cycles(self):
        """Total queueing delay accrued on link timelines (0 uncontended)."""
        if self._links is None:
            return 0.0
        return sum(timeline.total_wait for timeline in self._links.values())
