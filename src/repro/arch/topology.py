"""In-package fabric topologies and their routing.

The paper evaluates a fixed 4-chiplet package whose fabric is an
all-to-all of ~32 ns links, and its sensitivity study (Figures 12-13)
varies only the link latency.  Related chiplet-GPU work shows locality
conclusions shift with chiplet count and interposer topology, so the
fabric is factored into a first-class :class:`Topology` layer:

* a topology names the chiplets and the **directed links** between them;
* for every ``(src, dst)`` pair it yields a *routed path* — the ordered
  tuple of directed links a message traverses — precomputed at
  construction (chiplet counts are tiny, <= dozens);
* each link carries a *weight* (latency multiplier), so a hierarchical
  dual-package fabric can make its inter-package link slower than the
  in-package ones.

The :class:`~repro.arch.interconnect.Interconnect` charges per-hop
latency along these paths (and, optionally, per-link bandwidth
contention); nothing else in the simulator needs to know the shape of
the fabric.

Built-in topologies
-------------------

``all-to-all``     Direct link between every pair (the paper's package).
                   Every remote path is exactly one hop.
``ring``           Bidirectional ring; messages take the shorter
                   direction (ties go clockwise).
``mesh``           2D mesh with deterministic XY (dimension-order)
                   routing.  The grid is the most-square factorization
                   of the chiplet count (8 -> 2x4, 4 -> 2x2, a prime
                   count degenerates to a line).
``dual-package``   Two packages, each an internal all-to-all, joined by
                   one inter-package link between gateway chiplets
                   (chiplet 0 and chiplet n/2).  The inter-package link
                   is slower (``inter_package_latency``).
"""

import math


class Topology:
    """Base class: named chiplets + routed paths between every pair.

    Subclasses implement :meth:`_route` (called once per ordered pair at
    construction); everything else — hop counts, link inventory, weights
    — derives from the precomputed path table.
    """

    kind = "base"

    def __init__(self, num_chiplets):
        if num_chiplets < 1:
            raise ValueError("num_chiplets must be >= 1, got %d" % num_chiplets)
        self.num_chiplets = int(num_chiplets)
        self._paths = {}
        for src in range(self.num_chiplets):
            for dst in range(self.num_chiplets):
                if src == dst:
                    self._paths[(src, dst)] = ()
                    continue
                path = tuple(self._route(src, dst))
                self._validate_path(src, dst, path)
                self._paths[(src, dst)] = path

    # -- subclass contract --------------------------------------------------

    def _route(self, src, dst):
        """The ordered directed links from ``src`` to ``dst``."""
        raise NotImplementedError

    def link_weight(self, link):
        """Latency multiplier of one directed link (1.0 = one base hop)."""
        return 1.0

    # -- derived API --------------------------------------------------------

    def path(self, src, dst):
        """Routed path ``src -> dst`` as a tuple of directed links."""
        return self._paths[(src, dst)]

    def hop_count(self, src, dst):
        """Number of links a ``src -> dst`` message traverses (0 if local)."""
        return len(self._paths[(src, dst)])

    def path_weight(self, src, dst):
        """Sum of link weights along the route (latency in base-hop units)."""
        return sum(self.link_weight(link) for link in self._paths[(src, dst)])

    def links(self):
        """Every directed link used by at least one routed path (sorted)."""
        used = set()
        for path in self._paths.values():
            used.update(path)
        return sorted(used)

    def diameter_hops(self):
        """The largest hop count over all pairs."""
        return max(len(path) for path in self._paths.values())

    def _validate_path(self, src, dst, path):
        if not path:
            raise ValueError(
                "%s: empty path for remote pair %d -> %d"
                % (self.kind, src, dst)
            )
        if path[0][0] != src or path[-1][1] != dst:
            raise ValueError(
                "%s: path %r does not connect %d -> %d"
                % (self.kind, path, src, dst)
            )
        for (_, a), (b, _) in zip(path, path[1:]):
            if a != b:
                raise ValueError(
                    "%s: discontinuous path %r for %d -> %d"
                    % (self.kind, path, src, dst)
                )

    def describe(self):
        """One-line human summary (CLI / docs)."""
        return "%s(%d chiplets, %d links, diameter %d hops)" % (
            self.kind,
            self.num_chiplets,
            len(self.links()),
            self.diameter_hops(),
        )

    def __repr__(self):
        return "%s(num_chiplets=%d)" % (type(self).__name__, self.num_chiplets)


class AllToAllTopology(Topology):
    """The paper's package: a direct link between every chiplet pair."""

    kind = "all-to-all"

    def _route(self, src, dst):
        return [(src, dst)]


class RingTopology(Topology):
    """Bidirectional ring; shortest-direction routing (ties clockwise)."""

    kind = "ring"

    def __init__(self, num_chiplets):
        if num_chiplets < 2:
            raise ValueError("ring topology needs >= 2 chiplets")
        super().__init__(num_chiplets)

    def _route(self, src, dst):
        n = self.num_chiplets
        forward = (dst - src) % n
        backward = (src - dst) % n
        step = 1 if forward <= backward else -1
        path = []
        node = src
        while node != dst:
            succ = (node + step) % n
            path.append((node, succ))
            node = succ
        return path


class MeshTopology(Topology):
    """2D mesh with deterministic XY (dimension-order) routing.

    The grid is the most-square factorization of the chiplet count:
    ``rows`` is the largest divisor of ``n`` not exceeding ``sqrt(n)``.
    Prime counts degenerate to a 1 x n line (still a valid mesh).
    """

    kind = "mesh"

    def __init__(self, num_chiplets):
        if num_chiplets < 2:
            raise ValueError("mesh topology needs >= 2 chiplets")
        self.rows, self.cols = self._grid_dims(num_chiplets)
        super().__init__(num_chiplets)

    @staticmethod
    def _grid_dims(n):
        rows = 1
        for divisor in range(int(math.isqrt(n)), 0, -1):
            if n % divisor == 0:
                rows = divisor
                break
        return rows, n // rows

    def _coords(self, node):
        return node // self.cols, node % self.cols

    def _node(self, row, col):
        return row * self.cols + col

    def _route(self, src, dst):
        row, col = self._coords(src)
        dst_row, dst_col = self._coords(dst)
        path = []
        # X first (move along the row), then Y (along the column).
        while col != dst_col:
            step = 1 if dst_col > col else -1
            nxt = self._node(row, col + step)
            path.append((self._node(row, col), nxt))
            col += step
        while row != dst_row:
            step = 1 if dst_row > row else -1
            nxt = self._node(row + step, col)
            path.append((self._node(row, col), nxt))
            row += step
        return path

    def describe(self):
        return "mesh(%dx%d, %d links, diameter %d hops)" % (
            self.rows,
            self.cols,
            len(self.links()),
            self.diameter_hops(),
        )


class DualPackageTopology(Topology):
    """Two all-to-all packages joined by one (slower) inter-package link.

    Chiplets ``[0, n/2)`` form package 0, ``[n/2, n)`` package 1; the
    gateway chiplets are 0 and n/2.  A cross-package message hops to its
    local gateway, crosses the inter-package link, then hops to the
    destination (gateway hops are skipped when the endpoint *is* the
    gateway).  ``inter_package_weight`` scales the inter-package link's
    latency relative to an in-package hop (the physical link leaves the
    silicon interposer, so it is several times slower).
    """

    kind = "dual-package"

    def __init__(self, num_chiplets, inter_package_weight=3.0):
        if num_chiplets < 2 or num_chiplets % 2:
            raise ValueError(
                "dual-package topology needs an even chiplet count >= 2, "
                "got %d" % num_chiplets
            )
        if inter_package_weight <= 0:
            raise ValueError("inter_package_weight must be positive")
        self.half = num_chiplets // 2
        self.inter_package_weight = float(inter_package_weight)
        super().__init__(num_chiplets)

    def _package(self, node):
        return 0 if node < self.half else 1

    def _gateway(self, package):
        return 0 if package == 0 else self.half

    def is_inter_package(self, link):
        """Whether a directed link crosses the package boundary."""
        return self._package(link[0]) != self._package(link[1])

    def link_weight(self, link):
        if self.is_inter_package(link):
            return self.inter_package_weight
        return 1.0

    def _route(self, src, dst):
        src_pkg, dst_pkg = self._package(src), self._package(dst)
        if src_pkg == dst_pkg:
            return [(src, dst)]
        src_gw, dst_gw = self._gateway(src_pkg), self._gateway(dst_pkg)
        path = []
        if src != src_gw:
            path.append((src, src_gw))
        path.append((src_gw, dst_gw))
        if dst != dst_gw:
            path.append((dst_gw, dst))
        return path


#: Registry of topology names (CLI ``--topology`` / ``GPUParams.topology``).
TOPOLOGIES = {
    "all-to-all": AllToAllTopology,
    "ring": RingTopology,
    "mesh": MeshTopology,
    "dual-package": DualPackageTopology,
}

_ALIASES = {
    "a2a": "all-to-all",
    "alltoall": "all-to-all",
    "crossbar": "all-to-all",
    "mesh2d": "mesh",
    "hierarchical": "dual-package",
    "dualpackage": "dual-package",
}


def topology_names():
    """Canonical topology names, sorted (for CLI choices)."""
    return sorted(TOPOLOGIES)


def build_topology(name, num_chiplets, inter_package_weight=None):
    """Construct a named topology for ``num_chiplets`` chiplets.

    ``inter_package_weight`` only applies to ``dual-package`` (the
    inter-package link's latency in units of one in-package hop).
    Passing an already-built :class:`Topology` returns it unchanged
    (after checking the chiplet count matches).
    """
    if isinstance(name, Topology):
        if name.num_chiplets != num_chiplets:
            raise ValueError(
                "topology %r is built for %d chiplets, machine has %d"
                % (name.kind, name.num_chiplets, num_chiplets)
            )
        return name
    key = str(name).lower().replace("_", "-")
    key = _ALIASES.get(key, key)
    cls = TOPOLOGIES.get(key)
    if cls is None:
        raise ValueError(
            "unknown topology %r (choose from %s)"
            % (name, ", ".join(topology_names()))
        )
    if cls is DualPackageTopology and inter_package_weight is not None:
        return cls(num_chiplets, inter_package_weight=inter_package_weight)
    return cls(num_chiplets)
