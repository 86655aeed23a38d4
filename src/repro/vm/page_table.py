"""Four-level radix page table with per-page placement.

The GPU driver populates this structure at kernel launch.  Two aspects
matter to the simulation:

* **Translation** — ``translate(vpn)`` yields the physical page number and
  the chiplet holding the data page (from the data-placement policy).

* **Placement of the page-table pages themselves** — every node of the
  radix tree is a 4 KB page living on some chiplet's memory.  A page walk
  touching a node on a different chiplet than the walker is a *remote*
  page-walk access, the central cost the paper measures.  Node homes are
  assigned by the PTE-placement policies in ``repro.driver.pte_placement``.

Each node gets a synthetic physical address so PTE reads can be cached in
the per-chiplet L2 data caches alongside data, as in the paper's design.
"""

from repro.vm.address import PTE_SIZE

# Synthetic physical address space reserved for page-table pages, far above
# any data address the workloads generate.
_PT_PA_BASE = 1 << 52
_PT_PAGE_STRIDE = 4096
_CACHE_LINE = 64


class PageFault(Exception):
    """Raised when translating a VPN the driver never mapped."""


class PageTableNode:
    """One 4 KB page of the radix tree."""

    __slots__ = ("level", "prefix", "home", "pa")

    def __init__(self, level, prefix, pa, home=None):
        self.level = level
        self.prefix = prefix
        self.home = home
        self.pa = pa

    def __repr__(self):
        return "PageTableNode(level=%d, prefix=%#x, home=%r)" % (
            self.level,
            self.prefix,
            self.home,
        )


class PageTable:
    """The in-memory radix page table of one GPU process."""

    def __init__(self, geometry):
        self.geometry = geometry
        self._nodes = {}
        self._translations = {}
        self._next_node_id = 0

    # -- construction --------------------------------------------------------

    def _node(self, level, prefix):
        key = (level, prefix)
        node = self._nodes.get(key)
        if node is None:
            pa = _PT_PA_BASE + self._next_node_id * _PT_PAGE_STRIDE
            self._next_node_id += 1
            node = PageTableNode(level, prefix, pa)
            self._nodes[key] = node
        return node

    def map_page(self, vpn, ppn, data_home):
        """Install the translation ``vpn -> (ppn, data_home)``.

        Creates (or reuses) the radix nodes on the walk path.  Node homes
        are left unset here; the PTE-placement policy assigns them.
        """
        self.map_pages({vpn: (ppn, data_home)})

    def map_pages(self, translations):
        """:meth:`map_page` for every ``vpn -> (ppn, data_home)`` of the
        dict ``translations``, in its order.

        A walk path is a function of the VPN's leaf prefix, and a page
        revisits every node an earlier page with the same leaf prefix
        created.  So new nodes appear only at the first page of each leaf
        prefix, and creating the paths of those pages alone, root to
        leaf, allocates exactly the nodes a page-by-page loop would, in
        the same order.  That order is load-bearing: it fixes each node's
        synthetic ``pa``, hence every PTE line address and L2 set.
        """
        self._translations.update(translations)
        radix_bits = self.geometry.radix_bits
        levels = range(self.geometry.levels, 0, -1)
        node = self._node
        for leaf in dict.fromkeys([vpn >> radix_bits for vpn in translations]):
            for level in levels:
                node(level, leaf >> (radix_bits * (level - 1)))

    def set_node_home(self, level, prefix, chiplet):
        node = self._nodes.get((level, prefix))
        if node is None:
            node = self._node(level, prefix)
        node.home = chiplet

    # -- queries -------------------------------------------------------------

    def translate(self, vpn):
        """Return ``(ppn, data_home)`` or raise :class:`PageFault`."""
        result = self._translations.get(vpn)
        if result is None:
            raise PageFault("no translation for vpn %#x" % vpn)
        return result

    def is_mapped(self, vpn):
        return vpn in self._translations

    def walk_path(self, vpn):
        """Nodes read by a full walk, root (level 4) to leaf (level 1)."""
        geometry = self.geometry
        return [
            self._nodes[(level, geometry.node_prefix(vpn, level))]
            for level in range(geometry.levels, 0, -1)
        ]

    def walk_nodes_if_present(self, vpn):
        """Nodes already allocated on the walk path (demand paging)."""
        geometry = self.geometry
        nodes = []
        for level in range(geometry.levels, 0, -1):
            node = self._nodes.get((level, geometry.node_prefix(vpn, level)))
            if node is not None:
                nodes.append(node)
        return nodes

    def node_for(self, vpn, level):
        return self._nodes.get((level, self.geometry.node_prefix(vpn, level)))

    def pte_line_address(self, node, vpn):
        """Cache-line address of the PTE for ``vpn`` inside ``node``."""
        index = self.geometry.level_index(vpn, node.level)
        byte = index * PTE_SIZE
        return node.pa + (byte // _CACHE_LINE) * _CACHE_LINE

    # -- introspection -------------------------------------------------------

    def iter_nodes(self, level=None):
        for (node_level, _prefix), node in self._nodes.items():
            if level is None or node_level == level:
                yield node

    def leaf_nodes(self):
        return self.iter_nodes(level=1)

    @property
    def num_nodes(self):
        return len(self._nodes)

    @property
    def num_translations(self):
        return len(self._translations)

    def entries_per_node(self):
        """Sanity bound: children a node can index (geometry radix)."""
        return self.geometry.ptes_per_page
