"""Page walk cache (PWC).

Caches pointers to page-table *nodes* learned from upper-level PTEs, and
performs a longest-prefix match on the VPN, as the paper describes:
"Based on the length of a prefix match, 1-4 memory accesses are required
for a walk".

A cached key ``(L, prefix)`` means the walker already knows the physical
address of the node at level ``L`` covering the VPN, so the walk starts
by reading the PTE at level ``L`` — ``L`` memory accesses total.  Leaf
translations themselves go to the TLBs, never the PWC, so the best case
is a single (leaf) access and the worst case is a full 4-level walk.

The LRU order lives in a plain ``dict``: a hit deletes and reinserts its
key, and the first key is the victim.
"""


class PageWalkCache:
    """Fully-associative LRU cache of known page-table node pointers."""

    __slots__ = ("entries", "name", "_lru", "hits", "misses")

    # Node levels whose pointers can be cached (pointers to the root are
    # architectural state, and leaf PTEs belong in the TLBs).
    CACHED_LEVELS = (1, 2, 3)

    def __init__(self, entries=32, name="pwc"):
        if entries < 1:
            raise ValueError("entries must be >= 1")
        self.entries = entries
        self.name = name
        self._lru = {}
        self.hits = 0
        self.misses = 0

    def first_level_to_fetch(self, geometry, vpn):
        """Level of the first PT node the walker must read from memory.

        Returns 1 on the best hit (only the leaf PTE read is needed) and
        ``geometry.levels`` (4) on a complete miss.  Counts a hit if any
        prefix matched.
        """
        for level in self.CACHED_LEVELS:
            key = (level, geometry.node_prefix(vpn, level))
            if key in self._lru:
                del self._lru[key]
                self._lru[key] = True
                self.hits += 1
                return level
        self.misses += 1
        return geometry.levels

    def fill(self, geometry, vpn, start_level):
        """Record the node pointers learned by a walk.

        A walk that began fetching at ``start_level`` read the PTEs at
        levels ``start_level .. 1`` and thereby learned pointers to the
        nodes at levels ``start_level - 1 .. 1`` (and re-confirmed
        ``start_level`` itself if cacheable).
        """
        top = min(start_level, max(self.CACHED_LEVELS))
        for level in range(1, top + 1):
            key = (level, geometry.node_prefix(vpn, level))
            if key in self._lru:
                del self._lru[key]
            elif len(self._lru) >= self.entries:
                del self._lru[next(iter(self._lru))]
            self._lru[key] = True

    def flush(self):
        self._lru.clear()

    def __len__(self):
        return len(self._lru)

    def __contains__(self, key):
        return key in self._lru

    @property
    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
