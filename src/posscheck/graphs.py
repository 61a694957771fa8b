"""Undirected graphs over variable names: boundaries, cliques, separation.

Desk-scale machinery: vertex sets are small (tens at most), so maximal
cliques come from the classic recursive enumeration with pivoting and
separation reduces to connectivity of the residual subgraph.
"""

from .errors import DisjointnessError, ModelFormatError, SchemaError


class UndirectedGraph:
    """Finite simple undirected graph; immutable after construction."""

    def __init__(self, vertices, edges=()):
        seen = []
        for v in vertices:
            if v not in seen:
                seen.append(v)
        self._vertices = tuple(seen)
        vset = set(self._vertices)
        adjacency = {v: set() for v in self._vertices}
        normalized = set()
        for a, b in edges:
            if a not in vset or b not in vset:
                raise SchemaError(f"edge ({a!r}, {b!r}) references an unknown vertex")
            if a == b:
                raise ModelFormatError(f"self-loop on {a!r} is not allowed")
            adjacency[a].add(b)
            adjacency[b].add(a)
            normalized.add((a, b) if a <= b else (b, a))
        self._adjacency = adjacency
        self._edges = frozenset(normalized)

    @classmethod
    def from_edges(cls, edges, isolated=()):
        """Build from an edge list plus optional isolated vertices, sorted by name."""
        vertices = set(isolated)
        for a, b in edges:
            vertices.add(a)
            vertices.add(b)
        return cls(sorted(vertices), edges)

    @property
    def vertices(self):
        return self._vertices

    @property
    def edges(self):
        return self._edges

    def neighbors(self, v):
        self._check_vertices([v])
        return set(self._adjacency[v])

    def _check_vertices(self, names):
        for v in names:
            if v not in self._adjacency:
                raise SchemaError(f"unknown vertex {v!r}")

    # -- neighborhood operators --------------------------------------------------

    def boundary(self, subset):
        """Vertices outside ``subset`` adjacent to some vertex inside it."""
        subset = set(subset)
        self._check_vertices(subset)
        out = set()
        for v in subset:
            out |= self._adjacency[v]
        return out - subset

    def closure(self, subset):
        """``subset`` together with its boundary."""
        subset = set(subset)
        self._check_vertices(subset)
        return subset | self.boundary(subset)

    # -- cliques --------------------------------------------------------------------

    def cliques(self):
        """All maximal complete vertex sets, each sorted, in lexicographic order."""
        found = []

        def expand(r, p, x):
            if not p and not x:
                found.append(tuple(sorted(r)))
                return
            pivot = max(p | x, key=lambda u: len(self._adjacency[u] & p))
            for v in sorted(p - self._adjacency[pivot]):
                nv = self._adjacency[v]
                expand(r | {v}, p & nv, x & nv)
                p = p - {v}
                x = x | {v}

        expand(set(), set(self._vertices), set())
        return sorted(found)

    # -- connectivity ------------------------------------------------------------------

    def components(self, removed=()):
        """Connected components of the subgraph induced by dropping ``removed``.

        Returned as sorted tuples, ordered by their smallest member.
        """
        removed = set(removed)
        self._check_vertices(removed)
        remaining = [v for v in sorted(self._vertices) if v not in removed]
        unseen = set(remaining)
        comps = []
        for start in remaining:
            if start not in unseen:
                continue
            stack = [start]
            unseen.discard(start)
            comp = {start}
            while stack:
                u = stack.pop()
                for w in self._adjacency[u]:
                    if w in unseen:
                        unseen.discard(w)
                        comp.add(w)
                        stack.append(w)
            comps.append(tuple(sorted(comp)))
        return sorted(comps)

    def separates(self, s, a, b):
        """True iff every path from ``a`` to ``b`` meets ``s``."""
        s, a, b = set(s), set(a), set(b)
        self._check_vertices(s | a | b)
        if (a & b) or (a & s) or (b & s):
            raise DisjointnessError("separator and the two sides must be pairwise disjoint")
        if not a or not b:
            raise DisjointnessError("both sides of a separation must be nonempty")
        comps = self.components(s)
        for comp in comps:
            cset = set(comp)
            if cset & a and cset & b:
                return False
        return True

    # -- serialization --------------------------------------------------------------------

    def to_json_dict(self):
        doc = {"edges": [list(e) for e in sorted(self._edges)]}
        isolated = [v for v in self._vertices if not self._adjacency[v]]
        if isolated:
            doc["isolated"] = sorted(isolated)
        return doc

    @classmethod
    def from_json_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ModelFormatError("graph document must be an object")
        edges = doc.get("edges", [])
        isolated = doc.get("isolated", [])
        if not isinstance(edges, list) or not all(_strings(e) and len(e) == 2 for e in edges):
            raise ModelFormatError("graph 'edges' must be an array of two-string arrays")
        if not _strings(isolated):
            raise ModelFormatError("graph 'isolated' must be an array of strings")
        return cls.from_edges([tuple(e) for e in edges], isolated)

    def __repr__(self):
        return f"UndirectedGraph({len(self._vertices)} vertices, {len(self._edges)} edges)"


def _strings(items):
    """True iff ``items`` is a JSON array of strings."""
    return isinstance(items, list) and all(isinstance(v, str) for v in items)
