"""Undirected graphs over variable names: boundaries, cliques, separation.

Desk-scale machinery: vertex sets are small (tens at most), so each vertex
keeps its neighbourhood as one integer bitmask.  Bits are numbered in
name-sorted vertex order, so a mask's members read out already sorted, and
flood-filling from the lowest unvisited bit yields components ordered by
their smallest name.  Names map to bits only at the public methods, which
validate them; the Markov checks enumerate separators on the masks
directly.  A flood step takes the union of the frontier's neighbourhoods,
one per bit; the separator enumerations, which flood subsets by the
thousand, read it from a table of every vertex set's neighbourhood
(``_neighborhoods``, 2^n entries) instead, which public ``components``
does without, as its graphs may be too large for it.  Maximal cliques
come from the classic recursive enumeration with pivoting, and separation
reduces to connectivity of the residual subgraph.  The graph is
immutable, so it keeps, once computed, its maximal cliques (``_cliques``),
the cliques in maximum cardinality order, each with its overlap with the
earlier ones (``_clique_order``), and the weights of the clique-sum
projection (``_clique_sums``).
"""

from functools import cached_property

from .errors import DisjointnessError, ModelFormatError, SchemaError


class UndirectedGraph:
    """Finite simple undirected graph; immutable after construction."""

    def __init__(self, vertices, edges=()):
        seen = []
        for v in vertices:
            if v not in seen:
                seen.append(v)
        self._vertices = tuple(seen)
        self._names = tuple(sorted(seen))
        index = {v: k for k, v in enumerate(self._names)}
        self._bits = {v: 1 << k for v, k in index.items()}
        adjacency = [0] * len(index)
        normalized = set()
        for a, b in edges:
            if a not in index or b not in index:
                raise SchemaError(f"edge ({a!r}, {b!r}) references an unknown vertex")
            if a == b:
                raise ModelFormatError(f"self-loop on {a!r} is not allowed")
            adjacency[index[a]] |= 1 << index[b]
            adjacency[index[b]] |= 1 << index[a]
            normalized.add((a, b) if a <= b else (b, a))
        self._adjacency = tuple(adjacency)
        self._full = (1 << len(index)) - 1
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
        return set(self._members(self._neighborhood(self._mask([v]))))

    # -- names and masks ----------------------------------------------------------

    def _mask(self, names):
        """The bitmask of ``names``; SchemaError on an unknown vertex."""
        mask = 0
        for v in names:
            bit = self._bits.get(v)
            if bit is None:
                raise SchemaError(f"unknown vertex {v!r}")
            mask |= bit
        return mask

    def _members(self, mask):
        """The names of ``mask``'s bits, sorted."""
        names = []
        while mask:
            low = mask & -mask
            names.append(self._names[low.bit_length() - 1])
            mask ^= low
        return tuple(names)

    def _neighborhood(self, mask):
        """Union of the neighbourhoods of ``mask``'s vertices."""
        out = 0
        while mask:
            low = mask & -mask
            out |= self._adjacency[low.bit_length() - 1]
            mask ^= low
        return out

    def _neighborhoods(self):
        """The neighbourhood of every vertex set, as a list indexed by its
        mask: 2^n entries, for a caller that floods many subsets of a
        graph small enough to enumerate them.  Entries 2^i to 2^(i+1) - 1
        are those below 2^i, each joined with vertex i's adjacency."""
        table = [0]
        for adjacency in self._adjacency:
            table += [m | adjacency for m in table]
        return table

    def _flood(self, seed, allowed, neighborhoods=None):
        """Vertices reachable from ``seed`` inside ``allowed`` (seed included),
        each step's neighbourhood read from ``neighborhoods`` (as
        ``_neighborhoods`` gives it) when given."""
        step = self._neighborhood if neighborhoods is None else neighborhoods.__getitem__
        reached = frontier = seed
        while frontier:
            frontier = step(frontier) & allowed & ~reached
            reached |= frontier
        return reached

    def _component_masks(self, allowed, neighborhoods=None):
        """Components of the subgraph induced on ``allowed``, by lowest bit;
        ``neighborhoods`` is handed to ``_flood``."""
        comps = []
        while allowed:
            comp = self._flood(allowed & -allowed, allowed, neighborhoods)
            comps.append(comp)
            allowed &= ~comp
        return comps

    # -- neighborhood operators --------------------------------------------------

    def boundary(self, subset):
        """Vertices outside ``subset`` adjacent to some vertex inside it."""
        mask = self._mask(set(subset))
        return set(self._members(self._neighborhood(mask) & ~mask))

    def closure(self, subset):
        """``subset`` together with its boundary."""
        mask = self._mask(set(subset))
        return set(self._members(self._neighborhood(mask) | mask))

    # -- cliques --------------------------------------------------------------------

    def cliques(self):
        """All maximal complete vertex sets, each sorted, in lexicographic order."""
        return list(self._cliques)

    @cached_property
    def _cliques(self):
        """The maximal cliques, as ``cliques`` lists them, enumerated on the
        first call by the recursion with pivoting."""
        found = []
        adjacency = self._adjacency

        def expand(r, p, x):
            if not p and not x:
                found.append(self._members(r))
                return
            pivot = max(
                (k for k in range(len(adjacency)) if (p | x) >> k & 1),
                key=lambda k: (adjacency[k] & p).bit_count(),
            )
            candidates = p & ~adjacency[pivot]
            while candidates:
                v = candidates & -candidates
                candidates ^= v
                nv = adjacency[v.bit_length() - 1]
                expand(r | v, p & nv, x & nv)
                p &= ~v
                x |= v

        expand(0, self._full, 0)
        return tuple(sorted(found))

    @cached_property
    def _clique_order(self):
        """(the maximal cliques in maximum cardinality order, each as a pair
        of its names and its separator, the names it shares with the
        cliques before it; whether the order is perfect), computed on the
        first call.  The order takes the first clique first, then each time
        the one sharing the most variables with those before it (the first
        such, on a tie).  It is perfect when each separator lies in one
        earlier clique, as it does on a chordal graph."""
        rest, order, seen = list(self._cliques), [], set()
        while rest:
            clique = max(rest, key=lambda c: len(seen.intersection(c)))
            rest.remove(clique)
            order.append((clique, tuple(v for v in clique if v in seen)))
            seen.update(clique)
        perfect = all(any(set(separator) <= set(c) for c, _ in order[:j])
                      for j, (_, separator) in enumerate(order) if j)
        return tuple(order), perfect

    @cached_property
    def _clique_sums(self):
        """(per maximal clique, in ``cliques`` order, a pair of its names and
        the pairs (T, w_T) of the nonempty complete sets T it is the first
        clique to contain, w_T nonzero; the spread, the sum of every |w_T|),
        in names, computed on the first call.  w_T is the signed count of the
        complete sets S containing T, each counted (-1)^(|S| - |T|): the
        weight of T's mean in the least-squares projection onto sums of
        clique terms (``factorization._clique_sum_projection``).  Only an
        intersection of maximal cliques has w_T nonzero (any other T has a
        vertex outside it in every clique containing it, and the supersets of
        T cancel in pairs with and without that vertex), and Moebius
        inversion of "every complete set is counted once" gives w_T = 1 minus
        the w_S of the intersections S strictly containing T, so the
        intersections are weighed largest first.  The empty set counts in
        the spread, though its term, the mean of a centred table, is 0."""
        cliques = self._cliques
        masks = [self._mask(c) for c in cliques]
        meets = {0}
        for c in masks:
            meets |= {c & m for m in meets} | {c}
        weights = {}
        for t in sorted(meets, key=lambda m: (-m.bit_count(), m)):
            weights[t] = 1 - sum(w for s, w in weights.items() if s & t == t)
        terms = [[] for _ in masks]
        for t, w in weights.items():
            if t and w:
                terms[next(j for j, c in enumerate(masks) if c & t == t)].append(
                    (self._members(t), w))
        return tuple(zip(cliques, map(tuple, terms))), sum(map(abs, weights.values()))

    # -- connectivity ------------------------------------------------------------------

    def components(self, removed=()):
        """Connected components of the subgraph induced by dropping ``removed``.

        Returned as sorted tuples, ordered by their smallest member.
        """
        allowed = self._full & ~self._mask(set(removed))
        return [self._members(c) for c in self._component_masks(allowed)]

    def separates(self, s, a, b):
        """True iff every path from ``a`` to ``b`` meets ``s``."""
        s, a, b = self._mask(set(s)), self._mask(set(a)), self._mask(set(b))
        if (a & b) or (a & s) or (b & s):
            raise DisjointnessError("separator and the two sides must be pairwise disjoint")
        if not a or not b:
            raise DisjointnessError("both sides of a separation must be nonempty")
        return not self._flood(a, self._full & ~s) & b

    # -- serialization --------------------------------------------------------------------

    def to_json_dict(self):
        doc = {"edges": [list(e) for e in sorted(self._edges)]}
        isolated = [v for v in self._vertices if not self._neighborhood(self._bits[v])]
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
