"""Immutable CSR graph kernel.

:class:`StaticGraph` is the workhorse data structure of the library: a
simple, undirected graph stored in compressed-sparse-row (CSR) form with
sorted neighbor lists, backed by NumPy arrays.  It is immutable — every
"mutation" (induced subgraph, relabeling, union) returns a new graph — which
keeps fault-tolerance experiments referentially transparent and lets
neighbor queries be O(log d) binary searches over contiguous memory
(cache-friendly, per the vectorization guidance in the HPC guides).

CSR layout and invariants
-------------------------
The canonical storage is three flat int64 arrays (the Seastar
``StaticGraph``/``CSR`` layout):

* ``row_offsets`` — length ``n + 1``, monotone, ``row_offsets[0] == 0``;
  node ``v``'s neighbor slice is
  ``col_indices[row_offsets[v]:row_offsets[v + 1]]``.
* ``col_indices`` — length ``2E``, every undirected edge stored in both
  directions, each row **sorted ascending** (so the concatenated stream
  is globally sorted by the directed key ``u * n + v``).
* ``edge_ids`` — length ``2E``, parallel to ``col_indices``: the
  *undirected* edge id of each directed slot.  Ids are the rank of the
  canonical ``(min, max)`` endpoint pair in lexicographic order, so
  ``edges()[edge_ids[s]]`` is the undirected edge slot ``s`` encodes and
  the two mirrored slots of an edge carry the same id.  Built lazily —
  the ``has_edges`` key array (``directed_edge_keys``) follows the same
  lazy-cache pattern.

Everything else is derived: ``degrees() == diff(row_offsets)``,
``edge_count == len(col_indices) // 2``.  There is no per-node dict
adjacency: every consumer (frontier gathers, routing-table compiles,
the batch engine's queue registry) reads the flat arrays directly.

Conventions
-----------
* Nodes are ``0..n-1``.
* Self-loops are **dropped** on construction (the paper prescribes ignoring
  them) and parallel edges are deduplicated.
* Edges are stored twice (both directions); :meth:`edge_count` reports the
  number of undirected edges.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import GraphFormatError, ParameterError

__all__ = ["StaticGraph"]

_INDEX_DTYPE = np.int64


def _as_edge_array(edges: Iterable | np.ndarray) -> np.ndarray:
    """Normalize an edge iterable to an ``(E, 2)`` int64 array (possibly empty)."""
    if isinstance(edges, np.ndarray):
        arr = np.asarray(edges, dtype=_INDEX_DTYPE)
    else:
        pairs = list(edges)
        if not pairs:
            return np.empty((0, 2), dtype=_INDEX_DTYPE)
        arr = np.asarray(pairs, dtype=_INDEX_DTYPE)
    if arr.size == 0:
        return np.empty((0, 2), dtype=_INDEX_DTYPE)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphFormatError(
            f"edge list must have shape (E, 2); got {arr.shape!r}"
        )
    return arr


class StaticGraph:
    """A simple undirected graph in immutable CSR form.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``; node ids are ``0..n-1``.
    edges:
        Iterable of ``(u, v)`` pairs or an ``(E, 2)`` array.  Self-loops are
        silently dropped; duplicate edges are merged.

    Examples
    --------
    >>> g = StaticGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 1)])
    >>> g.node_count, g.edge_count
    (4, 4)
    >>> g.neighbors(1).tolist()
    [0, 2]
    """

    __slots__ = (
        "_n", "_indptr", "_indices", "_edge_count", "_hash", "_edge_keys",
        "_edge_ids",
    )

    def __init__(self, num_nodes: int, edges: Iterable | np.ndarray = ()):
        n = int(num_nodes)
        if n < 0:
            raise ParameterError(f"num_nodes must be >= 0, got {num_nodes}")
        arr = _as_edge_array(edges)
        if arr.shape[0]:
            if arr.min() < 0 or arr.max() >= n:
                bad = arr[(arr < 0).any(axis=1) | (arr >= n).any(axis=1)][0]
                raise GraphFormatError(
                    f"edge endpoint out of range [0, {n}): {tuple(bad)!r}"
                )
            arr = arr[arr[:, 0] != arr[:, 1]]  # drop self-loops
        if arr.shape[0]:
            # Canonicalize, deduplicate, then mirror to both directions.
            lo = np.minimum(arr[:, 0], arr[:, 1])
            hi = np.maximum(arr[:, 0], arr[:, 1])
            keys = lo * n + hi
            keys = np.unique(keys)
            lo, hi = keys // n, keys % n
            src = np.concatenate([lo, hi])
            dst = np.concatenate([hi, lo])
            order = np.lexsort((dst, src))
            src, dst = src[order], dst[order]
            indptr = np.zeros(n + 1, dtype=_INDEX_DTYPE)
            np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
            self._indices = np.ascontiguousarray(dst, dtype=_INDEX_DTYPE)
            self._indptr = indptr
            self._edge_count = int(keys.shape[0])
        else:
            self._indptr = np.zeros(n + 1, dtype=_INDEX_DTYPE)
            self._indices = np.empty(0, dtype=_INDEX_DTYPE)
            self._edge_count = 0
        # the arrays are this graph's own: freeze them, so a graph shared
        # by every holder (the builders' per-process caches) cannot be
        # written through a view's base either
        self._indptr.flags.writeable = False
        self._indices.flags.writeable = False
        self._n = n
        self._init_caches()

    def _init_caches(self) -> None:
        self._hash: int | None = None
        self._edge_keys: np.ndarray | None = None
        self._edge_ids: np.ndarray | None = None

    @classmethod
    def from_csr(
        cls,
        num_nodes: int,
        row_offsets: np.ndarray,
        col_indices: np.ndarray,
        *,
        validate: bool = False,
    ) -> "StaticGraph":
        """Build directly from canonical CSR arrays — the trusted fast path.

        The arrays are adopted as-is (no re-canonicalization, no sort), so
        the caller guarantees the layout invariants in the module
        docstring: monotone ``row_offsets`` starting at 0 and ending at
        ``len(col_indices)``, per-row sorted neighbor lists, every edge
        mirrored, no self-loops, no duplicates.  Cheap shape/monotonicity
        checks always run; ``validate=True`` additionally verifies
        sortedness, mirroring, and the self-loop ban (O(E log E) — meant
        for tests and untrusted inputs, not hot paths).
        """
        n = int(num_nodes)
        if n < 0:
            raise ParameterError(f"num_nodes must be >= 0, got {num_nodes}")
        indptr = np.ascontiguousarray(row_offsets, dtype=_INDEX_DTYPE)
        indices = np.ascontiguousarray(col_indices, dtype=_INDEX_DTYPE)
        if indptr.shape != (n + 1,):
            raise GraphFormatError(
                f"row_offsets must have shape ({n + 1},), got {indptr.shape}"
            )
        if indptr[0] != 0 or indptr[-1] != indices.size or (np.diff(indptr) < 0).any():
            raise GraphFormatError("row_offsets must be monotone from 0 to len(col_indices)")
        if indices.size % 2:
            raise GraphFormatError("col_indices must mirror every edge (even length)")
        if validate and indices.size:
            if indices.min() < 0 or indices.max() >= n:
                raise GraphFormatError("col_indices endpoint out of range")
            src = np.repeat(np.arange(n, dtype=_INDEX_DTYPE), np.diff(indptr))
            keys = src * n + indices
            if (np.diff(keys) <= 0).any():
                raise GraphFormatError(
                    "col_indices rows must be sorted with no duplicates"
                )
            if (src == indices).any():
                raise GraphFormatError("col_indices must not contain self-loops")
            mirrored = np.sort(indices * n + src)
            if not np.array_equal(mirrored, keys):
                raise GraphFormatError("every edge must appear in both directions")
        g = cls.__new__(cls)
        g._n = n
        g._indptr = indptr
        g._indices = indices
        g._edge_count = int(indices.size) // 2
        g._init_caches()
        return g

    # -- basic accessors ---------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def edge_count(self) -> int:
        """Number of undirected edges (each counted once)."""
        return self._edge_count

    @staticmethod
    def _readonly(arr: np.ndarray) -> np.ndarray:
        v = arr.view()
        v.flags.writeable = False
        return v

    @property
    def row_offsets(self) -> np.ndarray:
        """Canonical CSR row-pointer array, length ``n + 1`` (read-only)."""
        return self._readonly(self._indptr)

    @property
    def col_indices(self) -> np.ndarray:
        """Canonical CSR concatenated sorted neighbor array (read-only)."""
        return self._readonly(self._indices)

    @property
    def edge_ids(self) -> np.ndarray:
        """Undirected edge id per directed CSR slot (read-only, lazy).

        ``edge_ids[s]`` is the rank of slot ``s``'s canonical
        ``(min, max)`` endpoint pair among all edges in lexicographic
        order — exactly the row index into :meth:`edges`.  The two
        mirrored slots of an edge share one id, and the ids cover
        ``0..edge_count-1``.
        """
        if self._edge_ids is None:
            src = np.repeat(
                np.arange(self._n, dtype=_INDEX_DTYPE), np.diff(self._indptr)
            )
            lo = np.minimum(src, self._indices)
            hi = np.maximum(src, self._indices)
            und = lo * self._n + hi
            self._edge_ids = np.searchsorted(np.unique(und), und)
            self._edge_ids.flags.writeable = False
        return self._readonly(self._edge_ids)

    @property
    def directed_edge_keys(self) -> np.ndarray:
        """Sorted directed-link keys ``u * n + v``, one per CSR slot
        (read-only, lazy).  Position ``s`` in this array IS directed slot
        ``s`` — CSR order preserves key order — which is what makes one
        binary search resolve a ``(u, v)`` hop to its queue id in the
        batch engine and answer :meth:`has_edges` for a whole batch.
        """
        if self._edge_keys is None:
            src = np.repeat(
                np.arange(self._n, dtype=_INDEX_DTYPE), np.diff(self._indptr)
            )
            self._edge_keys = src * self._n + self._indices
            self._edge_keys.flags.writeable = False
        return self._readonly(self._edge_keys)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` as a read-only array view."""
        v = self._check_node(v)
        return self._readonly(
            self._indices[self._indptr[v]: self._indptr[v + 1]]
        )

    def neighbors_batch(
        self, nodes: Sequence[int] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One vectorized gather of every listed node's neighbor slice.

        Returns ``(nbrs, owners)``: the concatenation of each node's
        sorted neighbor list (in input order) and the parallel array
        naming which input node each neighbor belongs to.  This is the
        frontier-expansion primitive — one call expands a whole BFS
        frontier with no Python-level per-node loop (see
        :func:`repro.graphs.properties.bfs_distances`).
        """
        nodes = np.asarray(nodes, dtype=_INDEX_DTYPE).ravel()
        if nodes.size == 0:
            return (np.empty(0, dtype=_INDEX_DTYPE),
                    np.empty(0, dtype=_INDEX_DTYPE))
        if nodes.min() < 0 or nodes.max() >= self._n:
            raise GraphFormatError("node id out of range in neighbors_batch")
        indptr = self._indptr
        counts = indptr[nodes + 1] - indptr[nodes]
        total = int(counts.sum())
        # base[i] repeats each slice start; inner[i] counts 0..c-1 within it
        base = np.repeat(indptr[nodes], counts)
        ends = np.cumsum(counts)
        inner = np.arange(total, dtype=_INDEX_DTYPE) - np.repeat(
            ends - counts, counts
        )
        return self._indices[base + inner], np.repeat(nodes, counts)

    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        v = self._check_node(v)
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        """Vector of all node degrees (length ``n``)."""
        return np.diff(self._indptr)

    def max_degree(self) -> int:
        """Maximum degree over all nodes (0 for the empty graph)."""
        if self._n == 0:
            return 0
        return int(self.degrees().max(initial=0))

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` is present (O(log d))."""
        u = self._check_node(u)
        v = self._check_node(v)
        if u == v:
            return False
        lo, hi = self._indptr[u], self._indptr[u + 1]
        i = np.searchsorted(self._indices[lo:hi], v)
        return bool(i < hi - lo and self._indices[lo + i] == v)

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`has_edge` over parallel endpoint arrays.

        Returns a boolean array; ``us[i] == vs[i]`` yields ``False``.
        """
        us = np.asarray(us, dtype=_INDEX_DTYPE)
        vs = np.asarray(vs, dtype=_INDEX_DTYPE)
        if us.shape != vs.shape:
            raise GraphFormatError("endpoint arrays must have equal shape")
        if us.size == 0:
            return np.zeros(0, dtype=bool)
        if us.min() < 0 or vs.min() < 0 or us.max() >= self._n or vs.max() >= self._n:
            raise GraphFormatError("endpoint out of range in has_edges")
        # The CSR stream is globally sorted by (src, dst), so the cached
        # directed-key array answers all queries with one binary search.
        keys = self.directed_edge_keys
        q = us.ravel() * self._n + vs.ravel()
        pos = np.searchsorted(keys, q)
        hit = np.zeros(q.shape, dtype=bool)
        valid = pos < keys.shape[0]
        hit[valid] = keys[pos[valid]] == q[valid]
        return hit.reshape(us.shape)

    def directed_edge_slots(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """CSR slot index of each directed link ``(us[i], vs[i])``, or
        ``-1`` for non-edges.

        The slot doubles as the directed-edge id everywhere dense
        per-queue state is kept (the batch engine's service schedules),
        and ``col_indices[slot] == vs[i]`` / ``edge_ids[slot]`` recover
        the endpoint and the undirected id.
        """
        us = np.asarray(us, dtype=_INDEX_DTYPE).ravel()
        vs = np.asarray(vs, dtype=_INDEX_DTYPE).ravel()
        if us.shape != vs.shape:
            raise GraphFormatError("endpoint arrays must have equal shape")
        if us.size == 0:
            return np.empty(0, dtype=_INDEX_DTYPE)
        keys = self.directed_edge_keys
        q = us * self._n + vs
        # searching in sorted query order narrows each binary search to
        # the keys past the previous hit: about 2x faster on route batches
        order = np.argsort(q)
        pos = np.empty_like(q)
        pos[order] = np.searchsorted(keys, q[order])
        safe = np.minimum(pos, max(keys.size - 1, 0))
        out = np.where(
            (pos < keys.size) & (keys.size > 0) & (keys[safe] == q), pos, -1
        )
        return out.astype(_INDEX_DTYPE, copy=False)

    def edges(self) -> np.ndarray:
        """All undirected edges as an ``(E, 2)`` array with ``u < v`` rows,
        sorted lexicographically (row ``i`` is the edge with id ``i``)."""
        src = np.repeat(np.arange(self._n, dtype=_INDEX_DTYPE), self.degrees())
        mask = src < self._indices
        return np.column_stack([src[mask], self._indices[mask]])

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges as python int pairs ``(u, v)``, u < v."""
        for u, v in self.edges():
            yield int(u), int(v)

    # -- derived graphs ----------------------------------------------------

    def induced_subgraph(
        self, nodes: Sequence[int] | np.ndarray
    ) -> tuple["StaticGraph", np.ndarray]:
        """Subgraph induced by ``nodes``.

        Returns ``(H, kept)`` where ``kept`` is the sorted array of original
        node ids and ``H`` has nodes ``0..len(kept)-1`` in that order (i.e.
        new id ``i`` corresponds to original ``kept[i]``) — exactly the rank
        relabeling the paper's reconfiguration algorithm uses.

        Built by masking the CSR stream directly: the rank relabeling is
        monotone, so surviving neighbor slices stay sorted and the result
        adopts them via :meth:`from_csr` with no re-canonicalization.
        """
        kept = np.unique(np.asarray(nodes, dtype=_INDEX_DTYPE))
        if kept.size and (kept[0] < 0 or kept[-1] >= self._n):
            raise GraphFormatError("induced_subgraph: node id out of range")
        keep_mask = np.zeros(self._n, dtype=bool)
        keep_mask[kept] = True
        new_id = np.full(self._n, -1, dtype=_INDEX_DTYPE)
        new_id[kept] = np.arange(kept.size, dtype=_INDEX_DTYPE)
        src = np.repeat(np.arange(self._n, dtype=_INDEX_DTYPE), self.degrees())
        sel = keep_mask[src] & keep_mask[self._indices]
        sub_indices = new_id[self._indices[sel]]
        counts = np.bincount(new_id[src[sel]], minlength=kept.size)
        sub_indptr = np.zeros(kept.size + 1, dtype=_INDEX_DTYPE)
        np.cumsum(counts, out=sub_indptr[1:])
        return StaticGraph.from_csr(int(kept.size), sub_indptr, sub_indices), kept

    def without_nodes(self, faulty: Sequence[int] | np.ndarray) -> tuple["StaticGraph", np.ndarray]:
        """Complement of :meth:`induced_subgraph`: drop ``faulty`` nodes."""
        faulty = np.unique(np.asarray(faulty, dtype=_INDEX_DTYPE))
        if faulty.size and (faulty[0] < 0 or faulty[-1] >= self._n):
            raise GraphFormatError("without_nodes: node id out of range")
        mask = np.ones(self._n, dtype=bool)
        mask[faulty] = False
        return self.induced_subgraph(np.flatnonzero(mask))

    def relabel(self, perm: Sequence[int] | np.ndarray) -> "StaticGraph":
        """Return the graph with node ``v`` renamed to ``perm[v]``.

        ``perm`` must be a permutation of ``0..n-1``.
        """
        perm = np.asarray(perm, dtype=_INDEX_DTYPE)
        if perm.shape != (self._n,) or not np.array_equal(np.sort(perm), np.arange(self._n)):
            raise GraphFormatError("relabel: perm must be a permutation of 0..n-1")
        e = self.edges()
        return StaticGraph(self._n, perm[e] if e.shape[0] else e)

    def union(self, other: "StaticGraph") -> "StaticGraph":
        """Edge-union of two graphs on the same node set."""
        if other.node_count != self._n:
            raise GraphFormatError("union: node counts differ")
        return StaticGraph(self._n, np.vstack([self.edges(), other.edges()]))

    def block_union(self, copies: int) -> "StaticGraph":
        """The block-diagonal union of ``copies`` disjoint copies of this
        graph: copy ``r``'s node ``v`` is ``r * n + v`` and its CSR slot
        ``s`` is ``r * len(col_indices) + s``.  Offsetting every copy
        keeps each copy's rows sorted and puts all of copy ``r`` before
        copy ``r + 1``, so slot order is still directed-key order and
        each copy keeps its own slots' relative order.

        >>> g = StaticGraph(3, [(0, 1), (1, 2)]).block_union(2)
        >>> g.node_count, g.edge_count, g.neighbors(4).tolist()
        (6, 4, [3, 5])
        """
        copies = int(copies)
        n, slots = self._n, self._indices.size
        shift = np.arange(copies, dtype=_INDEX_DTYPE)[:, None]
        indptr = np.empty(copies * n + 1, dtype=_INDEX_DTYPE)
        indptr[:-1] = (self._indptr[:-1] + shift * slots).ravel()
        indptr[-1] = copies * slots
        indices = (self._indices + shift * n).ravel()
        return StaticGraph.from_csr(copies * n, indptr, indices)

    def is_edge_subset_of(self, other: "StaticGraph") -> bool:
        """Whether every edge of ``self`` is an edge of ``other``
        (identity node mapping)."""
        if other.node_count < self._n:
            return False
        e = self.edges()
        if e.shape[0] == 0:
            return True
        return bool(other.has_edges(e[:, 0], e[:, 1]).all())

    # -- pickling ----------------------------------------------------------

    def __getstate__(self):
        # pickle only the canonical arrays: derived caches rebuild lazily
        # on the receiving side
        state = {s: getattr(self, s) for s in StaticGraph.__slots__}
        state["_hash"] = None
        state["_edge_keys"] = None
        state["_edge_ids"] = None
        return (None, state)

    def __setstate__(self, state):
        _, slots = state
        for k, v in slots.items():
            setattr(self, k, v)

    # -- dunder / misc -----------------------------------------------------

    def _check_node(self, v: int) -> int:
        v = int(v)
        if not 0 <= v < self._n:
            raise GraphFormatError(f"node id {v} out of range [0, {self._n})")
        return v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StaticGraph):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self._n, self._edge_count, self._indices.tobytes())
            )
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StaticGraph(n={self._n}, m={self._edge_count}, max_deg={self.max_degree()})"
