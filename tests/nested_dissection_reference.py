"""A frozen copy of `ucfem.sparse.nested_dissection` as it was before two
speed-ups that keep its permutation: each depth re-sorts only the axis a
part was not last cut along, and `_cut_cover` ranks the endpoints with a
mark array instead of `np.unique`.  `tests/test_sparse.py` checks the
library's permutation against this one bit for bit; do not edit it.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

LEAF_SIZE = 8


def nested_dissection(coords, A) -> np.ndarray:
    """The permutation `ucfem.sparse.nested_dissection` returns (see there)."""
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    if coords.shape != (n, 2) or A.shape != (n, n):
        raise ValueError(f"shape mismatch: coords{coords.shape}, A{A.shape}")
    upper = sp.triu(A, k=1, format="coo")
    ei, ej = upper.row.astype(np.int64), upper.col.astype(np.int64)
    perm = np.empty(n, dtype=np.int64)
    part = np.zeros(n, dtype=np.int64)  # part of each unnumbered unknown, else -1
    half1 = np.zeros(n, dtype=np.uint8)  # bit 0: in half 1 of the cut along x, bit 1: along y
    # the unnumbered unknowns, part after part; per part: size, first position in perm
    verts = np.arange(n)
    size = np.array([n])
    first = np.zeros(1, dtype=np.int64)
    while verts.size:
        # parts of at most LEAF_SIZE unknowns are numbered in their current order
        leaf = np.repeat(size <= LEAF_SIZE, size)
        perm[(np.arange(verts.size) + np.repeat(first - _starts(size), size))[leaf]] = verts[leaf]
        part[verts[leaf]] = -1
        verts, size, first = verts[~leaf], size[size > LEAF_SIZE], first[size > LEAF_SIZE]
        if not verts.size:
            break
        start = _starts(size)
        label = np.repeat(np.arange(size.size), size)
        part[verts] = label

        # each part in coordinate order along x and along y, halved at the median
        pts = coords[verts]
        by_axis = [verts[np.lexsort((pts[:, axis], label))] for axis in (0, 1)]
        up = np.arange(verts.size) - np.repeat(start, size) >= np.repeat(size // 2, size)
        half1[by_axis[0]] = up
        half1[by_axis[1]] |= up.view(np.uint8) << 1

        inside = (part[ei] >= 0) & (part[ei] == part[ej])
        ei, ej = ei[inside], ej[inside]
        # both cuts' edges in one bipartite graph, the y cut's unknowns shifted by n
        crossed = half1[ei] ^ half1[ej]
        axis, t = np.nonzero(np.stack([crossed & 1, crossed >> 1]).view(bool))
        e0, e1 = ei[t], ej[t]
        flip = (half1[e0] >> axis) & 1
        ends = np.where(flip, e1, e0) + axis * n, np.where(flip, e0, e1) + axis * n
        cover_axis, cover = np.divmod(_cut_cover(*ends), n)
        count = np.bincount(2 * part[cover] + cover_axis, minlength=2 * size.size).reshape(-1, 2)
        extent = np.maximum.reduceat(pts, start) - np.minimum.reduceat(pts, start)
        side = np.where(count[:, 0] == count[:, 1], np.argmax(extent, axis=1), np.argmin(count, axis=1))
        verts = np.where(side[label] == 0, by_axis[0], by_axis[1])
        is_sep = np.zeros(n, dtype=bool)
        is_sep[cover[side[part[cover]] == cover_axis]] = True

        sep = is_sep[verts]
        n0 = np.add.reduceat(~up & ~sep, start)
        n1 = np.add.reduceat(up & ~sep, start)
        rank = np.cumsum(sep) - sep
        rank -= np.repeat(rank[start], size)
        perm[(np.repeat(first + n0 + n1, size) + rank)[sep]] = verts[sep]
        part[verts[sep]] = -1
        verts = verts[~sep]
        size = np.stack([n0, n1], axis=1).ravel()
        first = np.stack([first, first + n0], axis=1).ravel()[size > 0]
        size = size[size > 0]
    return perm


def _cut_cover(e0, e1):
    """A minimum vertex cover of the cut edges (e0[t], e1[t])."""
    left, li = np.unique(e0, return_inverse=True)
    right, ri = np.unique(e1, return_inverse=True)
    nl, nr = left.size, right.size
    match = csgraph.maximum_bipartite_matching(
        sp.csr_matrix((np.ones(li.size), (li, ri)), shape=(nl, nr)), perm_type="column"
    )
    paired, free = np.flatnonzero(match >= 0), np.flatnonzero(match < 0)
    source = nl + nr  # leads to every unmatched half-0 endpoint
    tail = np.concatenate([li, nl + match[paired], np.full(free.size, source)])
    head = np.concatenate([nl + ri, paired, free])
    paths = sp.csr_matrix((np.ones(tail.size), (tail, head)), shape=(source + 1, source + 1))
    reached = np.zeros(source + 1, dtype=bool)
    reached[csgraph.breadth_first_order(paths, source, return_predecessors=False)] = True
    return np.concatenate([left[~reached[:nl]], right[reached[nl:source]]])


def _starts(size):
    return np.cumsum(size) - size
