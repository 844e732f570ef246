"""Triangulations of the concentric-disk domain.

The base mesh places one vertex at the origin and `sectors` equally spaced
vertices on each of the three circles r1, r2, r3; the inner disk is a fan
and the two annuli are split quads.  Refinement is red (each triangle into
four via edge midpoints); midpoints of edges whose endpoints lie on the
same circle are projected back onto that circle, so the polygonal
interfaces converge to the circles and the region tags stay exact at every
level.

Only the base mesh (and a mesh given as arrays) derives its topology by
sorting its edge occurrences (`mesh_from_arrays`); a refined mesh's
edges, faces and neighbours are written by construction from its
parent's (`refine_uniform`), array for array the same.

Every index array is int32 and written in int32, which halves the mesh and
the refinement's temporaries; a mesh whose counts do not fit is rejected.
The sort and lookup keys of a vertex pair, up to about nv^2, stay int64:
at 8 sectors nv^2 passes 2^31 from level 6 on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from enum import IntEnum
from functools import cached_property

import numpy as np

from .geometry import Geometry


class Region(IntEnum):
    OMEGA_DATA = 0  # inside the polygonal r1 circle
    TARGET_ANNULUS = 1  # between r1 and r2
    OUTER_ANNULUS = 2  # between r2 and r3


ALL_REGIONS = (Region.OMEGA_DATA, Region.TARGET_ANNULUS, Region.OUTER_ANNULUS)
#: tagged realization of the continuation target B = B(r2)
B_REGIONS = (Region.OMEGA_DATA, Region.TARGET_ANNULUS)
_INT32 = np.iinfo(np.int32)


@dataclass(frozen=True)
class Mesh:
    """Immutable triangle mesh with region tags and face adjacency; every
    array field is read-only.

    vertices : (nv, 2) float
    triangles : (nt, 3) int32, positively oriented
    region_tag : (nt,) int32, values from Region
    vertex_circle : (nv,) int8; 0 = interior, 1/2/3 = lies on circle r1/r2/r3
    edges : (ne, 2) int32, vertex pairs v0 < v1, lexicographically sorted
    tri_edges : (nt, 3) int32, edge index of local edges (0,1), (1,2), (2,0)
    edge_tris : (ne, 2) int32, adjacent triangles (-1 in slot 1 on the boundary)
    edge_counts : (ne,) int32, triangles per edge
    boundary_edges, boundary_vertices : int32, those of count-1 edges
    rotation : (nv,) int32 or None; vertex v turned by 2 pi / m about the
        origin is vertex rotation[v], for a mesh that is m copies of one
        sector (None: no symmetry recorded)
    """

    vertices: np.ndarray
    triangles: np.ndarray
    region_tag: np.ndarray
    vertex_circle: np.ndarray
    level: int
    h: float
    edges: np.ndarray = field(repr=False)
    tri_edges: np.ndarray = field(repr=False)
    edge_tris: np.ndarray = field(repr=False)
    edge_counts: np.ndarray = field(repr=False)
    boundary_edges: np.ndarray = field(repr=False)
    boundary_vertices: np.ndarray = field(repr=False)
    rotation: np.ndarray | None = field(repr=False, default=None)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def region_elements(self, regions) -> np.ndarray:
        regions = [int(r) for r in (regions if hasattr(regions, "__iter__") else [regions])]
        return np.nonzero(np.isin(self.region_tag, regions))[0]

    @cached_property
    def rotation_with_midpoints(self) -> np.ndarray:
        """The recorded rotation extended to the edge midpoints, numbered
        n_vertices + e: the midpoint of edge e turns into the midpoint of
        the turned edge.  Computed once per mesh, read-only: the k=2 space
        and the refined mesh share it."""
        nv = self.n_vertices
        ends = self.rotation[self.edges]
        key = self.edges[:, 0].astype(np.int64) * nv + self.edges[:, 1]
        turned = ends.min(axis=1).astype(np.int64) * nv + ends.max(axis=1)
        out = np.empty(nv + self.n_edges, dtype=np.int32)
        out[:nv] = self.rotation
        out[nv:] = np.searchsorted(key, turned)
        out[nv:] += nv
        out.setflags(write=False)
        return out

    @cached_property
    def signed_areas(self) -> np.ndarray:
        """Signed triangle areas, positive for positive orientation, from
        1-D coordinate gathers.  Computed once per mesh, read-only: the
        refinement's inversion check, the space's det, the quadratures and
        `validate` share it."""
        x, y = (np.take(c, self.triangles) for c in self.vertices.T)  # (nt, 3) each
        a, b = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]), (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0])
        out = 0.5 * (a - b)
        out.setflags(write=False)
        return out


@dataclass
class MeshDiagnostics:
    """Validation report; `violations` is empty for a conforming mesh.

    shape_ratio is element diameter over inscribed-circle diameter,
    maximized over elements (sqrt(3) for an equilateral triangle).
    """

    violations: list[str]
    shape_ratio: float

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_int32_size(nv, nt):
    """Reject a mesh whose vertex or edge-occurrence indices overflow int32."""
    if max(nv, 3 * nt) > _INT32.max:
        raise ValueError(f"mesh of {nv} vertices and {nt} triangles exceeds int32 indices")


def mesh_from_arrays(vertices, triangles, region_tag, level=0, vertex_circle=None) -> Mesh:
    """Assemble a Mesh from raw arrays, computing adjacency and mesh size;
    no rotation is recorded."""
    vertices = np.ascontiguousarray(vertices, dtype=float)
    nv = vertices.shape[0]
    triangles, region_tag = np.asarray(triangles), np.asarray(region_tag)
    nt = triangles.shape[0]
    _check_int32_size(nv, nt)
    if triangles.size and (triangles.min() < 0 or triangles.max() >= nv):
        raise ValueError(f"triangle vertex index outside 0..{nv - 1}")
    if region_tag.size and (region_tag.min() < _INT32.min or region_tag.max() > _INT32.max):
        raise ValueError("region tag outside the int32 range")
    triangles = np.ascontiguousarray(triangles, dtype=np.int32)
    region_tag = np.ascontiguousarray(region_tag, dtype=np.int32)
    if vertex_circle is None:
        vertex_circle = np.zeros(nv, dtype=np.int8)
    else:
        vertex_circle = np.ascontiguousarray(vertex_circle, dtype=np.int8)

    # one int64 key lo*nv + hi per edge occurrence; its stable sort orders
    # the edges lexicographically and groups the (triangle, local-slot)
    # occurrences of each edge in construction order
    pairs = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
    key = lo.astype(np.int64) * nv + hi
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = sorted_key[1:] != sorted_key[:-1]
    starts = np.nonzero(first)[0]
    edges = np.column_stack([lo[order[starts]], hi[order[starts]]])
    ne = edges.shape[0]
    counts = np.diff(np.append(starts, key.size)).astype(np.int32)
    inverse = np.empty(key.size, dtype=np.int32)
    inverse[order] = np.cumsum(first, dtype=np.int32) - 1
    tri_edges = inverse.reshape(nt, 3)

    edge_tris = np.full((ne, 2), -1, dtype=np.int32)
    edge_tris[:, 0] = order[starts] // 3
    shared = counts > 1
    edge_tris[shared, 1] = order[starts[shared] + 1] // 3

    return _mesh(
        vertices, triangles, region_tag, vertex_circle, level, edges, tri_edges, edge_tris, counts
    )


def _mesh(
    vertices, triangles, region_tag, vertex_circle, level, edges, tri_edges, edge_tris, counts,
    rotation=None,
) -> Mesh:
    """The Mesh of the given topology, with its boundary and its size h,
    the longest edge, taken from 1-D coordinate gathers."""
    boundary_edges = np.flatnonzero(counts == 1).astype(np.int32)
    h = 0.0
    if edges.size:
        dx, dy = (c[edges[:, 1]] - c[edges[:, 0]] for c in vertices.T)
        h = float(np.sqrt((dx * dx + dy * dy).max()))
    return Mesh(
        vertices=vertices,
        triangles=triangles,
        region_tag=region_tag,
        vertex_circle=vertex_circle,
        level=int(level),
        h=h,
        edges=edges,
        tri_edges=tri_edges,
        edge_tris=edge_tris,
        edge_counts=counts,
        boundary_edges=boundary_edges,
        boundary_vertices=np.unique(edges[boundary_edges]),
        rotation=rotation,
    )


def _edge_lengths(mesh: Mesh, elements=slice(None)) -> np.ndarray:
    """Lengths of the edges 01, 12 and 20 of each triangle, or of the given
    `elements` only, shape (3, nel)."""
    v, t = mesh.vertices, mesh.triangles[elements]
    return np.stack([np.linalg.norm(v[t[:, b]] - v[t[:, a]], axis=1) for a, b in ((0, 1), (1, 2), (2, 0))])


def element_diameters(mesh: Mesh, elements=slice(None)) -> np.ndarray:
    """Longest edge of each triangle, or of the given `elements` only."""
    return _edge_lengths(mesh, elements).max(axis=0)


def build_disk_mesh(geometry: Geometry, sectors: int = 8, level: int = 0) -> Mesh:
    """Mesh the disk of radius r3 with rings aligned to r1 and r2.

    `sectors` vertices per ring (>= 6, even), then `level` red refinements
    with circle projection of new interface/boundary midpoints.  The mesh
    is `sectors` copies of one sector and records the rotation that maps
    each copy onto the next.
    """
    if geometry.dim != 2:
        raise ValueError("disk meshing requires geometry.dim == 2")
    if sectors < 6 or sectors % 2 != 0:
        raise ValueError(f"sectors must be even and >= 6, got {sectors}")
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")

    m = sectors
    angles = 2.0 * np.pi * np.arange(m) / m
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    vertices = np.vstack(
        [np.zeros((1, 2)), geometry.r1 * ring, geometry.r2 * ring, geometry.r3 * ring]
    )
    vertex_circle = np.concatenate(
        [[0], np.full(m, 1), np.full(m, 2), np.full(m, 3)]
    ).astype(np.int8)

    tris = []
    tags = []
    # center fan
    for i in range(m):
        tris.append((0, 1 + i, 1 + (i + 1) % m))
        tags.append(Region.OMEGA_DATA)
    # annuli: split each quad into two triangles along the a_i -- b_{i+1} diagonal
    for start_a, start_b, tag in (
        (1, 1 + m, Region.TARGET_ANNULUS),
        (1 + m, 1 + 2 * m, Region.OUTER_ANNULUS),
    ):
        for i in range(m):
            j = (i + 1) % m
            a_i, a_j = start_a + i, start_a + j
            b_i, b_j = start_b + i, start_b + j
            tris.append((a_i, b_i, b_j))
            tris.append((a_i, b_j, a_j))
            tags.extend([tag, tag])

    # ring vertex start + i turns into start + (i + 1) % m; the centre stays
    turn = np.roll(np.arange(m, dtype=np.int32), -1)
    rotation = np.concatenate([np.zeros(1, np.int32), 1 + turn, 1 + m + turn, 1 + 2 * m + turn])
    mesh = mesh_from_arrays(vertices, tris, tags, level=0, vertex_circle=vertex_circle)
    mesh = replace(mesh, rotation=rotation)
    if mesh.signed_areas.min() <= 0.0:
        raise ValueError("degenerate base mesh; increase sectors")
    for _ in range(level):
        mesh = refine_uniform(mesh, geometry)
    return mesh


def refine_uniform(mesh: Mesh, geometry: Geometry) -> Mesh:
    """Red refinement; same-circle edge midpoints are projected radially.

    The midpoint of parent edge e is vertex nv + e; child 4t + i is the
    corner of parent t at its vertex i (i < 3) or its middle (i = 3).  The
    child's topology is written by construction, array for array that of
    `mesh_from_arrays`, without its sort: edge e splits into the half edges
    (v, nv + e), in (v, e) order, before the three midpoint edges of each
    parent, whose ends are >= nv; a half edge keeps the triangle order and
    count of its parent edge.  The parent must be conforming.

    A recorded rotation carries over to the midpoints
    (`Mesh.rotation_with_midpoints`).  The radial projection moves
    interface midpoints outward by r_c * (1 - cos(pi/m)); if an annulus is
    thinner than that (coarse sectors, nearly equal radii) a child triangle
    would invert, which is rejected with the same remedy as at
    construction: more sectors.
    """
    if mesh.edge_counts.max(initial=0) > 2:
        raise ValueError("red refinement needs every edge in at most two triangles")
    radii = np.array([0.0, geometry.r1, geometry.r2, geometry.r3])
    e0, e1 = mesh.edges[:, 0], mesh.edges[:, 1]
    mids = np.take(mesh.vertices, mesh.edges, axis=0)  # (ne, 2, 2) edge ends
    mids = 0.5 * (mids[:, 0] + mids[:, 1])  # rebound: frees the ends

    c0 = mesh.vertex_circle[e0]
    same_circle = (c0 > 0) & (c0 == mesh.vertex_circle[e1])
    mid_circle = np.where(same_circle, c0, 0).astype(np.int8)
    on = np.nonzero(same_circle)[0]
    if on.size:
        norms = np.linalg.norm(mids[on], axis=1)
        mids[on] *= (radii[c0[on]] / norms)[:, None]

    new_vertices = np.vstack([mesh.vertices, mids])
    new_circle = np.concatenate([mesh.vertex_circle, mid_circle])
    children, *topology = _red_topology(mesh)
    child = _mesh(
        new_vertices, children, np.repeat(mesh.region_tag, 4), new_circle, mesh.level + 1,
        *topology, None if mesh.rotation is None else mesh.rotation_with_midpoints,
    )
    if on.size and child.signed_areas.min() <= 0.0:
        raise ValueError(
            "circle projection inverted a triangle; the annuli are too thin "
            "for this sector count, rebuild with more sectors"
        )
    return child


def _red_topology(mesh: Mesh):
    """The triangles, edges, tri_edges, edge_tris and edge counts of the red
    refinement of `mesh`, written from its own (`refine_uniform`)."""
    nv, ne, nt = mesh.n_vertices, mesh.n_edges, mesh.n_triangles
    _check_int32_size(nv + ne, 4 * nt)
    t, te = mesh.triangles, mesh.tri_edges
    nxt, prev = np.array([1, 2, 0], np.int32), np.array([2, 0, 1], np.int32)
    m = nv + te  # m[:, j]: the midpoint of local edge j, from vertex j to vertex nxt[j]
    children = np.concatenate([np.stack([t, m, m[:, prev]], axis=2), m[:, None]], axis=1)

    # the half edges (v, nv + e) in (v, e) order; end s of edge e has rank half[2 e + s]
    order = np.argsort(mesh.edges.ravel(), kind="stable").astype(np.int32)
    half = np.empty_like(order)
    half[order] = np.arange(2 * ne, dtype=np.int32)
    counts = np.full(2 * ne + 3 * nt, 2, dtype=np.int32)
    counts[: 2 * ne] = mesh.edge_counts[order // 2]
    # midpoint edge j of parent t joins m[t, j] and m[t, nxt[j]]; its rank is
    # mid[t, j], from the int64 key lo * (nv + ne) + hi
    lo, hi = np.minimum(m, m[:, nxt]).ravel(), np.maximum(m, m[:, nxt]).ravel()
    by_key = np.argsort(lo.astype(np.int64) * (nv + ne) + hi)
    mid = np.empty(3 * nt, dtype=np.int32)
    mid[by_key] = np.arange(2 * ne, 2 * ne + 3 * nt, dtype=np.int32)
    mid = mid.reshape(nt, 3)
    edges = np.empty((2 * ne + 3 * nt, 2), dtype=np.int32)
    edges[: 2 * ne, 0], edges[: 2 * ne, 1] = mesh.edges.ravel()[order], nv + order // 2
    edges[2 * ne :, 0], edges[2 * ne :, 1] = lo[by_key], hi[by_key]

    # local edge j of parent t at its vertex j (first) and at its vertex nxt[j] (second)
    first = half[2 * te + (t > t[:, nxt])]
    second = half[2 * te + (t < t[:, nxt])]
    tri_edges = np.concatenate(
        [np.stack([first, mid[:, prev], second[:, prev]], axis=2), mid[:, None]], axis=1
    )
    # slot 0 holds the smaller child: a half edge takes its parent edge's
    # slot, a midpoint edge lies in corner child nxt[j], then in the middle
    own = np.arange(nt, dtype=np.int32)[:, None]
    base, slot = 4 * own, mesh.edge_tris[te, 1] == own
    edge_tris = np.full((2 * ne + 3 * nt, 2), -1, dtype=np.int32)
    edge_tris.reshape(-1)[2 * first + slot] = base + np.arange(3, dtype=np.int32)
    edge_tris.reshape(-1)[2 * second + slot] = base + nxt
    edge_tris[mid, 0] = base + nxt
    edge_tris[mid, 1] = base + 3
    return children.reshape(-1, 3), edges, tri_edges.reshape(-1, 3), edge_tris, counts


def validate(mesh: Mesh) -> MeshDiagnostics:
    """Check mesh invariants; collect violations instead of raising."""
    violations = []

    areas = mesh.signed_areas
    for i in np.nonzero(areas <= 0.0)[0]:
        violations.append(f"triangle {i}: nonpositive signed area {areas[i]:.3e}")

    over = np.nonzero(mesh.edge_counts > 2)[0]
    for e in over:
        a, b = mesh.edges[e]
        violations.append(
            f"edge {e} (vertices {a},{b}): shared by {mesh.edge_counts[e]} triangles"
        )

    bad_tags = np.nonzero(~np.isin(mesh.region_tag, [int(r) for r in ALL_REGIONS]))[0]
    for i in bad_tags:
        violations.append(f"triangle {i}: invalid region tag {mesh.region_tag[i]}")

    lengths = _edge_lengths(mesh)
    inscribed = 4.0 * np.abs(areas) / (lengths[0] + lengths[1] + lengths[2])
    shape_ratio = float((lengths.max(axis=0) / inscribed).max(initial=0.0))
    return MeshDiagnostics(violations=violations, shape_ratio=shape_ratio)


def write_mesh(mesh: Mesh, path) -> None:
    """Write the line-oriented text format: header, `v x y`, `t i j k tag`.

    Lines are written 2^16 at a time, each chunk formatted by one `%` over
    its `.tolist()` values, so no whole-block string or list of Python
    numbers is held in memory."""
    rows = np.column_stack([mesh.triangles, mesh.region_tag])
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"mesh v1 {mesh.n_vertices} {mesh.n_triangles}\n")
        for block, line in ((mesh.vertices, "v %r %r\n"), (rows, "t %d %d %d %d\n")):
            for start in range(0, block.shape[0], 1 << 16):
                part = block[start : start + (1 << 16)]
                f.write(line * part.shape[0] % tuple(part.ravel().tolist()))

