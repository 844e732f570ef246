"""Triangulations of the concentric-disk domain.

The base mesh places one vertex at the origin and `sectors` equally spaced
vertices on each of the three circles r1, r2, r3; the inner disk is a fan
and the two annuli are split quads.  Refinement is red (each triangle into
four via edge midpoints); midpoints of edges whose endpoints lie on the
same circle are projected back onto that circle, so the polygonal
interfaces converge to the circles and the region tags stay exact at every
level.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import IntEnum

import numpy as np

from .geometry import Geometry


class Region(IntEnum):
    OMEGA_DATA = 0  # inside the polygonal r1 circle
    TARGET_ANNULUS = 1  # between r1 and r2
    OUTER_ANNULUS = 2  # between r2 and r3


ALL_REGIONS = (Region.OMEGA_DATA, Region.TARGET_ANNULUS, Region.OUTER_ANNULUS)
#: tagged realization of the continuation target B = B(r2)
B_REGIONS = (Region.OMEGA_DATA, Region.TARGET_ANNULUS)


@dataclass(frozen=True)
class Mesh:
    """Immutable triangle mesh with region tags and face adjacency.

    vertices : (nv, 2) float
    triangles : (nt, 3) int, positively oriented
    region_tag : (nt,) int, values from Region
    vertex_circle : (nv,) int8; 0 = interior, 1/2/3 = lies on circle r1/r2/r3
    edges : (ne, 2) int, vertex pairs v0 < v1, lexicographically sorted
    tri_edges : (nt, 3) int, edge index of local edges (0,1), (1,2), (2,0)
    edge_tris : (ne, 2) int, adjacent triangles (-1 in slot 1 on the boundary)
    rotation : (nv,) int or None; vertex v turned by 2 pi / m about the
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
        for name in (
            "vertices",
            "triangles",
            "region_tag",
            "vertex_circle",
            "edges",
            "tri_edges",
            "edge_tris",
            "edge_counts",
            "boundary_edges",
            "boundary_vertices",
        ):
            getattr(self, name).setflags(write=False)
        if self.rotation is not None:
            self.rotation.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def interior_edges(self) -> np.ndarray:
        """Indices of edges shared by exactly two triangles."""
        return np.nonzero(self.edge_counts == 2)[0]

    def region_elements(self, regions) -> np.ndarray:
        regions = [int(r) for r in (regions if hasattr(regions, "__iter__") else [regions])]
        return np.nonzero(np.isin(self.region_tag, regions))[0]

    def rotation_with_midpoints(self) -> np.ndarray:
        """The recorded rotation extended to the edge midpoints, numbered
        n_vertices + e: the midpoint of edge e turns into the midpoint of
        the turned edge."""
        nv = self.n_vertices
        ends = self.rotation[self.edges]
        key = self.edges[:, 0] * nv + self.edges[:, 1]
        turned = ends.min(axis=1) * nv + ends.max(axis=1)
        return np.concatenate([self.rotation, nv + np.searchsorted(key, turned)])


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


def mesh_from_arrays(vertices, triangles, region_tag, level=0, vertex_circle=None) -> Mesh:
    """Assemble a Mesh from raw arrays, computing adjacency and mesh size;
    no rotation is recorded."""
    vertices = np.ascontiguousarray(vertices, dtype=float)
    triangles = np.ascontiguousarray(triangles, dtype=np.int64)
    region_tag = np.ascontiguousarray(region_tag, dtype=np.int64)
    nt = triangles.shape[0]
    if vertex_circle is None:
        vertex_circle = np.zeros(vertices.shape[0], dtype=np.int8)
    else:
        vertex_circle = np.ascontiguousarray(vertex_circle, dtype=np.int8)

    nv = vertices.shape[0]
    if triangles.size and (triangles.min() < 0 or triangles.max() >= nv):
        raise ValueError(f"triangle vertex index outside 0..{nv - 1}")

    # one int64 key lo*nv + hi per edge occurrence; its stable sort orders
    # the edges lexicographically and groups the (triangle, local-slot)
    # occurrences of each edge in construction order
    pairs = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
    key = lo * nv + hi
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = sorted_key[1:] != sorted_key[:-1]
    starts = np.nonzero(first)[0]
    edges = np.column_stack([lo[order[starts]], hi[order[starts]]])
    ne = edges.shape[0]
    counts = np.diff(np.append(starts, key.size))
    inverse = np.empty(key.size, dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    tri_edges = inverse.reshape(nt, 3)

    edge_tris = -np.ones((ne, 2), dtype=np.int64)
    edge_tris[:, 0] = order[starts] // 3
    shared = counts > 1
    edge_tris[shared, 1] = order[starts[shared] + 1] // 3

    boundary_edges = np.nonzero(counts == 1)[0]
    boundary_vertices = np.unique(edges[boundary_edges])

    edge_vec = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    h = float(np.sqrt((edge_vec**2).sum(axis=1).max())) if ne else 0.0

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
        boundary_vertices=boundary_vertices,
    )


def signed_areas(mesh: Mesh) -> np.ndarray:
    v = np.take(mesh.vertices, mesh.triangles, axis=0)  # (nt, 3, 2)
    a = v[:, 1] - v[:, 0]
    b = v[:, 2] - v[:, 0]
    return 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])


def element_diameters(mesh: Mesh) -> np.ndarray:
    """Longest edge of each triangle."""
    v = mesh.vertices
    t = mesh.triangles
    l01 = np.linalg.norm(v[t[:, 1]] - v[t[:, 0]], axis=1)
    l12 = np.linalg.norm(v[t[:, 2]] - v[t[:, 1]], axis=1)
    l20 = np.linalg.norm(v[t[:, 0]] - v[t[:, 2]], axis=1)
    return np.max(np.stack([l01, l12, l20]), axis=0)


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
    turn = np.roll(np.arange(m), -1)
    rotation = np.concatenate([[0], 1 + turn, 1 + m + turn, 1 + 2 * m + turn])
    mesh = mesh_from_arrays(vertices, tris, tags, level=0, vertex_circle=vertex_circle)
    mesh = replace(mesh, rotation=rotation)
    if signed_areas(mesh).min() <= 0.0:
        raise ValueError("degenerate base mesh; increase sectors")
    for _ in range(level):
        mesh = refine_uniform(mesh, geometry)
    return mesh


def refine_uniform(mesh: Mesh, geometry: Geometry) -> Mesh:
    """Red refinement; same-circle edge midpoints are projected radially.

    A recorded rotation carries over to the midpoints
    (`Mesh.rotation_with_midpoints`).  The radial projection moves
    interface midpoints outward by r_c * (1 - cos(pi/m)); if an annulus is
    thinner than that (coarse sectors, nearly equal radii) a child triangle
    would invert, which is rejected with the same remedy as at
    construction: more sectors.
    """
    radii = np.array([0.0, geometry.r1, geometry.r2, geometry.r3])
    nv = mesh.n_vertices
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

    t = mesh.triangles
    m01 = nv + mesh.tri_edges[:, 0]
    m12 = nv + mesh.tri_edges[:, 1]
    m20 = nv + mesh.tri_edges[:, 2]
    children = np.stack(
        [
            np.column_stack([t[:, 0], m01, m20]),
            np.column_stack([t[:, 1], m12, m01]),
            np.column_stack([t[:, 2], m20, m12]),
            np.column_stack([m01, m12, m20]),
        ],
        axis=1,
    ).reshape(-1, 3)
    child_tags = np.repeat(mesh.region_tag, 4)

    child = mesh_from_arrays(
        new_vertices, children, child_tags, level=mesh.level + 1, vertex_circle=new_circle
    )
    if on.size and signed_areas(child).min() <= 0.0:
        raise ValueError(
            "circle projection inverted a triangle; the annuli are too thin "
            "for this sector count, rebuild with more sectors"
        )
    if mesh.rotation is not None:
        child = replace(child, rotation=mesh.rotation_with_midpoints())
    return child


def validate(mesh: Mesh) -> MeshDiagnostics:
    """Check mesh invariants; collect violations instead of raising."""
    violations = []

    areas = signed_areas(mesh)
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

    v = mesh.vertices
    t = mesh.triangles
    perim = (
        np.linalg.norm(v[t[:, 1]] - v[t[:, 0]], axis=1)
        + np.linalg.norm(v[t[:, 2]] - v[t[:, 1]], axis=1)
        + np.linalg.norm(v[t[:, 0]] - v[t[:, 2]], axis=1)
    )
    inscribed = 4.0 * np.abs(areas) / perim
    shape_ratio = float((element_diameters(mesh) / inscribed).max(initial=0.0))
    return MeshDiagnostics(violations=violations, shape_ratio=shape_ratio)


def write_mesh(mesh: Mesh, path) -> None:
    """Write the line-oriented text format: header, `v x y`, `t i j k tag`."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"mesh v1 {mesh.n_vertices} {mesh.n_triangles}\n")
        for x, y in mesh.vertices:
            f.write(f"v {float(x)!r} {float(y)!r}\n")
        for (i, j, k), tag in zip(mesh.triangles, mesh.region_tag):
            f.write(f"t {i} {j} {k} {tag}\n")

