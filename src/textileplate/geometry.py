"""Woven-textile geometry: yarn centerlines, yarn solids and hex meshes.

The periodic reference cell lives in (0,2)^2 x (-2*kappa, 2*kappa) in cell
coordinates (the in-plane period of the weave is 2). Yarns are square-section
beams whose midlines oscillate according to a C^1 piecewise-cubic height
profile; perpendicular yarns are glued on the flat contact squares around
every crossing.

Cell meshes are built in cell coordinates (period length 1 per yarn pitch,
i.e. the physical scaling by epsilon happens only for full textile patches).
"""
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import GeometryError, ParameterError, RefinementError
from .hexes import QuadData

# Coincident-node merge tolerance, in units of the yarn pitch.
MERGE_TOL = 1e-8
# Tolerance for locating periodic faces / boundary planes.
FACE_TOL = 1e-9


@dataclass(frozen=True)
class WeaveParams:
    """Parameters of the plain-woven plate.

    kappa : half-thickness of a yarn relative to the pitch, 0 < kappa < 1/4
    epsilon : physical pitch of the weave (one yarn spacing)
    L : side length of the square plate midsurface
    n_periods : number of periodicity cells per side in full-structure meshes
    resolution : (n_axial, n_cross, n_thick) element counts; n_axial per
        curved midline segment, n_cross across the section width (must be
        even so contact squares carry a symmetric node grid), n_thick
        through the section height
    """

    kappa: float
    epsilon: float = 1.0
    L: float = 1.0
    n_periods: int = 1
    resolution: tuple = (8, 2, 2)

    def __post_init__(self):
        if not (0.0 < self.kappa < 0.25):
            raise ParameterError(f"kappa must lie in (0, 1/4), got {self.kappa}")
        if self.epsilon <= 0.0:
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")
        if self.L <= 0.0:
            raise ParameterError(f"L must be positive, got {self.L}")
        if self.n_periods < 1:
            raise ParameterError(f"n_periods must be >= 1, got {self.n_periods}")
        n_axial, n_cross, n_thick = self.resolution
        if n_axial < 1 or n_cross < 1 or n_thick < 1:
            raise ParameterError(f"all resolutions must be >= 1, got {self.resolution}")
        if n_cross % 2 != 0:
            raise ParameterError(f"n_cross must be even, got {n_cross}")


def profile(z, kappa):
    """Height profile of a yarn midline over one period z in [0, 2].

    Flat at -kappa near even integers, flat at +kappa near odd integers,
    joined by a C^1 cubic; extended outside [0, 2] with period 2.
    """
    if not (0.0 < kappa < 0.25):
        raise ParameterError(f"kappa must lie in (0, 1/4), got {kappa}")
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z) % 2.0
    zm = np.where(z > 1.0, 2.0 - z, z)  # mirror about z = 1
    u = np.clip((zm - kappa) / (1.0 - 2.0 * kappa), 0.0, 1.0)
    val = np.where(
        zm <= kappa,
        -kappa,
        np.where(zm >= 1.0 - kappa, kappa, kappa * (6.0 * u**2 - 4.0 * u**3 - 1.0)),
    )
    return float(val[0]) if scalar else val


def profile_slope(z, kappa):
    """Derivative of `profile` with respect to z (zero on the flats)."""
    if not (0.0 < kappa < 0.25):
        raise ParameterError(f"kappa must lie in (0, 1/4), got {kappa}")
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z) % 2.0
    sign = np.where(z > 1.0, -1.0, 1.0)
    zm = np.where(z > 1.0, 2.0 - z, z)
    u = np.clip((zm - kappa) / (1.0 - 2.0 * kappa), 0.0, 1.0)
    du = 1.0 / (1.0 - 2.0 * kappa)
    slope = np.where(
        (zm <= kappa) | (zm >= 1.0 - kappa),
        0.0,
        kappa * (12.0 * u - 12.0 * u**2) * du,
    )
    val = sign * slope
    return float(val[0]) if scalar else val


def _midline_sign(direction, index):
    # Alternating weave phase: direction-1 yarn q rides high over even
    # crossings iff q is even; direction-2 is phase-opposed.
    if direction == 1:
        return float((-1) ** (index + 1))
    if direction == 2:
        return float((-1) ** index)
    raise ParameterError(f"direction must be 1 or 2, got {direction}")


def middle_line(direction, index, s, params):
    """Midline point(s) of yarn `index` of the given family at arclength s.

    Direction 1 runs along e1 at lateral offset index*epsilon; direction 2
    runs along e2. The height is +/- epsilon*profile(s/epsilon).
    """
    if not (0 <= index <= 2 * params.n_periods):
        raise ParameterError(
            f"yarn index {index} outside 0..{2 * params.n_periods}"
        )
    sig = _midline_sign(direction, index)
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    eps = params.epsilon
    h = sig * eps * profile(s / eps, params.kappa)
    out = np.empty(s.shape + (3,))
    if direction == 1:
        out[..., 0] = s
        out[..., 1] = index * eps
    else:
        out[..., 0] = index * eps
        out[..., 1] = s
    out[..., 2] = h
    return out[0] if scalar else out


def yarn_map(direction, index, z, params):
    """Map local beam coordinates z to a point of the curved yarn solid.

    z = (axial, width, height) with (width, height) in the open square
    (-kappa*eps, kappa*eps)^2. The height axis follows the unit normal of
    the midline within its bending plane, so cross-sections stay square
    and contact squares stay planar.
    """
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 1
    z = np.atleast_2d(z)
    eps = params.epsilon
    ka = params.kappa * eps
    tol = 1e-12 * eps
    if np.any(np.abs(z[:, 1]) > ka + tol) or np.any(np.abs(z[:, 2]) > ka + tol):
        raise ParameterError("local coordinates outside the reference beam section")
    sig = _midline_sign(direction, index)
    s = z[:, 0]
    h = sig * eps * profile(s / eps, params.kappa)
    hp = sig * profile_slope(s / eps, params.kappa)
    den = np.sqrt(1.0 + hp**2)
    out = np.empty_like(z)
    if direction == 1:
        out[:, 0] = s + z[:, 2] * (-hp / den)
        out[:, 1] = index * eps + z[:, 1]
    else:
        out[:, 0] = index * eps + z[:, 1]
        out[:, 1] = s + z[:, 2] * (-hp / den)
    out[:, 2] = h + z[:, 2] / den
    return out[0] if scalar else out


@dataclass
class CellMesh:
    """Conforming hexahedral mesh of the reference cell or a textile patch.

    nodes : (N, 3) coordinates
    hexes : (M, 8) trilinear connectivity, VTK hexahedron ordering
    material_tag : (M,) integer tag per element (yarn id, 0 for solid)
    periodic_pairs : (P, 3) rows (slave, master, axis); slave - master is
        exactly (2,0,0)*scale for axis 0 and (0,2,0)*scale for axis 1
    contact_faces : list of ((p, q), node index array) glued-contact groups
    gamma_nodes : node indices on the clamped boundary face (textile only)
    kind : "cell" | "solid" | "textile"
    scale : coordinate unit (1 for cell meshes, epsilon for textile patches)
    """

    nodes: np.ndarray
    hexes: np.ndarray
    material_tag: np.ndarray
    periodic_pairs: np.ndarray
    contact_faces: list = field(default_factory=list)
    gamma_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    kind: str = "cell"
    scale: float = 1.0
    kappa: float = 0.0

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_hexes(self):
        return self.hexes.shape[0]

    def quad_data(self):
        if not hasattr(self, "_quad"):
            self._quad = QuadData(self.nodes, self.hexes)
        return self._quad


def _axial_node_array(kappa, n_axial, n_flat):
    """Axial grid over [0, 2] with nodes pinned at the flat/curved joints.

    Flat pieces carry n_flat elements per kappa of length so their grids
    coincide with the cross-section grid of the perpendicular yarn on every
    contact square; the array is mirror-symmetric about 1.
    """
    a = np.linspace(0.0, kappa, n_flat + 1)
    b = np.linspace(kappa, 1.0 - kappa, n_axial + 1)
    c = np.linspace(1.0 - kappa, 1.0, n_flat + 1)
    half = np.concatenate([a, b[1:], c[1:]])
    return np.concatenate([half, (2.0 - half[::-1])[1:]])


def _structured_hexes(na, nb, nc):
    """Connectivity of an (na, nb, nc)-element structured block."""
    def nid(i, j, k):
        return (i * (nb + 1) + j) * (nc + 1) + k

    i, j, k = np.meshgrid(np.arange(na), np.arange(nb), np.arange(nc), indexing="ij")
    i, j, k = i.ravel(), j.ravel(), k.ravel()
    return np.column_stack(
        [
            nid(i, j, k),
            nid(i + 1, j, k),
            nid(i + 1, j + 1, k),
            nid(i, j + 1, k),
            nid(i, j, k + 1),
            nid(i + 1, j, k + 1),
            nid(i + 1, j + 1, k + 1),
            nid(i, j + 1, k + 1),
        ]
    )


def _yarn_block_nodes(direction, index, axial, cross, thick, kappa):
    """World nodes of one structured yarn block in cell coordinates.

    Grid axes are ordered (x, y, height) in world orientation so the hex
    connectivity stays right-handed for both yarn families: direction 1
    meshes (axial, cross, thick), direction 2 (cross, axial, thick).
    """
    if direction == 1:
        A, B, C = np.meshgrid(axial, cross, thick, indexing="ij")
        s, w, t = A.ravel(), B.ravel(), C.ravel()
    else:
        A, B, C = np.meshgrid(cross, axial, thick, indexing="ij")
        w, s, t = A.ravel(), B.ravel(), C.ravel()
    return yarn_map(direction, index, np.column_stack([s, w, t]), WeaveParams(kappa=kappa))


def _merge_coincident(nodes, tol):
    """Merge nodes closer than tol; returns (unique nodes, old->new map, groups).

    groups lists, for every surviving node that absorbed others, the set of
    original node indices that collapsed onto it.
    """
    tree = cKDTree(nodes)
    pairs = tree.query_pairs(tol, output_type="ndarray")
    parent = np.arange(len(nodes))

    def find(a):
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    roots = np.array([find(a) for a in range(len(nodes))])
    unique_roots, new_index, counts = np.unique(
        roots, return_inverse=True, return_counts=True
    )
    merged = nodes[unique_roots]
    multi = set(unique_roots[counts > 1].tolist())
    groups = {}
    for old, root in enumerate(roots):
        if root in multi:
            groups.setdefault(root, []).append(old)
    groups = {r: np.array(v) for r, v in groups.items()}
    return merged, new_index, groups


def _periodic_pairs(nodes, period, tol=FACE_TOL):
    """Match nodes on the high faces to the low faces in axes 0 and 1."""
    pairs = []
    for axis in (0, 1):
        lo = np.flatnonzero(np.abs(nodes[:, axis]) <= tol * period)
        hi = np.flatnonzero(np.abs(nodes[:, axis] - period) <= tol * period)
        if len(lo) != len(hi):
            raise GeometryError(
                f"periodic faces along axis {axis} carry {len(lo)} vs {len(hi)} nodes"
            )
        if len(lo) == 0:
            continue
        other = [a for a in range(3) if a != axis]
        tree = cKDTree(nodes[np.ix_(lo, other)])
        dist, idx = tree.query(nodes[np.ix_(hi, other)])
        if np.any(dist > tol * period):
            raise GeometryError(f"unmatched periodic node on axis {axis}")
        for s, m in zip(hi, lo[idx]):
            pairs.append((s, m, axis))
    if not pairs:
        return np.empty((0, 3), dtype=int)
    return np.array(sorted(pairs), dtype=int)


def build_cell_mesh(params: WeaveParams) -> CellMesh:
    """Mesh the periodic reference cell of the glued weave (cell coords).

    Two yarns per direction cross the cell; the ones centered on the cell
    boundary are built as two half-blocks so every element stays inside
    (0,2)^2. Coincident nodes on the contact squares are merged, giving one
    connected solid.
    """
    kappa = params.kappa
    n_axial, n_cross, n_thick = params.resolution
    if n_axial < 1:
        raise RefinementError("n_axial must resolve each curved segment")
    n_flat = n_cross // 2
    axial = _axial_node_array(kappa, n_axial, n_flat)
    cross_full = np.linspace(-kappa, kappa, n_cross + 1)
    cross_lo = np.linspace(-kappa, 0.0, n_flat + 1)
    cross_hi = np.linspace(0.0, kappa, n_flat + 1)
    thick = np.linspace(-kappa, kappa, n_thick + 1)

    # (direction, yarn index, cross grid, tag). The yarn centered on the cell
    # boundary is built as two half-blocks so every element stays inside
    # (0,2)^2: its upper half-width at index 0 and its lower half-width as
    # the same-phase yarn index 2
    blocks = []
    for direction in (1, 2):
        tag = (direction - 1) * 2
        blocks.append((direction, 0, cross_hi, tag))
        blocks.append((direction, 2, cross_lo, tag))
        blocks.append((direction, 1, cross_full, tag + 1))

    all_nodes, all_hexes, all_tags = [], [], []
    offset = 0
    for direction, index, cross, tag in blocks:
        nodes = _yarn_block_nodes(direction, index, axial, cross, thick, kappa)
        if direction == 1:
            hexes = _structured_hexes(len(axial) - 1, len(cross) - 1, len(thick) - 1)
        else:
            hexes = _structured_hexes(len(cross) - 1, len(axial) - 1, len(thick) - 1)
        all_nodes.append(nodes)
        all_hexes.append(hexes + offset)
        all_tags.append(np.full(len(hexes), tag))
        offset += len(nodes)
    raw_nodes = np.vstack(all_nodes)
    raw_hexes = np.vstack(all_hexes)
    tags = np.concatenate(all_tags)

    block_of = np.concatenate(
        [np.full(len(n), b) for b, n in enumerate(all_nodes)]
    )
    direction_of_block = np.array([b[0] for b in blocks])

    nodes, new_index, groups = _merge_coincident(raw_nodes, MERGE_TOL)
    hexes = new_index[raw_hexes]

    contact = {}
    for root, members in groups.items():
        dirs = set(direction_of_block[block_of[members]])
        if len(dirs) > 1:
            y = nodes[new_index[root]]
            key = (int(round(y[0])) % 2, int(round(y[1])) % 2)
            contact.setdefault(key, []).append(new_index[root])
    contact_faces = [(k, np.array(sorted(v))) for k, v in sorted(contact.items())]

    pairs = _periodic_pairs(nodes, 2.0)
    mesh = CellMesh(
        nodes=nodes,
        hexes=hexes,
        material_tag=tags,
        periodic_pairs=pairs,
        contact_faces=contact_faces,
        kind="cell",
        scale=1.0,
        kappa=kappa,
    )
    mesh.quad_data()  # raises GeometryError on folded elements
    return mesh


def build_solid_cell_mesh(params: WeaveParams, grid=None) -> CellMesh:
    """Structured mesh of the full plate cell (0,2)^2 x (-2k, 2k), no holes.

    Validation geometry for the analytic plane-stress oracles; `grid`
    overrides the (nx, ny, nz) element counts.
    """
    if grid is None:
        n_axial, n_cross, n_thick = params.resolution
        grid = (2 * (n_axial + n_cross), 2 * (n_axial + n_cross), 2 * n_thick)
    nx, ny, nz = grid
    if min(nx, ny, nz) < 1:
        raise ParameterError(f"solid grid must be >= 1 in each direction, got {grid}")
    ka = params.kappa
    x = np.linspace(0.0, 2.0, nx + 1)
    y = np.linspace(0.0, 2.0, ny + 1)
    z = np.linspace(-2.0 * ka, 2.0 * ka, nz + 1)
    X, Y, Z = np.meshgrid(x, y, z, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    hexes = _structured_hexes(nx, ny, nz)
    pairs = _periodic_pairs(nodes, 2.0)
    return CellMesh(
        nodes=nodes,
        hexes=hexes,
        material_tag=np.zeros(len(hexes), dtype=int),
        periodic_pairs=pairs,
        kind="solid",
        scale=1.0,
        kappa=ka,
    )


def build_textile_mesh(params: WeaveParams) -> CellMesh:
    """Glued textile patch over (0,L)^2 in physical coordinates.

    Tiles the reference cell n_periods x n_periods, merges the shared
    tile-interface nodes, scales by epsilon and tags the clamped boundary
    nodes on the x2 = 0 face. Requires L = 2*epsilon*n_periods.
    """
    n = params.n_periods
    expected_L = 2.0 * params.epsilon * n
    if abs(params.L - expected_L) > 1e-9 * max(params.L, expected_L):
        raise ParameterError(
            f"L = {params.L} inconsistent with 2*epsilon*n_periods = {expected_L}"
        )
    cell = build_cell_mesh(params)
    all_nodes, all_hexes, all_tags = [], [], []
    offset = 0
    for j in range(n):
        for i in range(n):
            shifted = cell.nodes + np.array([2.0 * i, 2.0 * j, 0.0])
            all_nodes.append(shifted)
            all_hexes.append(cell.hexes + offset)
            all_tags.append(cell.material_tag)
            offset += cell.n_nodes
    raw_nodes = np.vstack(all_nodes)
    hexes_raw = np.vstack(all_hexes)
    tags = np.concatenate(all_tags)
    nodes, new_index, _ = _merge_coincident(raw_nodes, MERGE_TOL)
    hexes = new_index[hexes_raw]
    gamma = np.flatnonzero(np.abs(nodes[:, 1]) <= FACE_TOL)
    nodes = nodes * params.epsilon
    mesh = CellMesh(
        nodes=nodes,
        hexes=hexes,
        material_tag=tags,
        periodic_pairs=np.empty((0, 3), dtype=int),
        gamma_nodes=gamma,
        kind="textile",
        scale=params.epsilon,
        kappa=params.kappa,
    )
    mesh.quad_data()
    return mesh


# Point maps of the cell under which the weave is invariant (images are
# taken modulo the period 2 in y1 and y2).
SYMMETRY_MAPS = {
    "reflect_y1": lambda y: np.column_stack([2.0 - y[:, 0], y[:, 1], y[:, 2]]),
    "reflect_y2": lambda y: np.column_stack([y[:, 0], 2.0 - y[:, 1], y[:, 2]]),
    "swap_flip": lambda y: np.column_stack([y[:, 1], y[:, 0], -y[:, 2]]),
    "quarter_turn": lambda y: np.column_stack([1.0 - y[:, 1], y[:, 0], y[:, 2]]),
}


def check_cell_mesh(mesh: CellMesh) -> dict:
    """Run the structural invariants of a mesh; returns {name: (ok, value)}.

    Values are the measured residuals (distances, offsets, minima) so the
    CLI can print a quantitative summary.
    """
    report = {}
    quad = QuadData(mesh.nodes, mesh.hexes, check_jacobian=False)
    detmin = float(quad.wdet.min())
    report["jacobian_positive"] = (detmin > 0.0, detmin)

    tree = cKDTree(mesh.nodes)
    dup_pairs = tree.query_pairs(MERGE_TOL * mesh.scale)
    report["no_duplicate_nodes"] = (len(dup_pairs) == 0, len(dup_pairs))

    if len(mesh.periodic_pairs):
        period = 2.0 * mesh.scale
        worst = 0.0
        ok = True
        for axis in (0, 1):
            rows = mesh.periodic_pairs[mesh.periodic_pairs[:, 2] == axis]
            if len(rows) == 0:
                continue
            delta = mesh.nodes[rows[:, 0]] - mesh.nodes[rows[:, 1]]
            expect = np.zeros(3)
            expect[axis] = period
            worst = max(worst, float(np.abs(delta - expect).max()))
            ok = ok and len(np.unique(rows[:, 0])) == len(rows)
            ok = ok and len(np.unique(rows[:, 1])) == len(rows)
        ok = ok and worst <= 1e-10 * mesh.scale
        report["periodic_pairs"] = (ok, worst)

    if mesh.kind == "cell":
        worst = 0.0
        for mapping in SYMMETRY_MAPS.values():
            mapped = mapping(mesh.nodes)
            mapped[:, 0] %= 2.0
            mapped[:, 1] %= 2.0
            dist, _ = tree.query(mapped)
            worst = max(worst, float(dist.max()))
        report["symmetry_invariance"] = (worst <= 1e-8, worst)

        if mesh.contact_faces:
            planar = max(
                float(np.abs(mesh.nodes[idx, 2]).max()) for _, idx in mesh.contact_faces
            )
            report["contact_planarity"] = (planar <= 1e-10 * mesh.scale, planar)

    return report
