"""Cell problems on the periodic weave cell and the effective plate tensors.

Six correctors (three membrane, three bending) respond to the unit in-plane
strains M^ab and to their thickness-linear counterparts -y3*M^ab. The
effective membrane/coupling/bending tensors are the variationally consistent
energy forms

    A = <(M + e(chi_m)) : a : (M' + e(chi_m'))> / |cell|
    B = <(M + e(chi_m)) : a : (-y3 M' + e(chi_b'))> / |cell|
    C = <(-y3 M + e(chi_b)) : a : (-y3 M' + e(chi_b'))> / |cell|

together with the equivalent single-corrector linear forms (equal by
Galerkin orthogonality up to solver tolerance), which are reported as a
consistency diagnostic. Index order for 3x3 matrix views is [11, 22, 12]
with tensor (not engineering) shear convention.
"""
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .elasticity import (
    ConstraintMap,
    EigenstrainLoad,
    assemble,
    solve,
    strain_field,
    stress_field,
)
from .errors import GeometryError, ParameterError
from .geometry import SYMMETRY_MAPS
from .hexes import node_integration_weights

M11 = np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 0]])
M22 = np.array([[0.0, 0, 0], [0, 1.0, 0], [0, 0, 0]])
M12 = np.array([[0.0, 1.0, 0], [1.0, 0, 0], [0, 0, 0]])

UNIT_STRAINS = {(1, 1): M11, (2, 2): M22, (1, 2): M12}
PAIRS = [(1, 1), (2, 2), (1, 2)]


@dataclass
class CorrectorSet:
    """Nodal corrector fields on the cell mesh, one (N,3) array per load.

    `alphas` holds the per-element internal strain dofs of the enhanced
    element for each field (empty when assembled without enhancement).
    """

    mesh: object
    chi_m: dict
    chi_b: dict
    alphas: dict = field(default_factory=dict)
    solve_info: dict = field(default_factory=dict)
    cg_tol: float = 1e-10

    def fields(self):
        out = {f"chi_m_{a}{b}": self.chi_m[(a, b)] for a, b in PAIRS}
        out.update({f"chi_b_{a}{b}": self.chi_b[(a, b)] for a, b in PAIRS})
        return out


@dataclass
class PlateTensors:
    """Homogenized membrane (a), coupling (b) and bending (c) plate tensors."""

    a_hom: np.ndarray  # (2,2,2,2)
    b_hom: np.ndarray
    c_hom: np.ndarray
    cell_volume: float
    diagnostics: dict = field(default_factory=dict)

    def matrix(self, which):
        """3x3 view in ordering [11, 22, 12] (tensor shear convention)."""
        T = {"a": self.a_hom, "b": self.b_hom, "c": self.c_hom}[which]
        idx = [(0, 0), (1, 1), (0, 1)]
        return np.array([[T[p + q] for q in idx] for p in idx])

    def contraction_matrix(self, which):
        """3x3 matrix K with Z:T:Z' = z^T K z' for symmetric 2x2 arguments
        stored as (11, 22, 12) vectors (shear rows/columns weighted by 2)."""
        W = np.diag([1.0, 1.0, 2.0])
        return W @ self.matrix(which) @ W

    def solve_membrane(self, rhs_vec):
        """Solve a_hom : E = R for a symmetric 2x2 E, both as (11,22,12)."""
        K = self.matrix("a") @ np.diag([1.0, 1.0, 2.0])
        return np.linalg.solve(K, rhs_vec)


def _tensor_from_matrix(M):
    idx = [(0, 0), (1, 1), (0, 1)]
    T = np.zeros((2, 2, 2, 2))
    for i, p in enumerate(idx):
        for j, q in enumerate(idx):
            for pp in {p, p[::-1]}:
                for qq in {q, q[::-1]}:
                    T[pp + qq] = M[i, j]
    return T


def solve_cell_problems(mesh, tensor, cg_tol=1e-10):
    """Solve the six periodic zero-mean cell problems on the weave cell.

    Membrane corrector for (a,b) solves
        < a (M^ab + e(chi)) : e(w) > = 0  for all periodic zero-mean w,
    the bending corrector the same with -y3*M^ab in place of M^ab.
    """
    constraints = ConstraintMap.periodic(mesh, mean_zero=True)
    loads = [EigenstrainLoad(-UNIT_STRAINS[p]) for p in PAIRS]
    for a, b in PAIRS:
        M = UNIT_STRAINS[(a, b)]

        def bending(points, M=M):
            out = np.zeros(points.shape[:-1] + (3, 3))
            out[:] = M
            out *= points[..., 2][..., None, None]
            return out

        loads.append(EigenstrainLoad(bending))
    system = assemble(mesh, tensor, constraints, loads)
    chi_m, chi_b, info, alphas = {}, {}, {}, {}
    for i, (a, b) in enumerate(PAIRS):
        u, inf = solve(system, rhs=i, tol=cg_tol)
        chi_m[(a, b)] = u.reshape(-1, 3)
        alphas[f"chi_m_{a}{b}"] = system.recover_alpha(u, rhs_index=i)
        info[f"m{a}{b}"] = inf["iterations"]
    for i, (a, b) in enumerate(PAIRS):
        u, inf = solve(system, rhs=3 + i, tol=cg_tol)
        chi_b[(a, b)] = u.reshape(-1, 3)
        alphas[f"chi_b_{a}{b}"] = system.recover_alpha(u, rhs_index=3 + i)
        info[f"b{a}{b}"] = inf["iterations"]
    return CorrectorSet(
        mesh=mesh, chi_m=chi_m, chi_b=chi_b, alphas=alphas, solve_info=info, cg_tol=cg_tol
    )


def _corrector_strains(mesh, fields, alphas):
    return {key: strain_field(mesh, u, alphas.get(key)) for key, u in fields.items()}


def compute_plate_tensors(correctors, tensor):
    """Energy-form homogenized tensors plus linear-form diagnostics."""
    mesh = correctors.mesh
    strains = _corrector_strains(mesh, correctors.fields(), correctors.alphas)
    quad = mesh.quad_data()
    vol = quad.volume
    y3 = quad.points[..., 2]

    total_m, total_b, unit_bend = {}, {}, {}
    for a, b in PAIRS:
        M = UNIT_STRAINS[(a, b)]
        total_m[(a, b)] = strains[f"chi_m_{a}{b}"] + M
        total_b[(a, b)] = strains[f"chi_b_{a}{b}"] - y3[..., None, None] * M
        unit_bend[(a, b)] = y3[..., None, None] * np.broadcast_to(M, total_m[(a, b)].shape)

    stress_m = {p: stress_field(mesh, tensor, total_m[p]) for p in PAIRS}
    stress_b = {p: stress_field(mesh, tensor, total_b[p]) for p in PAIRS}
    stress_yM = {p: stress_field(mesh, tensor, unit_bend[p]) for p in PAIRS}

    def inner(S, F):
        return float(np.einsum("eqij,eqij,eq->", S, F, quad.wdet)) / vol

    A = np.zeros((3, 3))
    B = np.zeros((3, 3))
    C = np.zeros((3, 3))
    a_lin = np.zeros((3, 3))
    c_lin = np.zeros((3, 3))
    b_printed = np.zeros((3, 3))
    c_printed = np.zeros((3, 3))
    for i, p in enumerate(PAIRS):
        for j, q in enumerate(PAIRS):
            Mq = UNIT_STRAINS[q]
            ones = np.broadcast_to(Mq, total_m[q].shape)
            A[i, j] = inner(stress_m[p], total_m[q])
            B[i, j] = inner(stress_m[p], total_b[q])
            C[i, j] = inner(stress_b[p], total_b[q])
            a_lin[i, j] = inner(stress_m[p], ones)
            # single-corrector bending form with the corrector sign matched
            # to the bracket; algebraically equal to C by Galerkin orthogonality
            c_lin[i, j] = -inner(stress_b[p], unit_bend[q])
            # literal mixed-sign variant: printed bracket with the corrector
            # of the opposite-sign load
            b_printed[i, j] = inner(stress_b[p], ones) + 2.0 * inner(stress_yM[p], ones)
            c_printed[i, j] = inner(stress_b[p], unit_bend[q]) + 2.0 * inner(
                stress_yM[p], unit_bend[q]
            )

    # the loops contract with the full unit matrices (both off-diagonal
    # entries of the shear), so the 12-rows/columns carry the doubled weight;
    # rescale to plain tensor components
    Winv = np.diag([1.0, 1.0, 0.5])
    A, B, C = (Winv @ X @ Winv for X in (A, B, C))
    a_lin, c_lin = (Winv @ X @ Winv for X in (a_lin, c_lin))
    b_printed, c_printed = (Winv @ X @ Winv for X in (b_printed, c_printed))

    diagnostics = {
        "a_linear_form": a_lin,
        "c_linear_form": c_lin,
        "b_printed_form": b_printed,
        "c_printed_form": c_printed,
        "galerkin_defect_a": float(np.abs(A - a_lin).max()),
        "galerkin_defect_c": float(np.abs(C - c_lin).max()),
        "printed_vs_energy_c": float(np.abs(C - c_printed).max()),
        "cg_tol": correctors.cg_tol,
    }
    return PlateTensors(
        a_hom=_tensor_from_matrix(A),
        b_hom=_tensor_from_matrix(B),
        c_hom=_tensor_from_matrix(C),
        cell_volume=vol,
        diagnostics=diagnostics,
    )


def check_orthotropy(tensors, tol=1e-6):
    """Test the orthotropy identities of an isotropic homogeneous weave.

    Returns {identity: (ok, normalized residual)}; residuals are relative
    to the Frobenius norm of a_hom (resp. c_hom).
    """
    A = tensors.matrix("a")
    B = tensors.matrix("b")
    C = tensors.matrix("c")
    na = np.linalg.norm(tensors.a_hom)
    nc = np.linalg.norm(tensors.c_hom)
    report = {}

    def entry(name, residual, norm):
        rel = float(abs(residual) / norm)
        report[name] = (rel <= tol, rel)

    entry("b_zero", np.abs(tensors.b_hom).max(), na)
    entry("a_1111_eq_2222", A[0, 0] - A[1, 1], na)
    entry("a_1112_zero", A[0, 2], na)
    entry("a_2212_zero", A[1, 2], na)
    entry("c_1111_eq_2222", C[0, 0] - C[1, 1], nc)
    entry("c_1112_zero", C[0, 2], nc)
    entry("c_2212_zero", C[1, 2], nc)
    return report


# Corrector transformation rules under the cell symmetries: each relation is
# (point map, component permutation, component signs, field -> (field, sign)).
SYMMETRY_RELATIONS = {
    "reflect1_bending": {
        "map": SYMMETRY_MAPS["reflect_y1"],
        "perm": (0, 1, 2),
        "signs": (-1.0, 1.0, 1.0),
        "relations": [("chi_b_11", "chi_b_11", 1.0), ("chi_b_22", "chi_b_22", 1.0),
                      ("chi_b_12", "chi_b_12", -1.0)],
    },
    "reflect2_bending": {
        "map": SYMMETRY_MAPS["reflect_y2"],
        "perm": (0, 1, 2),
        "signs": (1.0, -1.0, 1.0),
        "relations": [("chi_b_11", "chi_b_11", 1.0), ("chi_b_22", "chi_b_22", 1.0),
                      ("chi_b_12", "chi_b_12", -1.0)],
    },
    "swap_flip_bending": {
        "map": SYMMETRY_MAPS["swap_flip"],
        "perm": (1, 0, 2),
        "signs": (1.0, 1.0, -1.0),
        "relations": [("chi_b_11", "chi_b_22", -1.0), ("chi_b_12", "chi_b_12", -1.0)],
    },
    "quarter_turn_bending": {
        "map": SYMMETRY_MAPS["quarter_turn"],
        "perm": (1, 0, 2),
        "signs": (1.0, -1.0, 1.0),
        "relations": [("chi_b_11", "chi_b_22", 1.0)],
    },
}


def corrector_symmetry_report(correctors, tol=1e-6, relations=None):
    """Nodal residuals of the corrector symmetry relations.

    For each relation the transformed field T[chi] (source field composed
    with the point map, components permuted and sign-flipped) is compared
    with sign * target field; the reported residual is the nodal sup norm
    normalized by the target's sup norm.
    """
    mesh = correctors.mesh
    fields = correctors.fields()
    tree = cKDTree(mesh.nodes)
    report = {}
    for name, spec in (relations or SYMMETRY_RELATIONS).items():
        mapped = spec["map"](mesh.nodes)
        mapped[:, 0] %= 2.0
        mapped[:, 1] %= 2.0
        dist, image = tree.query(mapped)
        if dist.max() > 1e-8:
            raise GeometryError(
                f"mesh is not invariant under the point map of {name!r} "
                f"(worst node distance {dist.max():.3e})"
            )
        for src_name, dst_name, sign in spec["relations"]:
            src = fields[src_name]
            dst = fields[dst_name]
            transformed = src[image][:, spec["perm"]] * np.asarray(spec["signs"])
            resid = np.abs(transformed - sign * dst).max()
            scale = max(np.abs(dst).max(), 1e-300)
            rel = float(resid / scale)
            report[f"{name}:{src_name}->{dst_name}"] = (rel <= tol, rel)
    return report


def _prestrain(e_star):
    e_star = np.asarray(e_star, dtype=float)
    if e_star.shape != (3, 3) or not np.allclose(e_star, e_star.T):
        raise ParameterError("pre-strain must be a symmetric 3x3 matrix")
    return e_star


def _weigh_by_prestress(mesh, tensor, e_star, fields):
    """(11, 22, 12) vector of < a e* : fields[i] > / |cell| over PAIRS.

    Each field carries the full unit matrix of its pair, so the shear entry,
    contracted with both off-diagonal entries, is halved.
    """
    quad = mesh.quad_data()
    sig_star = stress_field(mesh, tensor, np.broadcast_to(e_star, fields[0].shape))
    rhs = np.array(
        [float(np.einsum("eqij,eqij,eq->", sig_star, f, quad.wdet)) / quad.volume for f in fields]
    )
    return np.array([1.0, 1.0, 0.5]) * rhs


def _symmetric_2x2(v):
    return np.array([[v[0], v[2]], [v[2], v[1]]])


def solve_prestress(correctors, tensors, tensor, e_star):
    """Effective in-plane pre-strain of the cell eigenstrain e*.

    It is the variationally consistent weighting by the membrane correctors,

        a_hom : E* = < a e* : (M' + e(chi_m')) > / |cell|,

    so no pre-stress corrector is solved. Returns (E* (2,2), info) with
    info["bending_coupling_rhs"] = < a e* : (-y3 M' + e(chi_b')) > / |cell|.
    """
    e_star = _prestrain(e_star)
    mesh = correctors.mesh
    strains = _corrector_strains(mesh, correctors.fields(), correctors.alphas)
    y3 = mesh.quad_data().points[..., 2][..., None, None]
    membrane = [strains[f"chi_m_{a}{b}"] + UNIT_STRAINS[(a, b)] for a, b in PAIRS]
    bending = [strains[f"chi_b_{a}{b}"] - y3 * UNIT_STRAINS[(a, b)] for a, b in PAIRS]
    rhs = _weigh_by_prestress(mesh, tensor, e_star, membrane)
    info = {"bending_coupling_rhs": _weigh_by_prestress(mesh, tensor, e_star, bending)}
    return _symmetric_2x2(tensors.solve_membrane(rhs)), info


def prestress_corrector(correctors, tensors, tensor, e_star, cg_tol=1e-10):
    """Pre-stress corrector and the single-corrector pre-strain variant.

    The corrector solves < a e(chi_p) : e(w) > = < a e* : e(w) >; the
    variant weighs by chi_p in place of the membrane correctors,

        a_hom : E*_printed = < a e* : (M' + e(chi_p)) > / |cell|.

    Returns (chi_p (N,3), E*_printed (2,2)).
    """
    e_star = _prestrain(e_star)
    mesh = correctors.mesh
    constraints = ConstraintMap.periodic(mesh, mean_zero=True)
    system = assemble(mesh, tensor, constraints, [EigenstrainLoad(e_star)])
    u, _ = solve(system, rhs=0, tol=cg_tol)
    strain = strain_field(mesh, u, system.recover_alpha(u, rhs_index=0))
    rhs = _weigh_by_prestress(mesh, tensor, e_star, [strain + UNIT_STRAINS[p] for p in PAIRS])
    return u.reshape(-1, 3), _symmetric_2x2(tensors.solve_membrane(rhs))


def corrector_mean_defect(correctors):
    """Largest |mean of a corrector component| over all fields (zero-mean check)."""
    mesh = correctors.mesh
    quad = mesh.quad_data()
    w = node_integration_weights(quad, mesh.n_nodes, mesh.hexes)
    worst = 0.0
    for u in correctors.fields().values():
        m = np.abs(w @ u) / quad.volume
        scale = max(np.abs(u).max(), 1e-300)
        worst = max(worst, float(m.max() / scale))
    return worst


def tensors_to_json(tensors, extra=None):
    """Serialize plate tensors to a canonical JSON string."""
    doc = {
        "voigt_convention": "tensor",
        "ordering": ["11", "22", "12"],
        "a_hom": tensors.matrix("a").tolist(),
        "b_hom": tensors.matrix("b").tolist(),
        "c_hom": tensors.matrix("c").tolist(),
        "cell_volume": tensors.cell_volume,
    }
    diag = {}
    for k, v in tensors.diagnostics.items():
        diag[k] = v.tolist() if isinstance(v, np.ndarray) else v
    doc["diagnostics"] = diag
    if extra:
        doc.update(extra)
    return json.dumps(doc, sort_keys=True, indent=2)


def tensors_from_json(text):
    doc = json.loads(text)
    return PlateTensors(
        a_hom=_tensor_from_matrix(np.array(doc["a_hom"])),
        b_hom=_tensor_from_matrix(np.array(doc["b_hom"])),
        c_hom=_tensor_from_matrix(np.array(doc["c_hom"])),
        cell_volume=float(doc["cell_volume"]),
        diagnostics=doc.get("diagnostics", {}),
    )
