"""Small-strain 3D elasticity on trilinear hex meshes.

Stored energy density is W(S) = 1/2 a S:S for the symmetric strain S, with
a carrying the minor and major symmetries a_ijkl = a_jikl = a_klji and a
coercivity constant c0 > 0 on symmetric matrices. Systems are assembled
sparse, constrained by master/slave periodicity, Dirichlet values and
optional zero-mean conditions, and solved with diagonally preconditioned
conjugate gradients projected onto the constraint subspace.
"""
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, SolverError
from .hexes import node_integration_weights

_VOIGT = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]


def isotropic_tensor(lam, mu):
    """Full 3x3x3x3 isotropic stiffness with Lame constants (lam, mu)."""
    I = np.eye(3)
    a = lam * np.einsum("ij,kl->ijkl", I, I)
    a += mu * (np.einsum("ik,jl->ijkl", I, I) + np.einsum("il,jk->ijkl", I, I))
    return a


def lame_from_young_poisson(E, nu):
    return E * nu / ((1 + nu) * (1 - 2 * nu)), E / (2 * (1 + nu))


def _mandel_matrix(a):
    w = np.array([1.0, 1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0), np.sqrt(2.0)])
    m = np.empty((6, 6))
    for I, (i, j) in enumerate(_VOIGT):
        for J, (k, l) in enumerate(_VOIGT):
            m[I, J] = a[i, j, k, l] * w[I] * w[J]
    return m


class ElasticTensor:
    """Fourth-order stiffness field, constant per material tag.

    table maps material tags to (3,3,3,3) arrays; a `default` entry serves
    any tag not listed. The coercivity constant c0 is the smallest Mandel
    eigenvalue over all stored materials.
    """

    def __init__(self, table):
        if not table:
            raise ParameterError("elastic tensor table is empty")
        self.table = {}
        for tag, a in table.items():
            a = np.asarray(a, dtype=float)
            if a.shape != (3, 3, 3, 3):
                raise ParameterError(f"material {tag}: expected (3,3,3,3) array")
            if not (
                np.array_equal(a, a.transpose(1, 0, 2, 3))
                and np.array_equal(a, a.transpose(0, 1, 3, 2))
                and np.array_equal(a, a.transpose(2, 3, 0, 1))
            ):
                raise ParameterError(f"material {tag}: tensor symmetries violated")
            self.table[tag] = a
        self.c0 = min(
            float(np.linalg.eigvalsh(_mandel_matrix(a)).min()) for a in self.table.values()
        )
        if self.c0 <= 0.0:
            raise ParameterError(f"stiffness not positive definite (c0={self.c0:.3e})")

    @classmethod
    def isotropic(cls, lam, mu):
        return cls({"default": isotropic_tensor(lam, mu)})

    @classmethod
    def from_young_poisson(cls, E, nu):
        return cls.isotropic(*lame_from_young_poisson(E, nu))

    def for_tag(self, tag):
        if tag in self.table:
            return self.table[tag]
        if "default" in self.table:
            return self.table["default"]
        raise ParameterError(f"no material for tag {tag}")


def quadratic_form(tensor, S, tag=0):
    """Stored energy density W(S) = 1/2 a S : S of a symmetric strain S."""
    S = np.asarray(S, dtype=float)
    if S.shape != (3, 3) or not np.allclose(S, S.T, atol=1e-12 * max(1.0, np.abs(S).max())):
        raise ParameterError("strain must be a symmetric 3x3 matrix")
    a = tensor.for_tag(tag)
    return 0.5 * float(np.einsum("ijkl,ij,kl->", a, S, S))


@dataclass
class EigenstrainLoad:
    """Right-hand side w -> integral of (a : e*(y)) : e(w).

    `strain` is a constant 3x3 matrix or a callable points(...,3) -> (...,3,3).
    """

    strain: object

    def stress(self, tensor, tag, points):
        e = self.strain(points) if callable(self.strain) else np.broadcast_to(
            np.asarray(self.strain, dtype=float), points.shape[:-1] + (3, 3)
        )
        return np.einsum("ijkl,...kl->...ij", tensor.for_tag(tag), e)


@dataclass
class BodyForceLoad:
    """Right-hand side w -> integral of f(y) . w."""

    force: object

    def value(self, points):
        if callable(self.force):
            return self.force(points)
        return np.broadcast_to(np.asarray(self.force, dtype=float), points.shape)


@dataclass
class ConstraintMap:
    """Periodic slave/master pairs, fixed dofs and zero-mean rows.

    slave_master : (P, 2) node index pairs (chains are path-compressed)
    fixed : {dof index: prescribed value}
    mean_zero : add one zero-mean condition per displacement component
    """

    slave_master: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=int))
    fixed: dict = field(default_factory=dict)
    mean_zero: bool = False

    @classmethod
    def periodic(cls, mesh, mean_zero=True):
        return cls(slave_master=mesh.periodic_pairs[:, :2].copy(), mean_zero=mean_zero)

    @classmethod
    def dirichlet(cls, node_indices, values=0.0):
        """Clamp all three components of the given nodes.

        `values` may be a scalar, a (3,) vector or an (len(nodes), 3) array.
        """
        fixed = {}
        values = np.asarray(values, dtype=float)
        for row, node in enumerate(node_indices):
            for c in range(3):
                if values.ndim == 0:
                    v = values
                elif values.ndim == 1:
                    v = values[c]
                else:
                    v = values[row, c]
                fixed[3 * int(node) + c] = float(v)
        return cls(fixed=fixed)

    def resolve(self, n_nodes):
        """Return (master_of_node, fixed_idx, fixed_val) with chains compressed."""
        if self.mean_zero and any(v != 0.0 for v in self.fixed.values()):
            raise ParameterError(
                "zero-mean rows cannot be combined with inhomogeneous Dirichlet data"
            )
        master = np.arange(n_nodes)
        for s, m in self.slave_master:
            master[s] = m
        # path-compress (pairs may chain through corners)
        for _ in range(3):
            master = master[master]
        if np.any(master[master] != master):
            raise ParameterError("periodic constraint graph contains a cycle")
        fixed_idx = np.array(sorted(self.fixed), dtype=int)
        fixed_val = np.array([self.fixed[i] for i in fixed_idx])
        slave_nodes = np.flatnonzero(master != np.arange(n_nodes))
        slave_dofs = np.concatenate([3 * slave_nodes + c for c in range(3)]) if len(
            slave_nodes
        ) else np.empty(0, dtype=int)
        if np.intersect1d(slave_dofs, fixed_idx).size:
            raise ParameterError("a degree of freedom is both slave and fixed")
        return master, fixed_idx, fixed_val


class SparseSystem:
    """Constrained sparse SPD system K u = F with bookkeeping to unfold.

    When the enhanced-strain element is used, per-element recovery data
    (inverse internal stiffness, coupling block and internal load parts)
    are kept so internal strain dofs can be reconstructed from a solution.
    """

    def __init__(self, K_full, rhs_list, mesh, constraints, node_weights):
        n_nodes = mesh.n_nodes
        ndof = 3 * n_nodes
        master, fixed_idx, fixed_val = constraints.resolve(n_nodes)
        dof_master = np.repeat(3 * master, 3) + np.tile(np.arange(3), n_nodes)
        is_fixed = np.zeros(ndof, dtype=bool)
        is_fixed[fixed_idx] = True
        is_self = dof_master == np.arange(ndof)
        keep = is_self & ~is_fixed
        red_of_full = -np.ones(ndof, dtype=int)
        red_of_full[keep] = np.arange(keep.sum())
        # slaves adopt their master's reduced index
        red = red_of_full[dof_master]
        self.g = np.zeros(ndof)
        self.g[fixed_idx] = fixed_val
        rows = np.flatnonzero(red >= 0)
        P = sp.csr_matrix(
            (np.ones(len(rows)), (rows, red[rows])), shape=(ndof, int(keep.sum()))
        )
        self.P = P
        self.K_full = K_full
        self.K = (P.T @ K_full @ P).tocsr()
        self.rhs = [P.T @ (F - K_full @ self.g) for F in rhs_list]
        self.mean_rows = None
        if constraints.mean_zero:
            W = np.zeros((3, ndof))
            for c in range(3):
                W[c, c::3] = node_weights
            self.mean_rows = np.vstack([P.T @ W[c] for c in range(3)])
        sym = abs(self.K - self.K.T)
        scale = max(abs(self.K).max(), 1e-300)
        self.symmetry_defect = float(sym.max() / scale)
        self.ndof = ndof
        self.enhanced = None  # set by assemble() for the enhanced element

    def expand(self, u_red):
        return self.P @ u_red + self.g

    def recover_alpha(self, u_full, rhs_index=None):
        """Internal strain dofs alpha = Kaa^{-1} (f_alpha - Kau u), (ne, 9)."""
        if self.enhanced is None:
            raise ParameterError("system was assembled without enhanced strains")
        Kaa_inv, Kau, edof, falpha = self.enhanced
        ue = u_full[edof]  # (ne, 24)
        rhs = -np.einsum("emb,eb->em", Kau, ue)
        if rhs_index is not None:
            rhs = rhs + falpha[rhs_index]
        return np.einsum("emn,en->em", Kaa_inv, rhs)


def assemble(mesh, tensor, constraints=None, loads=(), enhanced=True):
    """Galerkin assembly: trilinear hexes, 2x2x2 Gauss, slave elimination.

    With `enhanced` (default), three incompatible strain modes per element
    and displacement component are condensed out at element level; this
    removes the parasitic thickness strain of the plain trilinear element
    in bending. Returns a SparseSystem with one reduced right-hand side
    per load.
    """
    quad = mesh.quad_data()
    n_nodes = mesh.n_nodes
    ndof = 3 * n_nodes
    tags = np.asarray(mesh.material_tag)
    ne = mesh.n_hexes
    Genh = quad.enhanced_gradients() if enhanced else None

    edof_all = (3 * mesh.hexes[:, :, None] + np.arange(3)[None, None, :]).reshape(ne, 24)
    ke_all = np.empty((ne, 24, 24))
    rhs_full = [np.zeros(ndof) for _ in loads]
    falpha = [np.zeros((ne, 9)) for _ in loads] if enhanced else None
    if enhanced:
        Kau_all = np.empty((ne, 9, 24))
        Kaa_inv_all = np.empty((ne, 9, 9))
    for tag in np.unique(tags):
        sel = np.flatnonzero(tags == tag)
        G = quad.grads[sel]  # (e, q, a, j)
        w = quad.wdet[sel]  # (e, q)
        a = tensor.for_tag(int(tag))
        ke = np.einsum("eqaj,ijkl,eqbl,eq->eaibk", G, a, G, w, optimize=True)
        ke = ke.reshape(len(sel), 24, 24)
        if enhanced:
            Ge = Genh[sel]  # (e, q, m, j)
            # enhanced dof (i, m) behaves like a gradient e_i (x) G_m
            Kaa = np.einsum("eqmj,ijkl,eqnl,eq->eimkn", Ge, a, Ge, w, optimize=True)
            Kaa = Kaa.reshape(len(sel), 9, 9)
            Kau = np.einsum("eqmj,ijkl,eqbl,eq->eimbk", Ge, a, G, w, optimize=True)
            Kau = Kau.reshape(len(sel), 9, 24)
            Kaa_inv = np.linalg.inv(Kaa)
            ke = ke - np.einsum("eam,emn,enb->eab", Kau.transpose(0, 2, 1), Kaa_inv, Kau)
            Kau_all[sel] = Kau
            Kaa_inv_all[sel] = Kaa_inv
        ke_all[sel] = ke
        pts = quad.points[sel]
        for li, load in enumerate(loads):
            if isinstance(load, EigenstrainLoad):
                sig = load.stress(tensor, int(tag), pts)  # (e, q, 3, 3)
                fe = np.einsum("eqij,eqaj,eq->eai", sig, G, w).reshape(len(sel), 24)
                if enhanced:
                    fa = np.einsum("eqij,eqmj,eq->eim", sig, Ge, w).reshape(len(sel), 9)
                    falpha[li][sel] = fa
                    fe = fe - np.einsum("eam,emn,en->ea", Kau.transpose(0, 2, 1), Kaa_inv, fa)
            elif isinstance(load, BodyForceLoad):
                f = load.value(pts)
                fe = np.einsum("eqi,qa,eq->eai", f, quad.shapes, w).reshape(len(sel), 24)
            else:
                raise ParameterError(f"unknown load type {type(load).__name__}")
            np.add.at(rhs_full[li], edof_all[sel], fe)
    rows = np.repeat(edof_all, 24, axis=1).ravel()
    cols = np.tile(edof_all, (1, 24)).ravel()
    K_full = sp.coo_matrix((ke_all.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()
    if constraints is None:
        constraints = ConstraintMap()
    weights = node_integration_weights(quad, n_nodes, mesh.hexes)
    system = SparseSystem(K_full, rhs_full, mesh, constraints, weights)
    system.quad = quad
    system.rhs_full = rhs_full
    if enhanced:
        system.enhanced = (Kaa_inv_all, Kau_all, edof_all, falpha)
    return system


def enhanced_strain_field(mesh, alpha):
    """Quadrature-point strains of the internal modes, (ne, nq, 3, 3)."""
    Genh = mesh.quad_data().enhanced_gradients()
    a = alpha.reshape(-1, 3, 3)  # (ne, i, m)
    grad = np.einsum("eim,eqmj->eqij", a, Genh)
    return 0.5 * (grad + grad.transpose(0, 1, 3, 2))


def solve(system, rhs=None, tol=1e-10, max_iter=50000):
    """Projected, diagonally preconditioned CG on the reduced system.

    Returns (u_full, info); info carries iteration count, relative residual
    and the (monotone) trace of the discrete energy functional.
    """
    K = system.K
    if rhs is None:
        if len(system.rhs) == 1:
            b = system.rhs[0]
        elif len(system.rhs) == 0:
            # load-free problem driven by inhomogeneous constraints
            b = -(system.P.T @ (system.K_full @ system.g))
        else:
            raise ParameterError("system carries multiple right-hand sides; pass one")
    elif np.isscalar(rhs):
        b = system.rhs[int(rhs)]
    else:
        b = np.asarray(rhs, dtype=float)

    W = system.mean_rows
    if W is not None:
        # orthonormal rows for a stable projector
        Q, _ = np.linalg.qr(np.asarray(W).T)

        def project(x):
            return x - Q @ (Q.T @ x)

    else:

        def project(x):
            return x

    diag = K.diagonal()
    diag = np.where(diag > 0, diag, 1.0)
    b = project(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return system.expand(np.zeros(K.shape[0])), {
            "iterations": 0,
            "relative_residual": 0.0,
            "energy_trace": [0.0],
        }
    x = np.zeros(K.shape[0])
    r = b.copy()
    z = project(r / diag)
    p = z.copy()
    rz = r @ z
    energy_trace = [0.0]
    it = 0
    for it in range(1, max_iter + 1):
        Kp = project(K @ p)
        alpha = rz / (p @ Kp)
        x += alpha * p
        r -= alpha * Kp
        # phi(x) = 1/2 x:K:x - b.x rewritten through the residual r = b - K x
        energy_trace.append(float(-0.5 * (b @ x + x @ r)))
        if np.linalg.norm(r) <= tol * bnorm:
            break
        z = project(r / diag)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    rel = float(np.linalg.norm(r) / bnorm)
    if rel > tol:
        raise SolverError(
            f"CG did not converge in {max_iter} iterations (residual {rel:.3e})"
        )
    info = {"iterations": it, "relative_residual": rel, "energy_trace": energy_trace}
    return system.expand(x), info


def strain_field(mesh, u, alpha=None):
    """Symmetric strain e(u) at every quadrature point, (ne, nq, 3, 3).

    `alpha` holds the per-element internal strain dofs of the enhanced
    element (`SparseSystem.recover_alpha`); when given, their modes are added.
    """
    quad = mesh.quad_data()
    ue = np.asarray(u, dtype=float).reshape(mesh.n_nodes, 3)[mesh.hexes]  # (e, a, i)
    grad = np.einsum("eqaj,eai->eqij", quad.grads, ue)
    strain = 0.5 * (grad + grad.transpose(0, 1, 3, 2))
    if alpha is not None:
        strain = strain + enhanced_strain_field(mesh, alpha)
    return strain


def stress_field(mesh, tensor, strain):
    """Stress a:S of a quadrature-point strain field, material by material."""
    stress = np.empty(strain.shape)
    tags = np.asarray(mesh.material_tag)
    for tag in np.unique(tags):
        sel = tags == tag
        stress[sel] = np.einsum(
            "ijkl,eqkl->eqij", tensor.for_tag(int(tag)), strain[sel]
        )
    return stress


def strain_and_stress(mesh, tensor, field):
    """Symmetric strain e(u) and stress a:e(u) at every quadrature point."""
    strain = strain_field(mesh, field)
    return strain, stress_field(mesh, tensor, strain)


def elastic_energy(mesh, tensor, field):
    """Total stored energy 1/2 integral of a e(u):e(u)."""
    quad = mesh.quad_data()
    strain, stress = strain_and_stress(mesh, tensor, field)
    return float(0.5 * np.einsum("eqij,eqij,eq->", strain, stress, quad.wdet))
