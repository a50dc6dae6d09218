"""Macroscopic plate solver on the square midsurface (0, L)^2.

In-plane displacements use bilinear quads; the deflection uses C^1 bicubic
Hermite rectangles with (value, d/dx, d/dy, d2/dxdy) at every node, so the
membrane measure

    Z_ab = e_ab(U) + 1/2 dW/dx_a dW/dx_b  (- optional pre-strain)

and the curvatures live in conforming spaces. The energy is

    J(U) = 1/2 int ( Z:A:Z + Z:B:K + K:C:K ) - int f.U

with K the curvature matrix of W and (A, B, C) the homogenized membrane,
coupling and bending tensors. Gradients and Hessians are exact derivatives
of the discrete energy; the nonlinear solver is damped Newton with
multi-start.
"""
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ParameterError, SolverError

_G3 = np.sqrt(3.0 / 5.0)
GAUSS_1D = (
    np.array([0.5 * (1 - _G3), 0.5, 0.5 * (1 + _G3)]),
    np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0]),
)

N_DOF_NODE = 6  # [u1, u2, w, wx, wy, wxy]


def hermite_1d(t, h):
    """Cubic Hermite rows (value, x-derivative, 2nd derivative) on [0, h]."""
    t = np.asarray(t)
    val = np.column_stack(
        [
            1 - 3 * t**2 + 2 * t**3,
            h * (t - 2 * t**2 + t**3),
            3 * t**2 - 2 * t**3,
            h * (-(t**2) + t**3),
        ]
    )
    der = np.column_stack(
        [
            (-6 * t + 6 * t**2) / h,
            1 - 4 * t + 3 * t**2,
            (6 * t - 6 * t**2) / h,
            -2 * t + 3 * t**2,
        ]
    )
    der2 = np.column_stack(
        [
            (-6 + 12 * t) / h**2,
            (-4 + 6 * t) / h,
            (6 - 12 * t) / h**2,
            (-2 + 6 * t) / h,
        ]
    )
    return val, der, der2


@dataclass
class PlateMesh:
    """Uniform nx x ny rectangle grid on (0, L)^2.

    gamma_nodes is the clamped edge x2 = 0, gammaD_nodes the pair of
    compression edges x1 in {0, L}.
    """

    nx: int
    ny: int
    L: float
    nodes: np.ndarray = field(init=False)
    elems: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1 or self.L <= 0:
            raise ParameterError("plate grid needs nx, ny >= 1 and L > 0")
        x = np.linspace(0.0, self.L, self.nx + 1)
        y = np.linspace(0.0, self.L, self.ny + 1)
        X, Y = np.meshgrid(x, y, indexing="ij")
        self.nodes = np.column_stack([X.ravel(), Y.ravel()])
        i, j = np.meshgrid(np.arange(self.nx), np.arange(self.ny), indexing="ij")
        n0 = i.ravel() * (self.ny + 1) + j.ravel()
        self.elems = np.column_stack(
            [n0, n0 + (self.ny + 1), n0 + (self.ny + 2), n0 + 1]
        )
        self.hx = self.L / self.nx
        self.hy = self.L / self.ny

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def ndof(self):
        return N_DOF_NODE * self.n_nodes

    @property
    def gamma_nodes(self):
        return np.flatnonzero(np.abs(self.nodes[:, 1]) < 1e-12 * self.L)

    @property
    def gammaD_nodes(self):
        x = self.nodes[:, 0]
        return np.flatnonzero(
            (np.abs(x) < 1e-12 * self.L) | (np.abs(x - self.L) < 1e-12 * self.L)
        )

    def tables(self):
        """Per-quad-point shape tables shared by all elements (uniform grid)."""
        if hasattr(self, "_tables"):
            return self._tables
        tq, wq = GAUSS_1D
        hx, hy = self.hx, self.hy
        Hx_v, Hx_d, Hx_dd = hermite_1d(tq, hx)
        Hy_v, Hy_d, Hy_dd = hermite_1d(tq, hy)
        nq = len(tq) ** 2
        N = np.empty((nq, 4))
        dNx = np.empty((nq, 4))
        dNy = np.empty((nq, 4))
        H = np.empty((nq, 16))
        Gx = np.empty((nq, 16))
        Gy = np.empty((nq, 16))
        Kxx = np.empty((nq, 16))
        Kyy = np.empty((nq, 16))
        Kxy = np.empty((nq, 16))
        W = np.empty(nq)
        pts = np.empty((nq, 2))
        corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
        q = 0
        for a in range(len(tq)):
            for b in range(len(tq)):
                xa, yb = tq[a], tq[b]
                W[q] = wq[a] * wq[b] * hx * hy
                pts[q] = (xa * hx, yb * hy)
                for c, (ca, cb) in enumerate(corners):
                    n1 = (1 - xa) if ca == 0 else xa
                    d1 = (-1.0 / hx) if ca == 0 else (1.0 / hx)
                    n2 = (1 - yb) if cb == 0 else yb
                    d2 = (-1.0 / hy) if cb == 0 else (1.0 / hy)
                    N[q, c] = n1 * n2
                    dNx[q, c] = d1 * n2
                    dNy[q, c] = n1 * d2
                    # Hermite dof order per corner: value, wx, wy, wxy
                    ax_v = Hx_v[a, 2 * ca : 2 * ca + 2]
                    ax_d = Hx_d[a, 2 * ca : 2 * ca + 2]
                    ax_dd = Hx_dd[a, 2 * ca : 2 * ca + 2]
                    ay_v = Hy_v[b, 2 * cb : 2 * cb + 2]
                    ay_d = Hy_d[b, 2 * cb : 2 * cb + 2]
                    ay_dd = Hy_dd[b, 2 * cb : 2 * cb + 2]
                    # dof order per corner: value, d/dx, d/dy, d2/dxdy
                    for da in range(2):
                        for db in range(2):
                            col = 4 * c + da + 2 * db
                            H[q, col] = ax_v[da] * ay_v[db]
                            Gx[q, col] = ax_d[da] * ay_v[db]
                            Gy[q, col] = ax_v[da] * ay_d[db]
                            Kxx[q, col] = ax_dd[da] * ay_v[db]
                            Kyy[q, col] = ax_v[da] * ay_dd[db]
                            Kxy[q, col] = ax_d[da] * ay_d[db]
                q += 1
        # membrane strain matrix over the 8 in-plane element dofs [u1 | u2]
        Bm = np.zeros((nq, 3, 8))
        Bm[:, 0, :4] = dNx
        Bm[:, 1, 4:] = dNy
        Bm[:, 2, :4] = 0.5 * dNy
        Bm[:, 2, 4:] = 0.5 * dNx
        G = np.stack([Gx, Gy], axis=1)  # (nq, 2, 16)
        Kb = np.stack([Kxx, Kyy, Kxy], axis=1)  # (nq, 3, 16)
        self._tables = dict(N=N, Bm=Bm, G=G, Kb=Kb, H=H, W=W, pts=pts)
        return self._tables

    def element_dofs(self):
        if hasattr(self, "_edof"):
            return self._edof
        nodes = self.elems  # (ne, 4)
        u1 = N_DOF_NODE * nodes + 0
        u2 = N_DOF_NODE * nodes + 1
        wd = (N_DOF_NODE * nodes[:, :, None] + 2 + np.arange(4)[None, None, :]).reshape(
            len(nodes), 16
        )
        self._edof = np.concatenate([u1, u2, wd], axis=1)  # (ne, 24)
        return self._edof


@dataclass
class PlateState:
    """Plate dof vector bound to its mesh; per node [u1, u2, w, wx, wy, wxy]."""

    mesh: PlateMesh
    u: np.ndarray = None

    def __post_init__(self):
        if self.u is None:
            self.u = np.zeros(self.mesh.ndof)

    def copy(self):
        return PlateState(self.mesh, self.u.copy())

    @property
    def u1(self):
        return self.u[0::N_DOF_NODE]

    @property
    def u2(self):
        return self.u[1::N_DOF_NODE]

    @property
    def w(self):
        return self.u[2::N_DOF_NODE]

    def max_abs_w(self):
        return float(np.abs(self.w).max())


@dataclass
class LoadSpec:
    """Areal force density and optional effective membrane pre-strain.

    f : (3,) constants or (n_nodes, 3) nodal samples
    pre_strain : None, a symmetric 2x2 matrix, or (n_nodes, 3) nodal
        samples ordered (e11, e22, e12)
    """

    f: np.ndarray = None
    pre_strain: np.ndarray = None

    def force_at(self, mesh):
        t = mesh.tables()
        ne = len(mesh.elems)
        nq = len(t["W"])
        if self.f is None:
            return np.zeros((ne, nq, 3))
        f = np.asarray(self.f, dtype=float)
        if f.shape == (3,):
            return np.broadcast_to(f, (ne, nq, 3))
        return np.einsum("qa,eac->eqc", t["N"], f[mesh.elems])

    def prestrain_at(self, mesh):
        if self.pre_strain is None:
            return None
        t = mesh.tables()
        ne = len(mesh.elems)
        nq = len(t["W"])
        e = np.asarray(self.pre_strain, dtype=float)
        if e.shape == (2, 2):
            if not np.allclose(e, e.T):
                raise ParameterError("pre-strain must be symmetric")
            vec = np.array([e[0, 0], e[1, 1], e[0, 1]])
            return np.broadcast_to(vec, (ne, nq, 3))
        return np.einsum("qa,eac->eqc", t["N"], e[mesh.elems])


@dataclass
class GammaClamped:
    """U = 0 and grad W = 0 on the edge x2 = 0."""


@dataclass
class Compression:
    """U = (+-e* L/2, 0, 0), d1 W = 0 on the edges x1 in {0, L}."""

    e_star: float


@dataclass
class Free:
    """No essential conditions (gauge tests only)."""


def fixed_dofs(mesh, bc):
    """Constrained dof indices and values for a boundary condition."""
    idx, val = [], []
    if isinstance(bc, GammaClamped):
        for n in mesh.gamma_nodes:
            for c in range(N_DOF_NODE):
                idx.append(N_DOF_NODE * n + c)
                val.append(0.0)
    elif isinstance(bc, Compression):
        for n in mesh.gammaD_nodes:
            x1 = mesh.nodes[n, 0]
            lift = bc.e_star * (mesh.L / 2.0 - x1)
            vals = [lift, 0.0, 0.0, 0.0, 0.0, 0.0]
            for c in range(N_DOF_NODE):
                idx.append(N_DOF_NODE * n + c)
                val.append(vals[c])
    elif isinstance(bc, Free):
        pass
    else:
        raise ParameterError(f"unknown boundary condition {bc!r}")
    return np.array(idx, dtype=int), np.array(val)


def apply_bc(state, bc):
    idx, val = fixed_dofs(state.mesh, bc)
    if len(idx):
        state.u[idx] = val
    return state


class PlateOperator:
    """Discrete energy, gradient and Hessian of the plate functional."""

    def __init__(self, mesh, tensors, load=None, nonlinear=True):
        self.mesh = mesh
        self.tensors = tensors
        self.load = load or LoadSpec()
        self.nonlinear = nonlinear
        self.t = mesh.tables()
        self.edof = mesh.element_dofs()
        self.Am = tensors.contraction_matrix("a")
        self.Bc = tensors.contraction_matrix("b")
        self.Cm = tensors.contraction_matrix("c")
        self.fq = self.load.force_at(mesh)
        self.eq = self.load.prestrain_at(mesh)

    def _kinematics(self, u):
        t = self.t
        ue = u[self.edof]  # (ne, 24)
        eps = np.einsum("qci,ei->eqc", t["Bm"], ue[:, :8])
        kap = np.einsum("qci,ei->eqc", t["Kb"], ue[:, 8:])
        g = np.einsum("qci,ei->eqc", t["G"], ue[:, 8:])
        z = eps.copy()
        if self.nonlinear:
            z[..., 0] += 0.5 * g[..., 0] ** 2
            z[..., 1] += 0.5 * g[..., 1] ** 2
            z[..., 2] += 0.5 * g[..., 0] * g[..., 1]
        if self.eq is not None:
            z = z - self.eq
        return ue, z, kap, g

    def _stress(self, z, kap):
        n = np.einsum("cd,eqd->eqc", self.Am, z) + 0.5 * np.einsum(
            "cd,eqd->eqc", self.Bc, kap
        )
        m = 0.5 * np.einsum("dc,eqd->eqc", self.Bc, z) + np.einsum(
            "cd,eqd->eqc", self.Cm, kap
        )
        return n, m

    def _load_work(self, u):
        if self.load.f is None:
            return 0.0
        t = self.t
        ue = u[self.edof]
        U1 = np.einsum("qa,ea->eq", t["N"], ue[:, :4])
        U2 = np.einsum("qa,ea->eq", t["N"], ue[:, 4:8])
        W3 = np.einsum("qa,ea->eq", t["H"], ue[:, 8:])
        dens = self.fq[..., 0] * U1 + self.fq[..., 1] * U2 + self.fq[..., 2] * W3
        return float(np.einsum("eq,q->", dens, t["W"]))

    def energy(self, u):
        _, z, kap, _ = self._kinematics(u)
        dens = 0.5 * (
            np.einsum("eqc,cd,eqd->eq", z, self.Am, z)
            + np.einsum("eqc,cd,eqd->eq", z, self.Bc, kap)
            + np.einsum("eqc,cd,eqd->eq", kap, self.Cm, kap)
        )
        return float(np.einsum("eq,q->", dens, self.t["W"])) - self._load_work(u)

    def gradient(self, u):
        t = self.t
        _, z, kap, g = self._kinematics(u)
        n, m = self._stress(z, kap)
        W = t["W"]
        ge_u = np.einsum("qca,eqc,q->ea", t["Bm"], n, W)
        ge_w = np.einsum("qca,eqc,q->ea", t["Kb"], m, W)
        if self.nonlinear:
            tvec = np.stack(
                [
                    n[..., 0] * g[..., 0] + 0.5 * n[..., 2] * g[..., 1],
                    n[..., 1] * g[..., 1] + 0.5 * n[..., 2] * g[..., 0],
                ],
                axis=-1,
            )
            ge_w += np.einsum("qca,eqc,q->ea", t["G"], tvec, W)
        if self.load.f is not None:
            fu1 = np.einsum("eq,qa,q->ea", self.fq[..., 0], t["N"], W)
            fu2 = np.einsum("eq,qa,q->ea", self.fq[..., 1], t["N"], W)
            fw = np.einsum("eq,qa,q->ea", self.fq[..., 2], t["H"], W)
            ge_u = np.concatenate([ge_u[:, :4] - fu1, ge_u[:, 4:] - fu2], axis=1)
            ge_w = ge_w - fw
        grad = np.zeros(self.mesh.ndof)
        np.add.at(grad, self.edof, np.concatenate([ge_u, ge_w], axis=1))
        return grad

    def hessian(self, u):
        t = self.t
        ne = len(self.mesh.elems)
        nq = len(t["W"])
        W = t["W"]
        _, z, kap, g = self._kinematics(u)
        n, _ = self._stress(z, kap)
        # B_z: variation of the membrane measure, (ne, nq, 3, 24)
        Bz = np.zeros((ne, nq, 3, 24))
        Bz[:, :, :, :8] = t["Bm"][None]
        if self.nonlinear:
            G = t["G"]
            Bz[:, :, 0, 8:] += g[..., 0, None] * G[None, :, 0, :]
            Bz[:, :, 1, 8:] += g[..., 1, None] * G[None, :, 1, :]
            Bz[:, :, 2, 8:] += 0.5 * (
                g[..., 0, None] * G[None, :, 1, :] + g[..., 1, None] * G[None, :, 0, :]
            )
        Bk = np.zeros((nq, 3, 24))
        Bk[:, :, 8:] = t["Kb"]
        he = np.einsum("eqcA,cd,eqdB,q->eAB", Bz, self.Am, Bz, W, optimize=True)
        cross = np.einsum("eqcA,cd,qdB,q->eAB", Bz, self.Bc, Bk, W, optimize=True)
        he += 0.5 * (cross + cross.transpose(0, 2, 1))
        he += np.einsum("qcA,cd,qdB,q->AB", Bk, self.Cm, Bk, W, optimize=True)[None]
        if self.nonlinear:
            S = np.empty((ne, nq, 2, 2))
            S[..., 0, 0] = n[..., 0]
            S[..., 1, 1] = n[..., 1]
            S[..., 0, 1] = S[..., 1, 0] = 0.5 * n[..., 2]
            geo = np.einsum("qia,eqij,qjb,q->eab", t["G"], S, t["G"], W, optimize=True)
            he[:, 8:, 8:] += geo
        edof = self.edof
        rows = np.repeat(edof, 24, axis=1).ravel()
        cols = np.tile(edof, (1, 24)).ravel()
        H = sp.coo_matrix((he.ravel(), (rows, cols)), shape=(self.mesh.ndof,) * 2)
        return H.tocsr()


def vk_energy(state, tensors, load=None):
    """Total nonlinear plate energy of a state."""
    return PlateOperator(state.mesh, tensors, load).energy(state.u)


def vk_gradient(state, tensors, load=None):
    """Exact gradient of the discrete energy with respect to every dof."""
    return PlateOperator(state.mesh, tensors, load).gradient(state.u)


def vk_hessian(state, tensors, load=None):
    """Exact (symmetric) Hessian of the discrete energy, sparse CSR."""
    return PlateOperator(state.mesh, tensors, load).hessian(state.u)


def linear_energy(state, tensors, load=None):
    """Small-displacement plate energy (membrane measure without the
    deflection-gradient products)."""
    return PlateOperator(state.mesh, tensors, load, nonlinear=False).energy(state.u)


def assemble_linear(mesh, tensors, load=None):
    """Stiffness and gradient-at-zero of the linear plate problem."""
    op = PlateOperator(mesh, tensors, load, nonlinear=False)
    zero = np.zeros(mesh.ndof)
    return op.hessian(zero), op.gradient(zero)


def factor_symmetric(H):
    """Sparse LU of a symmetric matrix in SuperLU's symmetric mode.

    Minimum-degree ordering on the pattern of H + H^T and diagonal pivots
    (no threshold pivoting). Returns the SuperLU object; a singular factor
    raises SolverError.
    """
    try:
        return spla.splu(
            H.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as err:
        if "singular" not in str(err):
            raise
        raise SolverError(f"sparse factorization failed: {err}") from err


def solve_linear(mesh, tensors, load=None, bc=None, return_energy=False):
    """Solve the linear homogenized plate problem on the given space.

    The quadratic energy is minimized exactly by one Newton step from the
    boundary-condition lift. Returns the PlateState (and its energy).
    """
    bc = bc if bc is not None else GammaClamped()
    op = PlateOperator(mesh, tensors, load, nonlinear=False)
    state = apply_bc(PlateState(mesh), bc)
    idx, _ = fixed_dofs(mesh, bc)
    free = np.ones(mesh.ndof, dtype=bool)
    free[idx] = False
    K = op.hessian(state.u)
    g = op.gradient(state.u)
    du = factor_symmetric(K[np.ix_(free, free)]).solve(-g[free])
    if not np.all(np.isfinite(du)):
        raise SolverError("linear plate system is singular on the active space")
    state.u[free] += du
    if return_energy:
        return state, op.energy(state.u)
    return state


def _perturbation_mode(mesh, bc, amplitude):
    """Admissible bending seed: sin^2 along the constrained direction."""
    w = np.zeros(mesh.ndof)
    x1 = mesh.nodes[:, 0]
    x2 = mesh.nodes[:, 1]
    L = mesh.L
    if isinstance(bc, Compression):
        s = np.sin(np.pi * x1 / L) ** 2
        ds = 2 * np.pi / L * np.sin(np.pi * x1 / L) * np.cos(np.pi * x1 / L)
        w[2::N_DOF_NODE] = amplitude * s
        w[3::N_DOF_NODE] = amplitude * ds
    elif isinstance(bc, GammaClamped):
        w[2::N_DOF_NODE] = amplitude * (x2 / L) ** 2
        w[4::N_DOF_NODE] = amplitude * 2.0 * x2 / L**2
    else:
        s = np.sin(np.pi * x1 / L) ** 2 * np.sin(np.pi * x2 / L) ** 2
        w[2::N_DOF_NODE] = amplitude * s
    return w


def _escape_negative_curvature(op, u, free, energy, stats):
    """If the converged point is a saddle, step along the most negative
    Hessian direction (both signs tried, step grown while it helps).

    An eigensolve that does not converge means no escape; it is counted in
    stats["saddle_checks_unconverged"].
    """
    H = op.hessian(u)[np.ix_(free, free)].tocsc()
    scale = abs(H.diagonal()).max()
    v0 = np.ones(H.shape[0])
    try:
        lam, vec = spla.eigsh(H, k=1, which="SA", v0=v0, maxiter=2000, tol=1e-6)
    except spla.ArpackNoConvergence:
        stats["saddle_checks_unconverged"] += 1
        return None
    if lam[0] >= -1e-8 * scale:
        return None
    d = vec[:, 0]
    best = None
    for sign in (1.0, -1.0):
        t = 1e-3
        prev = energy
        for _ in range(40):
            trial = u.copy()
            trial[free] += sign * t * d
            e_new = op.energy(trial)
            if e_new < prev:
                best = (e_new, trial) if best is None or e_new < best[0] else best
                prev = e_new
                t *= 2.0
            else:
                break
    return best


def _newton(op, u0, free, tol, max_iter=200):
    """Damped Newton with Armijo backtracking; returns (u, energy, trace).

    Stops at the first critical point, which may be a saddle. `op` is any
    object with `energy`, `gradient` and a sparse `hessian`; the Hessian is
    shifted by a multiple of the identity until the step is a descent
    direction.
    """
    u = u0.copy()
    energy = op.energy(u)
    trace = [energy]
    scale_cap = 1e12 * (1.0 + abs(energy))
    stalls = 0
    for _ in range(max_iter):
        g = op.gradient(u)
        gn = float(np.linalg.norm(g[free]))
        if gn <= tol * (1.0 + abs(energy)):
            return u, energy, trace
        H = op.hessian(u)
        Hff = H[np.ix_(free, free)].tocsc()
        gf = g[free]
        step = None
        tau = 0.0
        base = abs(Hff.diagonal()).max()
        for _ in range(12):
            try:
                Hmod = Hff if tau == 0.0 else Hff + tau * sp.identity(Hff.shape[0])
                p = factor_symmetric(Hmod).solve(-gf)
            except SolverError:
                p = None
            if p is not None and np.all(np.isfinite(p)) and p @ gf < 0:
                step = p
                break
            tau = max(1e-8 * base, 4.0 * tau) if tau else 1e-8 * base
        if step is None:
            step = -gf  # gradient-related fallback
        slope = float(step @ gf)
        t = 1.0
        accepted = False
        old = energy
        for _ in range(60):
            trial = u.copy()
            trial[free] += t * step
            e_new = op.energy(trial)
            if e_new <= energy + 1e-4 * t * slope:
                u, energy = trial, e_new
                trace.append(energy)
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # stagnated line search: accept convergence if gradient is tiny
            if gn <= 100 * tol * (1.0 + abs(energy)):
                return u, energy, trace
            raise SolverError(f"line search failed at gradient norm {gn:.3e}")
        if old - energy <= 1e-15 * (1.0 + abs(energy)):
            stalls += 1
            if stalls >= 3:
                return u, energy, trace
        else:
            stalls = 0
        if abs(energy) > scale_cap:
            raise SolverError(
                "energy decreasing without bound; load exceeds the "
                "small-force regime of the plate model"
            )
    raise SolverError(f"Newton did not converge in {max_iter} iterations")


def minimize_vk(initial, tensors, load=None, bc=None, newton_tol=1e-9,
                max_iter=200, perturbation=1e-3, extra_starts=()):
    """Minimize the nonlinear plate energy by multi-start damped Newton.

    Starts from the given state and from the same state plus a small
    admissible bending perturbation; returns the lowest-energy converged
    state (ties resolved toward the earlier start). `extra_starts` may add
    further initial dof vectors (e.g. amplitude-seeded buckling modes).
    Each critical point Newton reaches is checked for negative curvature;
    up to six times per start, the iteration restarts from the escaped
    point, so only (local) minimizers are returned.
    The returned state carries `saddle_checks_unconverged`, the number of
    saddle checks over all starts whose eigensolve did not converge.
    """
    bc = bc if bc is not None else GammaClamped()
    mesh = initial.mesh
    op = PlateOperator(mesh, tensors, load, nonlinear=True)
    idx, _ = fixed_dofs(mesh, bc)
    free = np.ones(mesh.ndof, dtype=bool)
    free[idx] = False

    base = apply_bc(initial.copy(), bc)
    starts = [base.u]
    pert = base.u + _perturbation_mode(mesh, bc, perturbation * mesh.L)
    starts.append(apply_bc(PlateState(mesh, pert), bc).u)
    for extra in extra_starts:
        vec = extra.u if isinstance(extra, PlateState) else np.asarray(extra)
        starts.append(apply_bc(PlateState(mesh, vec.copy()), bc).u)

    results, failures = [], []
    stats = {"saddle_checks_unconverged": 0}
    for u0 in starts:
        try:
            u, energy, trace = _newton(op, u0, free, newton_tol, max_iter)
            for _ in range(6):
                escaped = _escape_negative_curvature(op, u, free, energy, stats)
                if escaped is None:
                    break
                u, energy, more = _newton(op, escaped[1], free, newton_tol, max_iter)
                trace += more
            results.append((energy, u, trace))
        except SolverError as err:
            failures.append(str(err))
    if not results:
        raise SolverError("no start converged: " + "; ".join(failures))
    best_energy = min(r[0] for r in results)
    span = 1e-12 * (1.0 + abs(best_energy))
    for energy, u, trace in results:
        if energy <= best_energy + span:
            state = PlateState(mesh, u)
            state.energy = energy
            state.newton_trace = trace
            state.saddle_checks_unconverged = stats["saddle_checks_unconverged"]
            return state
    raise AssertionError("unreachable")


def write_plate_vtk(path, mesh, state):
    """Export the midsurface displacement field as a VTK quad surface."""
    from .vtk_io import export_vtk

    class _Surf:
        nodes = np.column_stack([mesh.nodes, np.zeros(mesh.n_nodes)])
        hexes = mesh.elems

    disp = np.column_stack([state.u1, state.u2, state.w])
    return export_vtk(_Surf, {"displacement": disp}, path)


def write_profile_csv(path, mesh, state):
    """Midline deflection profile W(x1, L/2) as CSV rows x1,w."""
    x = mesh.nodes[:, 0]
    y = mesh.nodes[:, 1]
    ys = np.unique(y)
    ymid = ys[np.argmin(np.abs(ys - mesh.L / 2))]
    sel = np.flatnonzero(np.abs(y - ymid) < 1e-12 * mesh.L)
    sel = sel[np.argsort(x[sel])]
    with open(path, "w") as fh:
        fh.write("x1,u3\n")
        for n in sel:
            fh.write(f"{x[n]:.17g},{state.w[n]:.17g}\n")
    return path
