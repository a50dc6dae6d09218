from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from textileplate import plate
from textileplate.buckling import CompressionCase, analytic_thresholds
from textileplate.errors import SolverError
from textileplate.homogenize import PlateTensors, _tensor_from_matrix
from textileplate.plate import (
    Compression,
    Free,
    GammaClamped,
    LoadSpec,
    PlateMesh,
    PlateOperator,
    PlateState,
    apply_bc,
    assemble_linear,
    factor_symmetric,
    fixed_dofs,
    linear_energy,
    minimize_vk,
    solve_linear,
    vk_energy,
    vk_gradient,
    vk_hessian,
)

A_PS = 1.0989010989010988
NU = 0.3


def isotropic_plate_tensors(thickness_sq_over_3=4 * 0.01 / 3):
    A = A_PS * np.array([[1, NU, 0], [NU, 1, 0], [0, 0, (1 - NU) / 2]])
    C = thickness_sq_over_3 * A
    return PlateTensors(
        a_hom=_tensor_from_matrix(A),
        b_hom=np.zeros((2, 2, 2, 2)),
        c_hom=_tensor_from_matrix(C),
        cell_volume=1.6,
    )


@pytest.fixture(scope="module")
def tensors():
    return isotropic_plate_tensors()


@pytest.fixture(scope="module")
def mesh():
    return PlateMesh(8, 8, 1.0)


def random_state(mesh, rng, scale=0.1):
    return PlateState(mesh, scale * rng.standard_normal(mesh.ndof))


def mms_bending_rate(tensors, grids=(8, 16, 32), L=1.0):
    """Energy-norm convergence rate against a manufactured deflection.

    The clamped-edge-compatible solution W = (y/L)^2 (x/L)^4 has constant
    fourth derivatives, so the C1 element error is cleanly second order in
    the energy norm. The weak load F(v) = a(W_exact, v) is evaluated with
    the exact curvatures at the quadrature points.
    """
    import scipy.sparse.linalg as spla

    def exact_curvatures(pts):
        x, y = pts[:, 0] / L, pts[:, 1] / L
        return (
            12 * x**2 * y**2 / L**2,
            2 * x**4 / L**2,
            8 * x**3 * y / L**2,
        )

    errors = []
    for n in grids:
        m = PlateMesh(n, n, L)
        op = PlateOperator(m, tensors, nonlinear=False)
        t = m.tables()
        ne = len(m.elems)
        qpts = m.nodes[m.elems[:, 0]][:, None, :] + t["pts"][None, :, :]
        wxx, wyy, wxy = exact_curvatures(qpts.reshape(-1, 2))
        kap_ex = np.stack([wxx, wyy, wxy], axis=-1).reshape(ne, -1, 3)
        m_stress = np.einsum("cd,eqd->eqc", op.Cm, kap_ex)
        fe_w = np.einsum("qca,eqc,q->ea", t["Kb"], m_stress, t["W"])
        F = np.zeros(m.ndof)
        np.add.at(F, m.element_dofs()[:, 8:], fe_w)
        e_exact = 0.5 * float(
            np.einsum("eqc,cd,eqd,q->", kap_ex, op.Cm, kap_ex, t["W"])
        )
        idx, _ = fixed_dofs(m, GammaClamped())
        free = np.ones(m.ndof, dtype=bool)
        free[idx] = False
        K = op.hessian(np.zeros(m.ndof))
        u = np.zeros(m.ndof)
        u[free] = spla.spsolve(K[np.ix_(free, free)].tocsc(), F[free])
        # energy-norm error^2 = a(uex,uex) - 2 F(u_h) + a(u_h,u_h)
        err2 = 2 * e_exact - 2 * float(F @ u) + float(u @ (K @ u))
        errors.append(np.sqrt(max(err2, 0.0)))
    hs = [L / n for n in grids]
    rate = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
    return rate, errors


class TestEnergy:
    def test_zero_state(self, mesh, tensors):
        assert vk_energy(PlateState(mesh), tensors, LoadSpec()) == 0.0

    def test_lift_closed_form(self, mesh, tensors):
        e_star, L = 0.01, mesh.L
        state = PlateState(mesh)
        state.u[0::6] = e_star * (L / 2 - mesh.nodes[:, 0])
        expect = 0.5 * A_PS * e_star**2 * L**2
        assert vk_energy(state, tensors) == pytest.approx(expect, rel=1e-12)

    def test_quartic_in_amplitude(self, mesh, tensors):
        rng = np.random.default_rng(11)
        base = random_state(mesh, rng).u
        op = PlateOperator(mesh, tensors)

        def e(t):
            return op.energy(t * base)

        # fit E(t) = a t^2 + b t^3 + c t^4 from t = 1, 2, 3
        M = np.array([[1, 1, 1], [4, 8, 16], [9, 27, 81]], dtype=float)
        coef = np.linalg.solve(M, np.array([e(1), e(2), e(3)]))
        t = 1.7
        predicted = coef @ np.array([t**2, t**3, t**4])
        assert e(t) == pytest.approx(predicted, rel=1e-9)

    def test_nonnegative_without_load(self, mesh, tensors):
        rng = np.random.default_rng(12)
        op = PlateOperator(mesh, tensors)
        for _ in range(20):
            assert op.energy(random_state(mesh, rng, 0.5).u) >= 0.0

    def test_zero_energy_iff_measures_vanish(self, mesh, tensors):
        # a tilted-plane deflection with the compensating in-plane quadratic
        # field has Z = 0 and zero curvature, hence exactly zero energy
        g = np.array([0.3, -0.2])
        x = mesh.nodes[:, 0]
        y = mesh.nodes[:, 1]
        u = np.zeros(mesh.ndof)
        u[2::6] = g[0] * x + g[1] * y
        u[3::6] = g[0]
        u[4::6] = g[1]
        u[0::6] = -0.5 * g[0] * (g[0] * x + g[1] * y)
        u[1::6] = -0.5 * g[1] * (g[0] * x + g[1] * y)
        assert vk_energy(PlateState(mesh, u), tensors) <= 1e-16
        # dropping the in-plane compensation leaves membrane energy behind
        u2 = u.copy()
        u2[0::6] = 0.0
        u2[1::6] = 0.0
        assert vk_energy(PlateState(mesh, u2), tensors) > 1e-4

    def test_gauge_shift_free_bc(self, mesh, tensors):
        rng = np.random.default_rng(13)
        load = LoadSpec(f=np.array([0.3, -0.1, 0.7]))
        u = random_state(mesh, rng).u
        shift = np.zeros(mesh.ndof)
        shift[0::6] = 0.123
        shift[1::6] = -0.456
        op = PlateOperator(mesh, tensors, load)
        de = op.energy(u + shift) - op.energy(u)
        # in-plane translations change only the load work
        expect = -(0.3 * 0.123 + (-0.1) * (-0.456)) * mesh.L**2
        assert de == pytest.approx(expect, rel=1e-10)

    def test_linear_consistency(self, mesh, tensors):
        rng = np.random.default_rng(14)
        # a state without deflection has identical nonlinear/linear energies
        u = random_state(mesh, rng).u.copy()
        u[2::6] = u[3::6] = u[4::6] = u[5::6] = 0.0
        s = PlateState(mesh, u)
        assert vk_energy(s, tensors) == pytest.approx(
            linear_energy(s, tensors), rel=1e-14
        )
        # with deflection they differ only through deflection-gradient terms
        s2 = random_state(mesh, rng)
        assert vk_energy(s2, tensors) != pytest.approx(
            linear_energy(s2, tensors), rel=1e-6
        )


class TestDerivatives:
    def test_zero_state_critical_without_load(self, mesh, tensors):
        g = vk_gradient(PlateState(mesh), tensors, LoadSpec())
        assert np.abs(g).max() == 0.0

    def test_gradient_fd(self, mesh, tensors):
        rng = np.random.default_rng(15)
        load = LoadSpec(
            f=np.array([0.1, -0.2, 0.3]),
            pre_strain=np.array([[0.01, 0.002], [0.002, -0.005]]),
        )
        op = PlateOperator(mesh, tensors, load)
        h = 1e-5
        for _ in range(10):
            u = random_state(mesh, rng).u
            d = rng.standard_normal(mesh.ndof)
            d /= np.linalg.norm(d)
            g = op.gradient(u)
            fd = (op.energy(u + h * d) - op.energy(u - h * d)) / (2 * h)
            assert abs(g @ d - fd) <= 1e-6 * max(abs(fd), 1e-12)

    def test_load_gradient_state_independent(self, mesh, tensors):
        rng = np.random.default_rng(16)
        load = LoadSpec(f=np.array([0.5, 0.25, -1.0]))
        op_l = PlateOperator(mesh, tensors, load)
        op_0 = PlateOperator(mesh, tensors, LoadSpec())
        u1 = random_state(mesh, rng).u
        u2 = random_state(mesh, rng).u
        d1 = op_l.gradient(u1) - op_0.gradient(u1)
        d2 = op_l.gradient(u2) - op_0.gradient(u2)
        assert np.abs(d1 - d2).max() < 1e-12

    def test_hessian_vector_fd(self, mesh, tensors):
        rng = np.random.default_rng(17)
        op = PlateOperator(mesh, tensors, LoadSpec(f=np.array([0, 0, 0.3])))
        h = 1e-5
        for _ in range(10):
            u = random_state(mesh, rng).u
            d = rng.standard_normal(mesh.ndof)
            d /= np.linalg.norm(d)
            H = op.hessian(u)
            fd = (op.gradient(u + h * d) - op.gradient(u - h * d)) / (2 * h)
            err = np.linalg.norm(H @ d - fd) / np.linalg.norm(fd)
            assert err <= 1e-5

    def test_hessian_symmetry(self, mesh, tensors):
        rng = np.random.default_rng(18)
        op = PlateOperator(mesh, tensors)
        H = op.hessian(random_state(mesh, rng).u)
        assert abs(H - H.T).max() <= 1e-12 * abs(H).max()

    def test_flat_hessian_is_bending_plus_geometric(self, mesh, tensors):
        # at the flat state with pre-strain, the deflection block carries the
        # linear bending stiffness plus the membrane-stress geometric term
        estar = np.array([[0.02, 0.0], [0.0, -0.01]])
        op_pre = PlateOperator(mesh, tensors, LoadSpec(pre_strain=estar))
        op_lin = PlateOperator(mesh, tensors, nonlinear=False)
        zero = np.zeros(mesh.ndof)
        H_pre = op_pre.hessian(zero)
        H_lin = op_lin.hessian(zero)
        wmask = np.zeros(mesh.ndof, dtype=bool)
        for c in (2, 3, 4, 5):
            wmask[c::6] = True
        diff = (H_pre - H_lin)[np.ix_(wmask, wmask)]
        # geometric stiffness of the uniform membrane stress n = -A:e*
        t = mesh.tables()
        Am = op_pre.Am
        z = -np.array([estar[0, 0], estar[1, 1], estar[0, 1]])
        n = Am @ z
        S = np.array([[n[0], 0.5 * n[2]], [0.5 * n[2], n[1]]])
        geo = np.einsum("qia,ij,qjb,q->ab", t["G"], S, t["G"], t["W"])
        import scipy.sparse as sp

        expect = sp.lil_matrix(diff.shape)
        for e in range(len(mesh.elems)):
            dofs = mesh.element_dofs()[e][8:]
            # map to w-only numbering
            wdofs = (dofs - 2) - (dofs - 2) // 6 * 2
            expect[np.ix_(wdofs, wdofs)] += geo
        assert abs(diff - expect.tocsr()).max() <= 1e-12 * abs(H_lin).max()


class TestLinearSolve:
    def test_zero_load(self, mesh, tensors):
        state = solve_linear(mesh, tensors, LoadSpec(), GammaClamped())
        assert np.abs(state.u).max() == 0.0

    def test_bending_membrane_decoupled(self, mesh, tensors):
        # with b = 0 a transverse load produces no in-plane displacement
        state = solve_linear(mesh, tensors, LoadSpec(f=np.array([0, 0, 1.0])), GammaClamped())
        assert np.abs(state.u1).max() <= 1e-12 * state.max_abs_w()
        assert np.abs(state.u2).max() <= 1e-12 * state.max_abs_w()

    def test_clamped_transverse_solution(self, mesh, tensors):
        state, energy = solve_linear(
            mesh, tensors, LoadSpec(f=np.array([0, 0, 1.0])), GammaClamped(),
            return_energy=True,
        )
        assert energy < 0
        w = np.abs(state.w)
        assert w[mesh.gamma_nodes].max() == 0.0
        far = mesh.nodes[:, 1] > 0.75 * mesh.L
        near = (mesh.nodes[:, 1] < 0.25 * mesh.L)
        assert w[far].max() > 10 * w[near].max()

    def test_mms_convergence_rate(self, tensors):
        rate, _ = mms_bending_rate(tensors, grids=(8, 16, 32))
        assert rate >= 2.0


class TestMinimize:
    def test_flat_without_load(self, mesh, tensors):
        state = minimize_vk(PlateState(mesh), tensors, LoadSpec(), GammaClamped())
        assert state.energy == 0.0
        assert state.max_abs_w() == 0.0

    def test_descent_trace(self, mesh, tensors):
        state = minimize_vk(
            PlateState(mesh), tensors, LoadSpec(f=np.array([0, 0, 1e-2])), GammaClamped()
        )
        trace = np.array(state.newton_trace)
        assert np.all(np.diff(trace) <= 1e-12 * (1 + np.abs(trace[:-1])))

    def test_small_load_matches_linear_quadratically(self, tensors):
        mesh = PlateMesh(8, 8, 1.0)
        devs = []
        for f3 in (1e-4, 1e-3):
            load = LoadSpec(f=np.array([0, 0, f3]))
            lin = solve_linear(mesh, tensors, load, GammaClamped())
            nl = minimize_vk(PlateState(mesh), tensors, load, GammaClamped(),
                             newton_tol=1e-12)
            devs.append(np.linalg.norm(nl.u - lin.u))
        growth = devs[1] / devs[0]
        assert 30 < growth < 300  # deviation is quadratic in the load

    def test_compression_above_threshold_buckles(self, tensors):
        mesh = PlateMesh(10, 10, 1.0)
        # c/a = 4e-2/3 here; the test-mode bound guarantees buckling above it
        a11 = tensors.matrix("a")[0, 0]
        c11 = tensors.matrix("c")[0, 0]
        es = 1.1 * np.pi**2 * (3 * a11 + 16 * c11) / (8 * a11)
        flat, e_flat = solve_linear(
            mesh, tensors, LoadSpec(), Compression(es), return_energy=True
        )
        best = minimize_vk(flat, tensors, LoadSpec(), Compression(es))
        assert best.energy < e_flat - 1e-9 * abs(e_flat)
        assert best.max_abs_w() > 1e-3 * mesh.L


class TestSaddleCheck:
    def run(self, tensors):
        state = minimize_vk(
            PlateState(PlateMesh(6, 6, 1.0)), tensors,
            LoadSpec(f=np.array([0, 0, 1e-2])), GammaClamped(),
        )
        return state.saddle_checks_unconverged

    def test_unconverged_eigensolves_counted(self, tensors, monkeypatch):
        assert self.run(tensors) >= 0
        calls = []

        def no_convergence(*args, **kwargs):
            calls.append(1)
            raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(spla, "eigsh", no_convergence)
        assert self.run(tensors) == len(calls) >= 2  # one check per start

    def test_other_errors_propagate(self, tensors, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("eigensolver failure")

        monkeypatch.setattr(spla, "eigsh", broken)
        with pytest.raises(RuntimeError, match="eigensolver failure"):
            self.run(tensors)


def free_mask(mesh, bc):
    free = np.ones(mesh.ndof, dtype=bool)
    free[fixed_dofs(mesh, bc)[0]] = False
    return free


class TestFactorSymmetric:
    def assert_matches_dense(self, H):
        b = np.random.default_rng(5).standard_normal(H.shape[0])
        x = factor_symmetric(H).solve(b)
        x_dense = np.linalg.solve(H.toarray(), b)
        assert np.linalg.norm(x - x_dense) <= 1e-10 * np.linalg.norm(x_dense)

    def test_definite_linear_stiffness(self, mesh, tensors):
        K, _ = assemble_linear(mesh, tensors)
        free = free_mask(mesh, GammaClamped())
        self.assert_matches_dense(K[np.ix_(free, free)])

    def test_indefinite_compression_hessian(self, mesh, tensors):
        case = CompressionCase.from_tensors(0.0, mesh.L, tensors)
        bc = Compression(1.05 * analytic_thresholds(case)[1])
        flat = solve_linear(mesh, tensors, LoadSpec(), bc)
        free = free_mask(mesh, bc)
        H = PlateOperator(mesh, tensors).hessian(flat.u)[np.ix_(free, free)]
        assert np.linalg.eigvalsh(H.toarray())[0] < 0
        self.assert_matches_dense(H)

    def test_singular_raises_solver_error(self):
        with pytest.raises(SolverError):
            factor_symmetric(sp.diags([2.0, 0.0, 3.0]))

    def test_other_errors_propagate(self, tensors, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("factorization failure")

        monkeypatch.setattr(plate.spla, "splu", broken)
        with pytest.raises(TypeError, match="factorization failure"):
            minimize_vk(
                PlateState(PlateMesh(6, 6, 1.0)), tensors,
                LoadSpec(f=np.array([0, 0, 1e-2])), GammaClamped(),
            )


class _CountingSpla:
    """Counts the calls made through a module's `spla` attribute."""

    def __init__(self, target):
        self.target = target
        self.calls = Counter()

    def __getattr__(self, name):
        attr = getattr(self.target, name)
        if isinstance(attr, type) or not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


def test_sparse_calls_go_through_plate_spla(tensors, monkeypatch):
    """Factorizations and saddle checks are reached through `plate.spla`."""
    proxy = _CountingSpla(plate.spla)
    monkeypatch.setattr(plate, "spla", proxy)
    mesh = PlateMesh(6, 6, 1.0)
    load = LoadSpec(f=np.array([0, 0, 1e-2]))
    solve_linear(mesh, tensors, load, GammaClamped())
    minimize_vk(PlateState(mesh), tensors, load, GammaClamped())
    assert proxy.calls["splu"] >= 1
    assert proxy.calls["eigsh"] >= 1
    assert proxy.calls["spsolve"] == 0


class TestBoundaryConditions:
    def test_gamma_fixes_bottom_edge(self, mesh):
        idx, val = fixed_dofs(mesh, GammaClamped())
        nodes = np.unique(idx // 6)
        assert set(nodes) == set(mesh.gamma_nodes)
        assert np.abs(val).max() == 0.0

    def test_compression_lift_values(self, mesh):
        es = 0.01
        state = apply_bc(PlateState(mesh), Compression(es))
        left = mesh.nodes[:, 0] == 0.0
        right = mesh.nodes[:, 0] == mesh.L
        assert np.allclose(state.u1[left], es * mesh.L / 2)
        assert np.allclose(state.u1[right], -es * mesh.L / 2)
        assert np.abs(state.u2[mesh.gammaD_nodes]).max() == 0.0

    def test_free_has_no_constraints(self, mesh):
        idx, _ = fixed_dofs(mesh, Free())
        assert len(idx) == 0


def test_assemble_linear_matches_operator(mesh, tensors):
    K, g = assemble_linear(mesh, tensors, LoadSpec(f=np.array([0, 0, 1.0])))
    op = PlateOperator(mesh, tensors, LoadSpec(f=np.array([0, 0, 1.0])), nonlinear=False)
    zero = np.zeros(mesh.ndof)
    assert abs(K - op.hessian(zero)).max() == 0.0
    assert np.abs(g - op.gradient(zero)).max() == 0.0
