import numpy as np
import pytest

from textileplate.elasticity import (
    BodyForceLoad,
    ConstraintMap,
    EigenstrainLoad,
    ElasticTensor,
    assemble,
    elastic_energy,
    enhanced_strain_field,
    isotropic_tensor,
    lame_from_young_poisson,
    quadratic_form,
    solve,
    strain_and_stress,
)
from textileplate.errors import ParameterError
from textileplate.geometry import CellMesh, WeaveParams, build_solid_cell_mesh
from textileplate.hexes import QuadData


def unit_cube_mesh():
    nodes = np.array(
        [
            [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        ],
        dtype=float,
    )
    return CellMesh(
        nodes=nodes,
        hexes=np.arange(8)[None, :],
        material_tag=np.zeros(1, dtype=int),
        periodic_pairs=np.empty((0, 3), dtype=int),
        kind="solid",
    )


class TestQuadraticForm:
    def test_zero(self):
        t = ElasticTensor.isotropic(1.0, 1.0)
        assert quadratic_form(t, np.zeros((3, 3))) == 0.0

    def test_isotropic_identity(self):
        t = ElasticTensor.isotropic(1.0, 1.0)
        assert quadratic_form(t, np.eye(3)) == pytest.approx(7.5, rel=1e-14)

    def test_coercivity(self):
        t = ElasticTensor.from_young_poisson(1.0, 0.3)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            S = rng.standard_normal((3, 3))
            S = 0.5 * (S + S.T)
            assert quadratic_form(t, S) >= 0.5 * t.c0 * np.sum(S * S) - 1e-12

    def test_rejects_nonsymmetric(self):
        t = ElasticTensor.isotropic(1.0, 1.0)
        S = np.zeros((3, 3))
        S[0, 1] = 1.0
        with pytest.raises(ParameterError):
            quadratic_form(t, S)


class TestElasticTensor:
    def test_symmetry_validation(self):
        a = isotropic_tensor(1.0, 1.0)
        a[0, 1, 2, 2] += 1e-3  # break minor symmetry
        with pytest.raises(ParameterError):
            ElasticTensor({"default": a})

    def test_positive_definiteness(self):
        with pytest.raises(ParameterError):
            ElasticTensor.isotropic(-10.0, 1.0)

    def test_c0_isotropic(self):
        lam, mu = lame_from_young_poisson(1.0, 0.3)
        t = ElasticTensor.isotropic(lam, mu)
        assert t.c0 == pytest.approx(2 * mu, rel=1e-12)


class TestAssemble:
    def test_zero_load_gives_zero_rhs(self):
        mesh = unit_cube_mesh()
        t = ElasticTensor.isotropic(1.0, 1.0)
        system = assemble(mesh, t, loads=[EigenstrainLoad(np.zeros((3, 3)))])
        assert np.abs(system.rhs[0]).max() == 0.0

    def test_free_cube_rigid_kernel(self):
        mesh = unit_cube_mesh()
        t = ElasticTensor.isotropic(1.0, 1.0)
        system = assemble(mesh, t)
        eig = np.linalg.eigvalsh(system.K.toarray())
        assert (np.abs(eig) < 1e-12).sum() == 6
        assert eig[6] > 1e-3

    def test_periodic_meanzero_kernel_trivial(self):
        mesh = build_solid_cell_mesh(WeaveParams(kappa=0.1), grid=(3, 3, 2))
        t = ElasticTensor.isotropic(1.0, 1.0)
        system = assemble(mesh, t, ConstraintMap.periodic(mesh, mean_zero=True))
        K = system.K.toarray()
        # restrict to the zero-mean subspace
        W = system.mean_rows
        Q, _ = np.linalg.qr(W.T, mode="complete")
        B = Q[:, 3:]
        eig = np.linalg.eigvalsh(B.T @ K @ B)
        assert eig[0] > 1e-10

    def test_matrix_symmetry(self):
        mesh = build_solid_cell_mesh(WeaveParams(kappa=0.1), grid=(4, 3, 2))
        t = ElasticTensor.from_young_poisson(1.0, 0.3)
        system = assemble(mesh, t, ConstraintMap.periodic(mesh))
        assert system.symmetry_defect < 1e-12

    def test_slave_and_fixed_conflict(self):
        mesh = build_solid_cell_mesh(WeaveParams(kappa=0.1), grid=(2, 2, 2))
        slave = mesh.periodic_pairs[0, 0]
        cm = ConstraintMap(
            slave_master=mesh.periodic_pairs[:, :2],
            fixed={3 * int(slave): 0.0},
        )
        with pytest.raises(ParameterError):
            assemble(mesh, ElasticTensor.isotropic(1, 1), cm)


class TestSolve:
    def test_zero_rhs(self):
        mesh = build_solid_cell_mesh(WeaveParams(kappa=0.1), grid=(3, 3, 2))
        t = ElasticTensor.isotropic(1.0, 1.0)
        system = assemble(mesh, t, ConstraintMap.periodic(mesh, mean_zero=True),
                          [EigenstrainLoad(np.zeros((3, 3)))])
        u, info = solve(system, rhs=0)
        assert np.abs(u).max() == 0.0
        assert info["iterations"] == 0

    def test_patch_test(self):
        # affine Dirichlet on the whole boundary reproduces the linear field
        mesh = build_solid_cell_mesh(WeaveParams(kappa=0.1), grid=(5, 4, 3))
        t = ElasticTensor.from_young_poisson(1.0, 0.3)
        x = mesh.nodes
        bnd = np.flatnonzero(
            (np.abs(x[:, 0]) < 1e-12) | (np.abs(x[:, 0] - 2) < 1e-12)
            | (np.abs(x[:, 1]) < 1e-12) | (np.abs(x[:, 1] - 2) < 1e-12)
            | (np.abs(np.abs(x[:, 2]) - 0.2) < 1e-12)
        )
        vals = np.zeros((len(bnd), 3))
        vals[:, 0] = x[bnd, 0]
        system = assemble(mesh, t, ConstraintMap.dirichlet(bnd, vals))
        u, _ = solve(system, tol=1e-12)
        expect = np.zeros_like(u)
        expect[0::3] = x[:, 0]
        assert np.abs(u - expect).max() < 1e-9

    def test_energy_consistency(self):
        # quadratic form of the condensed matrix equals the quadrature energy
        # of the compatible-plus-internal strain field
        mesh = build_solid_cell_mesh(WeaveParams(kappa=0.1), grid=(3, 3, 2))
        t = ElasticTensor.from_young_poisson(1.0, 0.3)
        system = assemble(mesh, t)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(3 * mesh.n_nodes)
        quad = mesh.quad_data()
        alpha = system.recover_alpha(u)
        strain, _ = strain_and_stress(mesh, t, u)
        strain = strain + enhanced_strain_field(mesh, alpha)
        a = t.for_tag(0)
        stress = np.einsum("ijkl,eqkl->eqij", a, strain)
        e_quad = 0.5 * np.einsum("eqij,eqij,eq->", strain, stress, quad.wdet)
        e_mat = 0.5 * u @ (system.K_full @ u)
        assert e_mat == pytest.approx(e_quad, rel=1e-9)

    def test_plain_element_energy_consistency(self):
        mesh = build_solid_cell_mesh(WeaveParams(kappa=0.1), grid=(3, 3, 2))
        t = ElasticTensor.from_young_poisson(1.0, 0.3)
        system = assemble(mesh, t, enhanced=False)
        rng = np.random.default_rng(6)
        u = rng.standard_normal(3 * mesh.n_nodes)
        e_mat = 0.5 * u @ (system.K_full @ u)
        assert e_mat == pytest.approx(elastic_energy(mesh, t, u), rel=1e-9)

    def test_cg_energy_monotone(self):
        mesh = build_solid_cell_mesh(WeaveParams(kappa=0.1), grid=(4, 4, 2))
        t = ElasticTensor.from_young_poisson(1.0, 0.3)
        cm = ConstraintMap.periodic(mesh, mean_zero=True)
        system = assemble(mesh, t, cm, [EigenstrainLoad(np.eye(3))])
        _, info = solve(system, rhs=0, tol=1e-10)
        trace = np.array(info["energy_trace"])
        assert np.all(np.diff(trace) <= 1e-12 * (1 + np.abs(trace[:-1])))

    def test_constraint_satisfaction(self):
        mesh = build_solid_cell_mesh(WeaveParams(kappa=0.1), grid=(4, 4, 2))
        t = ElasticTensor.from_young_poisson(1.0, 0.3)
        cm = ConstraintMap.periodic(mesh, mean_zero=True)
        system = assemble(mesh, t, cm, [EigenstrainLoad(np.eye(3))])
        u, _ = solve(system, rhs=0, tol=1e-10)
        uu = u.reshape(-1, 3)
        for s, m, _ in mesh.periodic_pairs:
            assert np.array_equal(uu[s], uu[m])
        quad = mesh.quad_data()
        from textileplate.hexes import node_integration_weights

        w = node_integration_weights(quad, mesh.n_nodes, mesh.hexes)
        mean = np.abs(w @ uu) / quad.volume
        assert mean.max() <= 1e-9 * max(np.abs(u).max(), 1e-300)


class TestStrainStress:
    def test_affine_field(self):
        mesh = build_solid_cell_mesh(WeaveParams(kappa=0.1), grid=(3, 2, 2))
        t = ElasticTensor.isotropic(1.0, 1.0)
        B = np.array([[0.1, 0.02, 0.0], [0.02, -0.05, 0.01], [0.0, 0.01, 0.03]])
        u = (mesh.nodes @ B.T).ravel()
        strain, _ = strain_and_stress(mesh, t, u)
        assert np.abs(strain - B).max() < 1e-13

    def test_rigid_rotation(self):
        mesh = build_solid_cell_mesh(WeaveParams(kappa=0.1), grid=(3, 2, 2))
        t = ElasticTensor.isotropic(1.0, 1.0)
        b = np.array([0.3, -0.2, 0.5])
        u = np.cross(np.broadcast_to(b, mesh.nodes.shape), mesh.nodes).ravel()
        strain, _ = strain_and_stress(mesh, t, u)
        assert np.abs(strain).max() < 1e-12

    def test_rigid_motion_energy(self):
        mesh = build_solid_cell_mesh(WeaveParams(kappa=0.1), grid=(3, 3, 2))
        t = ElasticTensor.from_young_poisson(1.0, 0.3)
        a = np.array([1.0, -2.0, 0.5])
        b = np.array([0.2, 0.1, -0.4])
        u = (a + np.cross(np.broadcast_to(b, mesh.nodes.shape), mesh.nodes)).ravel()
        # scale: the energy the same mesh stores under a unit strain
        uniform = mesh.nodes[:, 0].repeat(3) * 0
        uniform[0::3] = mesh.nodes[:, 0]
        scale = elastic_energy(mesh, t, uniform) * np.abs(u).max() ** 2
        assert elastic_energy(mesh, t, u) <= 1e-20 * scale

    def test_identity_tensor_cross_check(self):
        # with a = identity on symmetric matrices, u'Ku = int e(u):e(u)
        mesh = build_solid_cell_mesh(WeaveParams(kappa=0.1), grid=(3, 3, 2))
        I = np.eye(3)
        a_id = 0.5 * (
            np.einsum("ik,jl->ijkl", I, I) + np.einsum("il,jk->ijkl", I, I)
        )
        t = ElasticTensor({"default": 2.0 * a_id})  # W = e:e
        rng = np.random.default_rng(7)
        u = rng.standard_normal(3 * mesh.n_nodes)
        system = assemble(mesh, t, enhanced=False)
        strain, _ = strain_and_stress(mesh, t, u)
        quad = mesh.quad_data()
        ee = np.einsum("eqij,eqij,eq->", strain, strain, quad.wdet)
        assert u @ (system.K_full @ u) == pytest.approx(2 * ee, rel=1e-9)


class TestBodyForce:
    def test_uniform_force_resultant(self):
        mesh = build_solid_cell_mesh(WeaveParams(kappa=0.1), grid=(3, 3, 2))
        t = ElasticTensor.isotropic(1.0, 1.0)
        f = np.array([0.0, 0.0, 1.0])
        system = assemble(mesh, t, loads=[BodyForceLoad(f)])
        F = system.rhs_full[0]
        assert F[2::3].sum() == pytest.approx(mesh.quad_data().volume, rel=1e-12)
        assert abs(F[0::3].sum()) < 1e-14
