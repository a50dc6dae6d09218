import numpy as np
import pytest

from textileplate.elasticity import (
    ElasticTensor,
    isotropic_tensor,
    lame_from_young_poisson,
    strain_and_stress,
)
from textileplate.errors import GeometryError
from textileplate.geometry import WeaveParams, build_cell_mesh, build_solid_cell_mesh
from textileplate.homogenize import (
    M11,
    M12,
    M22,
    PAIRS,
    check_orthotropy,
    compute_plate_tensors,
    corrector_mean_defect,
    corrector_symmetry_report,
    solve_cell_problems,
    solve_prestress,
    tensors_from_json,
    tensors_to_json,
)

E_MOD, NU = 1.0, 0.3
A_PS = E_MOD / (1 - NU**2)
LAM, MU = lame_from_young_poisson(E_MOD, NU)


@pytest.fixture(scope="module")
def tensor():
    return ElasticTensor.from_young_poisson(E_MOD, NU)


@pytest.fixture(scope="module")
def solid_setup(tensor):
    mesh = build_solid_cell_mesh(WeaveParams(kappa=0.1), grid=(8, 8, 4))
    correctors = solve_cell_problems(mesh, tensor)
    tensors = compute_plate_tensors(correctors, tensor)
    return mesh, correctors, tensors


@pytest.fixture(scope="module")
def weave_setup(tensor):
    mesh = build_cell_mesh(WeaveParams(kappa=0.1, resolution=(8, 2, 2)))
    correctors = solve_cell_problems(mesh, tensor)
    tensors = compute_plate_tensors(correctors, tensor)
    return mesh, correctors, tensors


class TestUnitStrains:
    def test_matrices(self):
        assert (M11 == np.diag([1.0, 0, 0])).all()
        assert (M22 == np.diag([0, 1.0, 0])).all()
        assert M12[0, 1] == M12[1, 0] == 1.0 and M12.sum() == 2.0


class TestSolidCell:
    def test_membrane_plane_stress(self, solid_setup):
        _, _, pt = solid_setup
        A = pt.matrix("a")
        assert A[0, 0] == pytest.approx(A_PS, rel=1e-10)
        assert A[0, 1] == pytest.approx(NU * A_PS, rel=1e-10)
        assert A[2, 2] == pytest.approx(MU, rel=1e-10)

    def test_bending_plane_stress(self, solid_setup):
        _, _, pt = solid_setup
        C = pt.matrix("c")
        assert C[0, 0] == pytest.approx(4 * 0.01 / 3 * A_PS, rel=1e-10)

    def test_no_coupling(self, solid_setup):
        _, _, pt = solid_setup
        assert np.abs(pt.b_hom).max() < 1e-12

    def test_membrane_corrector_thickness_relaxation(self, solid_setup, tensor):
        mesh, cs, _ = solid_setup
        strain, _ = strain_and_stress(mesh, tensor, cs.chi_m[(1, 1)])
        # compatible strain of the corrector: uniform thickness contraction
        assert np.abs(strain[..., 2, 2] + LAM / (LAM + 2 * MU)).max() < 1e-8
        assert np.abs(strain[..., 0, 0]).max() < 1e-8
        assert np.abs(strain[..., 0, 1]).max() < 1e-8

    def test_bending_corrector_parity(self, solid_setup):
        # under y3 -> -y3 the in-plane components are odd, the thickness
        # component even (pullback antisymmetry of the load)
        mesh, cs, _ = solid_setup
        from scipy.spatial import cKDTree

        chi = cs.chi_b[(1, 1)]
        mapped = mesh.nodes.copy()
        mapped[:, 2] *= -1
        dist, img = cKDTree(mesh.nodes).query(mapped)
        assert dist.max() < 1e-10
        scale = np.abs(chi).max()
        assert np.abs(chi[img][:, 0] + chi[:, 0]).max() < 1e-8 * scale
        assert np.abs(chi[img][:, 1] + chi[:, 1]).max() < 1e-8 * scale
        assert np.abs(chi[img][:, 2] - chi[:, 2]).max() < 1e-8 * scale

    def test_orthotropy_trivial_and_isotropic(self, solid_setup):
        _, _, pt = solid_setup
        report = check_orthotropy(pt, tol=1e-9)
        assert all(ok for ok, _ in report.values())
        A = pt.matrix("a")
        # full in-plane isotropy of the solid plate
        assert A[0, 0] - A[0, 1] - 2 * A[2, 2] == pytest.approx(0.0, abs=1e-10)


class TestGalerkinConsistency:
    def test_energy_vs_linear_forms(self, weave_setup):
        _, cs, pt = weave_setup
        tolA = 10 * cs.cg_tol * np.linalg.norm(pt.matrix("a"))
        tolC = 10 * cs.cg_tol * np.linalg.norm(pt.matrix("c"))
        assert pt.diagnostics["galerkin_defect_a"] <= tolA
        assert pt.diagnostics["galerkin_defect_c"] <= tolC

    def test_printed_bending_variant_differs(self, solid_setup):
        # the mixed-sign variant of the printed bending formula is reported,
        # not silently adopted
        _, _, pt = solid_setup
        assert pt.diagnostics["printed_vs_energy_c"] > 1e-4

    def test_index_symmetries(self, weave_setup):
        _, _, pt = weave_setup
        for name in ("a", "c"):
            T = {"a": pt.a_hom, "c": pt.c_hom}[name]
            assert np.abs(T - T.transpose(1, 0, 2, 3)).max() == 0.0
            assert np.abs(T - T.transpose(0, 1, 3, 2)).max() == 0.0
            M = pt.matrix(name)
            assert np.abs(M - M.T).max() <= 1e-12 * np.abs(M).max()

    def test_positive_definiteness(self, weave_setup, tensor):
        _, _, pt = weave_setup
        for name in ("a", "c"):
            eig = np.linalg.eigvalsh(pt.matrix(name))
            assert eig.min() > 0
        assert np.linalg.eigvalsh(pt.matrix("a")).min() > 1e-3 * tensor.c0

    def test_zero_mean_correctors(self, weave_setup):
        _, cs, _ = weave_setup
        assert corrector_mean_defect(cs) <= 1e-9


class TestRefinement:
    def test_solid_membrane_form_monotone(self, tensor):
        coarse = build_solid_cell_mesh(WeaveParams(kappa=0.1), grid=(4, 4, 2))
        fine = build_solid_cell_mesh(WeaveParams(kappa=0.1), grid=(8, 8, 4))
        pts = []
        for mesh in (coarse, fine):
            cs = solve_cell_problems(mesh, tensor)
            pts.append(compute_plate_tensors(cs, tensor))
        W = np.diag([1.0, 1.0, 2.0])
        for name in ("a", "c"):
            diff = W @ (pts[0].matrix(name) - pts[1].matrix(name)) @ W
            assert np.linalg.eigvalsh(diff).min() >= -1e-9

    def test_weave_diagonal_monotone(self, tensor, weave_setup):
        _, _, coarse = weave_setup
        mesh = build_cell_mesh(WeaveParams(kappa=0.1, resolution=(8, 4, 4)))
        cs = solve_cell_problems(mesh, tensor)
        fine = compute_plate_tensors(cs, tensor)
        for name in ("a", "c"):
            d = np.diag(fine.matrix(name)) - np.diag(coarse.matrix(name))
            assert (d <= 1e-9).all()


class TestOrthotropy:
    def test_isotropic_weave_passes(self, weave_setup):
        _, _, pt = weave_setup
        report = check_orthotropy(pt, tol=1e-6)
        for name, (ok, val) in report.items():
            assert ok, f"{name}: {val}"

    def test_yarnwise_material_jitter_breaks_b(self):
        mesh = build_cell_mesh(WeaveParams(kappa=0.1, resolution=(8, 2, 2)))
        jitter = ElasticTensor(
            {
                0: isotropic_tensor(LAM, MU),
                1: isotropic_tensor(2.5 * LAM, 2.5 * MU),
                2: isotropic_tensor(4 * LAM, 4 * MU),
                3: isotropic_tensor(0.5 * LAM, 0.5 * MU),
            }
        )
        cs = solve_cell_problems(mesh, jitter)
        pt = compute_plate_tensors(cs, jitter)
        report = check_orthotropy(pt, tol=1e-6)
        ok, residual = report["b_zero"]
        assert not ok and residual > 1e-5


class TestCorrectorSymmetries:
    def test_isotropic_weave_passes(self, weave_setup):
        _, cs, _ = weave_setup
        report = corrector_symmetry_report(cs, tol=1e-6)
        for name, (ok, val) in report.items():
            assert ok, f"{name}: {val}"

    def test_anisotropic_material_breaks_swap_relations(self, weave_setup):
        mesh, _, _ = weave_setup
        aniso = isotropic_tensor(LAM, MU)
        aniso[0, 0, 0, 0] += 1.0
        at = ElasticTensor({"default": aniso})
        cs = solve_cell_problems(mesh, at)
        report = corrector_symmetry_report(cs, tol=1e-6)
        assert report["swap_flip_bending:chi_b_11->chi_b_22"][1] > 1e-4
        assert report["quarter_turn_bending:chi_b_11->chi_b_22"][1] > 1e-4
        # the axis reflections survive an orthotropic material
        assert report["reflect1_bending:chi_b_11->chi_b_11"][0]
        assert report["reflect2_bending:chi_b_12->chi_b_12"][0]

    def test_asymmetric_mesh_rejected(self, tensor):
        mesh = build_solid_cell_mesh(WeaveParams(kappa=0.1), grid=(3, 4, 2))
        cs = solve_cell_problems(mesh, tensor)
        mesh.nodes = mesh.nodes + np.array([0.01, 0.0, 0.0])  # break invariance
        with pytest.raises(GeometryError):
            corrector_symmetry_report(cs, tol=1e-6)


class TestPrestress:
    def test_zero_prestrain(self, solid_setup, tensor):
        mesh, cs, pt = solid_setup
        chi_p, eff, _ = solve_prestress(mesh, tensor, np.zeros((3, 3)), cs, pt)
        assert np.abs(chi_p).max() == 0.0
        assert np.abs(eff).max() == 0.0

    def test_unit_strain_pass_through(self, solid_setup, tensor):
        mesh, cs, pt = solid_setup
        for M, expect in ((M11, np.diag([1.0, 0.0])), (M22, np.diag([0.0, 1.0]))):
            _, eff, _ = solve_prestress(mesh, tensor, M, cs, pt)
            assert np.abs(eff - expect).max() < 1e-6

    def test_shear_pass_through(self, solid_setup, tensor):
        mesh, cs, pt = solid_setup
        _, eff, _ = solve_prestress(mesh, tensor, M12, cs, pt)
        assert np.abs(eff - np.array([[0, 1.0], [1.0, 0]])).max() < 1e-6

    def test_isotropic_prestrain_on_weave(self, weave_setup, tensor):
        mesh, cs, pt = weave_setup
        alpha = 0.37
        _, eff, info = solve_prestress(mesh, tensor, alpha * np.eye(3), cs, pt)
        assert eff[0, 0] == pytest.approx(eff[1, 1], rel=1e-9)
        assert abs(eff[0, 1]) < 1e-9 * abs(eff[0, 0])
        # the pre-stress acts in plane: no bending coupling
        scale = np.abs(pt.matrix("a")).max() * alpha
        assert np.abs(info["bending_coupling_rhs"]).max() < 1e-9 * scale

    def test_printed_variant_reported(self, solid_setup, tensor):
        mesh, cs, pt = solid_setup
        _, eff, info = solve_prestress(mesh, tensor, M11, cs, pt)
        printed = info["effective_prestrain_printed"]
        assert info["consistent_vs_printed"] > 1e-3
        assert printed.shape == (2, 2)


class TestSerialization:
    def test_json_roundtrip(self, weave_setup):
        _, _, pt = weave_setup
        text = tensors_to_json(pt, {"note": 1})
        back = tensors_from_json(text)
        assert np.abs(back.a_hom - pt.a_hom).max() == 0.0
        assert np.abs(back.c_hom - pt.c_hom).max() == 0.0
        assert back.cell_volume == pt.cell_volume

    def test_json_deterministic(self, weave_setup):
        _, _, pt = weave_setup
        assert tensors_to_json(pt) == tensors_to_json(pt)

    def test_convention_fields(self, weave_setup):
        import json

        _, _, pt = weave_setup
        doc = json.loads(tensors_to_json(pt))
        assert doc["voigt_convention"] == "tensor"
        assert doc["ordering"] == ["11", "22", "12"]
