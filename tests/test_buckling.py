import numpy as np
import pytest

from textileplate.buckling import (
    CompressionCase,
    ReducedBeam,
    analytic_thresholds,
    find_critical_1d,
    flat_energy,
    lift_displacement,
    poincare_check,
    reduced_1d_solve,
    sweep_buckling_2d,
)
from textileplate.buckling import test_mode_energy as sin2_mode_energy
from textileplate.errors import ParameterError
from textileplate.plate import LoadSpec, PlateMesh, PlateOperator

from test_plate import isotropic_plate_tensors


@pytest.fixture(scope="module")
def unit_case():
    return CompressionCase(e_star=0.0, L=np.pi, a11=1.0, c11=1.0)


class TestThresholds:
    def test_printed_values(self, unit_case):
        nec, tm = analytic_thresholds(unit_case)
        assert nec == pytest.approx(0.5, rel=1e-14)
        assert tm == pytest.approx(19.0 / 8.0, rel=1e-14)

    def test_scaling_with_length(self):
        base = analytic_thresholds(CompressionCase(0.0, 2.0, 3.0, 0.1))
        twice = analytic_thresholds(CompressionCase(0.0, 4.0, 3.0, 0.1))
        assert twice[0] == pytest.approx(base[0] / 4, rel=1e-14)
        assert twice[1] == pytest.approx(base[1] / 4, rel=1e-14)

    def test_zero_bending_limit(self):
        L = 2.0
        nec, tm = analytic_thresholds(CompressionCase(0.0, L, 1.0, 1e-12))
        assert nec == pytest.approx(0.0, abs=1e-11)
        assert tm == pytest.approx(3.0 / 8.0 * np.pi**2 / L**2, rel=1e-9)

    def test_invalid_case(self):
        with pytest.raises(ParameterError):
            CompressionCase(e_star=-0.1, L=1.0, a11=1.0, c11=1.0)
        with pytest.raises(ParameterError):
            CompressionCase(e_star=0.1, L=1.0, a11=-1.0, c11=1.0)


class TestLift:
    def test_zero_strain(self):
        mesh = PlateMesh(4, 4, 1.0)
        state = lift_displacement(CompressionCase(0.0, 1.0, 1.0, 1.0), mesh)
        assert np.abs(state.u).max() == 0.0

    def test_boundary_values(self):
        mesh = PlateMesh(6, 6, 1.0)
        state = lift_displacement(CompressionCase(0.01, 1.0, 1.0, 1.0), mesh)
        left = mesh.nodes[:, 0] == 0.0
        right = mesh.nodes[:, 0] == mesh.L
        assert np.allclose(state.u1[left], 0.005)
        assert np.allclose(state.u1[right], -0.005)
        assert np.abs(state.u2).max() == 0.0
        assert state.max_abs_w() == 0.0

    def test_constant_membrane_strain(self):
        mesh = PlateMesh(5, 5, 1.0)
        tensors = isotropic_plate_tensors()
        case = CompressionCase(0.01, 1.0, 1.0, 1.0)
        state = lift_displacement(case, mesh)
        op = PlateOperator(mesh, tensors, LoadSpec())
        _, z, _, _ = op._kinematics(state.u)
        assert np.abs(z[..., 0] + case.e_star).max() < 1e-14
        assert np.abs(z[..., 1]).max() < 1e-14
        assert np.abs(z[..., 2]).max() < 1e-14


class TestTestMode:
    def test_equality_at_threshold(self, unit_case):
        _, tm = analytic_thresholds(unit_case)
        case = CompressionCase(tm, np.pi, 1.0, 1.0)
        assert sin2_mode_energy(case) == pytest.approx(flat_energy(case), abs=1e-12)

    def test_positive_without_compression(self):
        case = CompressionCase(0.0, np.pi, 1.0, 1.0)
        assert sin2_mode_energy(case) > 0.0
        assert flat_energy(case) == 0.0

    def test_quadrature_agreement(self):
        case = CompressionCase(1.3, np.pi, 1.0, 1.0)
        beam = ReducedBeam(case, 1000)
        L = case.L
        u = beam.interpolate(
            lambda x: np.sin(np.pi * x / L) ** 2,
            lambda x: np.pi / L * np.sin(2 * np.pi * x / L),
        )
        assert beam.energy(u) == pytest.approx(sin2_mode_energy(case), rel=1e-8)

    def test_sign_flip_exactly_at_printed_threshold(self):
        # the quadrature-evaluated buckling inequality changes sign at the
        # closed-form strain within 1e-8
        a, c, L = 2.3, 0.4, 1.7
        case = CompressionCase(0.0, L, a, c)
        beam = ReducedBeam(case, 400)
        u = beam.interpolate(
            lambda x: np.sin(np.pi * x / L) ** 2,
            lambda x: np.pi / L * np.sin(2 * np.pi * x / L),
        )
        vp, vpp = beam.derivatives(u)
        int_dp2 = float(np.einsum("eq,q->", vp**2, beam.wq))
        int_dp4 = float(np.einsum("eq,q->", vp**4, beam.wq))
        int_ddp2 = float(np.einsum("eq,q->", vpp**2, beam.wq))
        root_quad = (a * int_dp4 + c * int_ddp2) / (2.0 * a * int_dp2)
        printed = np.pi**2 * (3 * a + 16 * c) / (8 * a * L**2)
        assert root_quad == pytest.approx(printed, rel=1e-8)


class TestReduced1D:
    def test_derivatives_match_finite_differences(self):
        case = CompressionCase(e_star=0.3, L=1.0, a11=1.2, c11=0.05)
        beam = ReducedBeam(case, 16)
        u = 0.05 * np.random.default_rng(0).standard_normal(beam.ndof)
        h = 1e-6
        steps = h * np.eye(beam.ndof)
        g_fd = np.array(
            [(beam.energy(u + d) - beam.energy(u - d)) / (2 * h) for d in steps]
        )
        H_fd = np.column_stack(
            [(beam.gradient(u + d) - beam.gradient(u - d)) / (2 * h) for d in steps]
        )
        g = beam.gradient(u)
        H = beam.hessian(u).toarray()
        assert np.abs(g - g_fd).max() <= 1e-6 * np.abs(g).max()
        assert np.abs(H - H_fd).max() <= 1e-6 * np.abs(H).max()
        assert np.array_equal(H, H.T)

    def test_flat_below_necessary(self, unit_case):
        nec, _ = analytic_thresholds(unit_case)
        case = CompressionCase(0.4 * nec, np.pi, 1.0, 1.0)
        res = reduced_1d_solve(case, 64)
        assert not res.is_buckled
        assert np.abs(res.v).max() == 0.0
        assert res.energy == pytest.approx(res.flat_energy, rel=1e-12)

    def test_critical_strain_oracle(self):
        ec = find_critical_1d(1.0, 1.0, np.pi, n_elements=64, rel_tol=0.002)
        assert ec == pytest.approx(2.0, rel=0.02)

    def test_mode_shape_correlation(self):
        case = CompressionCase(1.1 * 2.0, np.pi, 1.0, 1.0)
        res = reduced_1d_solve(case, 64)
        assert res.is_buckled
        mode = np.sin(np.pi * res.x / case.L) ** 2
        corr = abs(res.v @ mode) / (np.linalg.norm(res.v) * np.linalg.norm(mode))
        assert corr > 0.99

    def test_pitchfork_symmetry(self):
        case = CompressionCase(2.4, np.pi, 1.0, 1.0)
        res = reduced_1d_solve(case, 48)
        assert res.is_buckled
        assert res.beam.energy(-res.dofs) == pytest.approx(res.energy, rel=1e-12)

    def test_poincare_inequality(self):
        rng = np.random.default_rng(23)
        case = CompressionCase(1.0, 2.0, 1.0, 1.0)
        beam = ReducedBeam(case, 32)
        for _ in range(20):
            dofs = rng.standard_normal(beam.ndof)
            dofs[[0, 1, -2, -1]] = 0.0
            from textileplate.buckling import Reduced1DResult

            res = Reduced1DResult(
                x=beam.x, v=dofs[0::2], v_prime=dofs[1::2], energy=0.0,
                is_buckled=False, flat_energy=0.0, dofs=dofs, beam=beam,
            )
            grad_sq, bound = poincare_check(res)
            assert grad_sq <= bound + 1e-9 * max(bound, 1.0)

    def test_flat_energy_closed_form(self):
        case = CompressionCase(0.7, 1.9, 2.2, 0.3)
        beam = ReducedBeam(case, 32)
        assert beam.energy(np.zeros(beam.ndof)) == pytest.approx(
            0.5 * case.a11 * case.L**2 * case.e_star**2, rel=1e-12
        )

    def test_driver_runs_no_saddle_check(self, monkeypatch):
        from textileplate import plate

        def broken(*args, **kwargs):
            raise RuntimeError("saddle check called")

        monkeypatch.setattr(plate.spla, "eigsh", broken)
        assert reduced_1d_solve(CompressionCase(2.4, np.pi, 1.0, 1.0), 48).is_buckled
        ec = find_critical_1d(1.0, 1.0, np.pi, n_elements=48, rel_tol=0.01)
        assert ec == pytest.approx(2.0, rel=0.02)

    def test_bracketing_random_cases(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            a = 10 ** rng.uniform(-1, 1)
            c = 10 ** rng.uniform(-1, 1)
            L = rng.uniform(1, 10)
            nec, tm = analytic_thresholds(CompressionCase(0.0, L, a, c))
            ec = find_critical_1d(a, c, L, n_elements=48, rel_tol=0.01)
            assert nec <= ec <= tm
            oracle = 2 * np.pi**2 * c / (a * L**2)
            assert ec == pytest.approx(oracle, rel=0.05)


@pytest.fixture(scope="module")
def tensors():
    return isotropic_plate_tensors()


class TestSweep2D:
    def test_sweep_detects_branches(self, tensors, tmp_path):
        case0 = CompressionCase.from_tensors(0.0, 1.0, tensors)
        nec, tm = analytic_thresholds(case0)
        es = [0.5 * nec, 1.1 * tm]
        csv = tmp_path / "sweep.csv"
        rows, summary = sweep_buckling_2d(
            tensors, 1.0, es, nx=10, ny=10, csv_path=csv
        )
        assert rows[0]["branch"] == "flat"
        assert rows[0]["u3_max"] <= 1e-9
        assert rows[1]["branch"] == "buckled"
        assert rows[1]["energy_best"] < rows[1]["energy_flat"]
        assert summary["e_star_critical"] is not None
        assert nec <= summary["e_star_critical"] <= tm
        assert summary["bracket_violation"] is None
        assert summary["C_star"] > 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "e_star,energy_flat,energy_best,u3_max,branch,convention"
        assert len(lines) == 3
        assert all(line.endswith(",half") for line in lines[1:])
