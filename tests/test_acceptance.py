"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines; every tolerance is pinned here, nothing is calibrated at
run time.
"""
import json
import time

import numpy as np
import pytest

from textileplate import buckling as bk
from textileplate import plate as pl
from textileplate.cli import main
from textileplate.elasticity import ElasticTensor, isotropic_tensor
from textileplate.geometry import WeaveParams, build_cell_mesh, build_solid_cell_mesh
from textileplate.homogenize import (
    M11,
    M22,
    check_orthotropy,
    compute_plate_tensors,
    corrector_symmetry_report,
    solve_cell_problems,
    solve_prestress,
)

from test_plate import isotropic_plate_tensors, mms_bending_rate

E_MOD, NU = 1.0, 0.3
A_PS = E_MOD / (1 - NU**2)
CG_TOL = 1e-10


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status} {detail}", flush=True)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def iso_tensor():
    return ElasticTensor.from_young_poisson(E_MOD, NU)


@pytest.fixture(scope="module")
def weave(iso_tensor):
    mesh = build_cell_mesh(WeaveParams(kappa=0.1, resolution=(8, 2, 2)))
    t0 = time.perf_counter()
    correctors = solve_cell_problems(mesh, iso_tensor, cg_tol=CG_TOL)
    tensors = compute_plate_tensors(correctors, iso_tensor)
    return mesh, correctors, tensors, time.perf_counter() - t0


def test_criterion_01_plane_stress_oracle(iso_tensor):
    t0 = time.perf_counter()
    results = {}
    for grid, tol in (((8, 8, 4), 0.01), ((16, 16, 8), 0.002)):
        mesh = build_solid_cell_mesh(WeaveParams(kappa=0.1), grid=grid)
        cs = solve_cell_problems(mesh, iso_tensor, cg_tol=CG_TOL)
        pt = compute_plate_tensors(cs, iso_tensor)
        A, C = pt.matrix("a"), pt.matrix("c")
        errs = (
            abs(A[0, 0] - A_PS) / A_PS,
            abs(A[0, 1] - NU * A_PS) / (NU * A_PS),
            abs(C[0, 0] - 4 * 0.01 / 3 * A_PS) / (4 * 0.01 / 3 * A_PS),
        )
        results[grid] = (max(errs) <= tol, max(errs), np.abs(pt.b_hom).max())
    runtime = time.perf_counter() - t0
    ok = all(r[0] for r in results.values())
    ok = ok and all(r[2] <= 1e-9 for r in results.values())
    ok = ok and runtime < 60.0
    detail = "; ".join(
        f"{g}: rel {r[1]:.2e}, |b| {r[2]:.1e}" for g, r in results.items()
    ) + f"; {runtime:.1f}s"
    report(1, "plane-stress-oracle", ok, detail)


def test_criterion_02_orthotropy(weave):
    _, _, tensors, runtime = weave
    rep = check_orthotropy(tensors, tol=1e-6)
    worst = max(v for _, v in rep.values())
    ok = all(okay for okay, _ in rep.values()) and runtime < 600.0
    report(2, "orthotropy-identities", ok, f"worst residual {worst:.2e}; {runtime:.1f}s")


def test_criterion_03_corrector_symmetries(weave, iso_tensor):
    mesh, correctors, _, _ = weave
    rep = corrector_symmetry_report(correctors, tol=1e-6)
    worst = max(v for _, v in rep.values())
    ok = all(okay for okay, _ in rep.values())
    # negative control: an in-plane anisotropic material must break the
    # swap and quarter-turn relations
    aniso = isotropic_tensor(*__import__(
        "textileplate.elasticity", fromlist=["lame_from_young_poisson"]
    ).lame_from_young_poisson(E_MOD, NU))
    aniso[0, 0, 0, 0] += 1.0
    cs_bad = solve_cell_problems(mesh, ElasticTensor({"default": aniso}),
                                 cg_tol=CG_TOL)
    rep_bad = corrector_symmetry_report(cs_bad, tol=1e-6)
    broken = (
        rep_bad["swap_flip_bending:chi_b_11->chi_b_22"][1] > 1e-4
        and rep_bad["quarter_turn_bending:chi_b_11->chi_b_22"][1] > 1e-4
    )
    ok = ok and broken
    report(3, "corrector-symmetries", ok,
           f"worst {worst:.2e}; negative control broke swap/turn: {broken}")


def test_criterion_04_galerkin_consistency(weave):
    _, correctors, tensors, _ = weave
    tol_a = 10 * correctors.cg_tol * np.linalg.norm(tensors.matrix("a"))
    tol_c = 10 * correctors.cg_tol * np.linalg.norm(tensors.matrix("c"))
    da = tensors.diagnostics["galerkin_defect_a"]
    dc = tensors.diagnostics["galerkin_defect_c"]
    ok = da <= tol_a and dc <= tol_c
    report(4, "galerkin-orthogonality", ok,
           f"defect a {da:.2e} <= {tol_a:.2e}, c {dc:.2e} <= {tol_c:.2e}")


def test_criterion_05_vk_derivatives():
    tensors = isotropic_plate_tensors()
    mesh = pl.PlateMesh(8, 8, 1.0)
    load = pl.LoadSpec(
        f=np.array([0.1, -0.2, 0.3]),
        pre_strain=np.array([[0.01, 0.002], [0.002, -0.005]]),
    )
    op = pl.PlateOperator(mesh, tensors, load)
    rng = np.random.default_rng(2024)
    h = 1e-5
    worst_g, worst_h = 0.0, 0.0
    for _ in range(10):
        u = 0.1 * rng.standard_normal(mesh.ndof)
        d = rng.standard_normal(mesh.ndof)
        d /= np.linalg.norm(d)
        fd = (op.energy(u + h * d) - op.energy(u - h * d)) / (2 * h)
        worst_g = max(worst_g, abs(op.gradient(u) @ d - fd) / abs(fd))
        fdg = (op.gradient(u + h * d) - op.gradient(u - h * d)) / (2 * h)
        Hv = op.hessian(u) @ d
        worst_h = max(worst_h, np.linalg.norm(Hv - fdg) / np.linalg.norm(fdg))
    ok = worst_g <= 1e-6 and worst_h <= 1e-5
    report(5, "vk-gradient-hessian-fd", ok,
           f"gradient {worst_g:.2e} <= 1e-6, hessian-vector {worst_h:.2e} <= 1e-5")


def test_criterion_06_linear_plate_mms():
    t0 = time.perf_counter()
    rate, errors = mms_bending_rate(isotropic_plate_tensors(), grids=(8, 16, 32))
    runtime = time.perf_counter() - t0
    ok = rate >= 2.0 and runtime < 60.0
    report(6, "linear-plate-mms", ok, f"rate {rate:.4f}; {runtime:.1f}s")


def test_criterion_07_1d_buckling():
    ec = bk.find_critical_1d(1.0, 1.0, np.pi, n_elements=64, rel_tol=0.002)
    pinned_ok = abs(ec - 2.0) / 2.0 <= 0.02 and 0.5 <= ec <= 2.375
    rng = np.random.default_rng(42)
    brackets_ok = True
    for _ in range(20):
        a = 10 ** rng.uniform(-1, 1)
        c = 10 ** rng.uniform(-1, 1)
        L = rng.uniform(1, 10)
        nec, tm = bk.analytic_thresholds(bk.CompressionCase(0.0, L, a, c))
        eci = bk.find_critical_1d(a, c, L, n_elements=48, rel_tol=0.01)
        brackets_ok = brackets_ok and (nec <= eci <= tm)
    ok = pinned_ok and brackets_ok
    report(7, "1d-buckling-critical-strain", ok,
           f"e*_c {ec:.4f} (oracle 2.000), 20 random brackets: {brackets_ok}")


def test_criterion_08_test_mode_identity():
    a, c, L = 2.3, 0.4, 1.7
    beam = bk.ReducedBeam(bk.CompressionCase(0.0, L, a, c), 400)
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
    rel = abs(root_quad - printed) / printed
    ok = rel <= 1e-8
    report(8, "test-mode-threshold-identity", ok,
           f"quadrature root {root_quad:.10f} vs printed {printed:.10f} (rel {rel:.1e})")


def test_criterion_09_2d_buckling_sweep(weave):
    _, _, tensors, _ = weave
    L = 1.0
    case0 = bk.CompressionCase.from_tensors(0.0, L, tensors)
    nec, tm = bk.analytic_thresholds(case0)
    details = []

    # below the necessary bound: flat from all starts
    mesh16 = pl.PlateMesh(16, 16, L)
    bc = pl.Compression(0.5 * nec)
    flat, _ = pl.solve_linear(mesh16, tensors, pl.LoadSpec(), bc, return_energy=True)
    best = pl.minimize_vk(flat, tensors, pl.LoadSpec(), bc)
    below_ok = best.max_abs_w() <= 1e-9 * L
    details.append(f"below: |u3| {best.max_abs_w():.1e}")

    # above the test-mode bound: strictly lower buckled branch
    bc = pl.Compression(1.05 * tm)
    flat, e_flat = pl.solve_linear(mesh16, tensors, pl.LoadSpec(), bc, return_energy=True)
    best = pl.minimize_vk(flat, tensors, pl.LoadSpec(), bc)
    above_ok = best.energy < e_flat - 1e-9 * abs(e_flat) and best.max_abs_w() > 1e-6 * L
    details.append(f"above: dE {best.energy - e_flat:.2e}")

    # critical strain stable between the two plate grids
    crits = {}
    for n in (16, 32):
        _, summary = bk.sweep_buckling_2d(
            tensors, L, [0.5 * nec, 1.05 * tm], nx=n, ny=n
        )
        crits[n] = summary["e_star_critical"]
    drift = abs(crits[16] - crits[32]) / crits[32]
    details.append(f"e*_c 16^2 {crits[16]:.4f} vs 32^2 {crits[32]:.4f} (drift {drift:.2%})")
    ok = below_ok and above_ok and drift <= 0.05
    report(9, "2d-buckling-sweep", ok, "; ".join(details))


def test_criterion_10_prestrain_pass_through(iso_tensor):
    mesh = build_solid_cell_mesh(WeaveParams(kappa=0.1), grid=(8, 8, 4))
    cs = solve_cell_problems(mesh, iso_tensor, cg_tol=CG_TOL)
    pt = compute_plate_tensors(cs, iso_tensor)
    worst = 0.0
    for M, expect in ((M11, np.diag([1.0, 0.0])), (M22, np.diag([0.0, 1.0]))):
        eff, _ = solve_prestress(cs, pt, iso_tensor, M)
        worst = max(worst, np.abs(eff - expect).max())
    eff0, _ = solve_prestress(cs, pt, iso_tensor, np.zeros((3, 3)))
    zero_ok = np.abs(eff0).max() == 0.0
    ok = worst <= 1e-6 and zero_ok
    report(10, "prestrain-pass-through", ok,
           f"unit strains within {worst:.2e}; zero maps to exactly 0: {zero_ok}")


def test_criterion_11_homogenization_limit_trend(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(
        "geometry.kappa = 0.1\n"
        "geometry.L = 1.0\n"
        "geometry.resolution = 8,2,2\n"
        "material.model = isotropic\n"
        "material.E = 1.0\n"
        "material.nu = 0.3\n"
        "plate.nx = 32\n"
        "plate.ny = 32\n"
        "plate.f = 1,0,1\n"
        "verify.n_periods = 2,4\n"
        "solver.cg_tol = 1e-9\n"
    )
    out = tmp_path / "verify_out"
    rc = main(["verify", "--config", str(cfg), "--out", str(out)])
    runtime = time.perf_counter() - t0
    doc = json.loads((out / "verify.json").read_text())
    dist = [abs(r["ratio"] - 1.0) for r in doc["results"]]
    ok = rc == 0 and doc["trend_decreasing"] and len(dist) == 2 and runtime < 1800.0
    report(11, "homogenization-limit-trend", ok,
           f"|ratio-1|: n=2 {dist[0]:.4f} -> n=4 {dist[1]:.4f}; {runtime:.0f}s")


def test_criterion_12_determinism(tmp_path):
    base = (
        "geometry.kappa = 0.1\n"
        "geometry.epsilon = 0.25\n"
        "geometry.L = 1.0\n"
        "geometry.n_periods = 2\n"
        "geometry.resolution = 8,2,2\n"
        "material.model = isotropic\n"
        "material.E = 1.0\n"
        "material.nu = 0.3\n"
        "plate.nx = 8\n"
        "plate.ny = 8\n"
        "plate.f = 0,0,1\n"
        "buckling.e_star_min = 0.05\n"
        "buckling.e_star_max = 4.2\n"
        "buckling.n_points = 2\n"
        "verify.n_periods = 1\n"
        "solver.cg_tol = 1e-8\n"
    )
    cfg = tmp_path / "det.cfg"
    cfg.write_text(base)
    products = {
        "geom": ["cell.vtk", "geom_report.txt"],
        "homog": ["tensors.json", "correctors.vtk"],
        "plate": ["plate.json", "plate.vtk", "profile.csv"],
        "buckle": ["buckle.csv", "buckle_summary.json"],
        "verify": ["verify.json"],
    }
    mismatches = []
    for command, files in products.items():
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}_{tag}"
            args = [command, "--config", str(cfg), "--out", str(out)]
            if command in ("plate", "buckle"):
                args.append("--solid-cell")
            assert main(args) == 0
            outs.append(out)
        for name in files:
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                mismatches.append(f"{command}/{name}")
    ok = not mismatches
    report(12, "determinism", ok,
           "bitwise identical" if ok else f"mismatch: {mismatches}")
