"""Output checks against properties the method must have.

Every check takes parsed program outputs and the benchmark's own inputs,
recomputes what it needs, and returns (name, ok, detail). None of them
compares with stored copies of earlier outputs.

3x3 matrices follow `tensors.json`: index order [11, 22, 12], tensor (not
engineering) shear, so M:T:M = m^T W T W m with W = diag(1, 1, 2).
"""
import math

import numpy as np

W_SHEAR = np.diag([1.0, 1.0, 2.0])


def _result(name, ok, detail):
    return (name, bool(ok), detail)


def in_plane_stiffness(E, nu):
    """In-plane block of the isotropic 3D stiffness, tensor convention."""
    lam = E * nu / ((1 + nu) * (1 - 2 * nu))
    mu = E / (2 * (1 + nu))
    return np.array([[lam + 2 * mu, lam, 0.0], [lam, lam + 2 * mu, 0.0], [0.0, 0.0, mu]])


def check_orthotropy(doc, tol=1e-6):
    A, B, C = (np.array(doc[k], dtype=float) for k in ("a_hom", "b_hom", "c_hom"))
    na, nc = np.linalg.norm(A), np.linalg.norm(C)
    residuals = {
        "b_zero": np.abs(B).max() / na,
        "a11_eq_a22": abs(A[0, 0] - A[1, 1]) / na,
        "a1112_zero": abs(A[0, 2]) / na,
        "a2212_zero": abs(A[1, 2]) / na,
        "c11_eq_c22": abs(C[0, 0] - C[1, 1]) / nc,
        "c1112_zero": abs(C[0, 2]) / nc,
        "c2212_zero": abs(C[1, 2]) / nc,
    }
    worst = max(residuals, key=residuals.get)
    return _result(
        "homog.orthotropy",
        residuals[worst] <= tol,
        f"worst {worst} {residuals[worst]:.3e} (tol {tol:g})",
    )


def check_spd(doc):
    worst = math.inf
    for key in ("a_hom", "c_hom"):
        T = np.array(doc[key], dtype=float)
        asym = np.abs(T - T.T).max() / np.linalg.norm(T)
        if asym > 1e-12:
            return _result("homog.spd", False, f"{key} not symmetric ({asym:.3e})")
        worst = min(worst, float(np.linalg.eigvalsh(T).min() / np.linalg.norm(T)))
    return _result("homog.spd", worst > 0, f"smallest relative eigenvalue {worst:.3e}")


def check_voigt_bounds(doc, E, nu, kappa, tol=1e-9):
    """M:A:M <= a M:M and M:C:M <= (2 kappa)^2 a M:M for every in-plane M.

    A corrector of zero is admissible, and the cell spans |y3| <= 2 kappa,
    so both bounds follow from the minimum principle of the cell problems.
    """
    a = in_plane_stiffness(E, nu)
    A = np.array(doc["a_hom"], dtype=float)
    C = np.array(doc["c_hom"], dtype=float)
    gap_a = float(np.linalg.eigvalsh(a - A).min()) / np.linalg.norm(a)
    gap_c = float(np.linalg.eigvalsh((2 * kappa) ** 2 * a - C).min()) / np.linalg.norm(
        (2 * kappa) ** 2 * a
    )
    ok = gap_a >= -tol and gap_c >= -tol
    return _result(
        "homog.voigt_bounds", ok, f"min eig of (a - A) {gap_a:.3e}, of ((2k)^2 a - C) {gap_c:.3e}"
    )


def check_galerkin(doc):
    """Energy form and single-corrector form of A agree to the CG tolerance."""
    A = np.array(doc["a_hom"], dtype=float)
    diag = doc["diagnostics"]
    a_lin = np.array(diag["a_linear_form"], dtype=float)
    bound = 10.0 * float(diag["cg_tol"]) * np.linalg.norm(A)
    defect = float(np.abs(A - a_lin).max())
    return _result("homog.galerkin", defect <= bound, f"defect {defect:.3e} <= {bound:.3e}")


def check_prestrain_passthrough(rows, samples, tol=1e-6):
    """Each effective pre-strain row equals its sample's in-plane strain.

    rows: (x1, x2, E11, E22, E12) from effective_prestrain.csv
    samples: (x1, x2, e11, e22, e12) as written to prestress.csv
    """
    if len(rows) != len(samples):
        return _result(
            "homog.prestrain_passthrough", False, f"{len(rows)} rows for {len(samples)} samples"
        )
    worst = 0.0
    for row, sample in zip(rows, samples):
        if row[:2] != sample[:2]:
            return _result("homog.prestrain_passthrough", False, f"row at {row[:2]} != {sample[:2]}")
        scale = max(abs(v) for v in sample[2:])
        worst = max(worst, max(abs(r - s) for r, s in zip(row[2:], sample[2:])) / scale)
    return _result("homog.prestrain_passthrough", worst <= tol, f"worst relative {worst:.3e}")


def buckling_bounds(doc, L):
    """(necessary, test-mode) critical strain bounds from the plate tensors."""
    a11 = float(doc["a_hom"][0][0])
    c11 = float(doc["c_hom"][0][0])
    necessary = math.pi**2 * c11 / (2 * L**2 * a11)
    test_mode = math.pi**2 * (3 * a11 + 16 * c11) / (8 * a11 * L**2)
    return necessary, test_mode


def check_bracket(summary, doc, L):
    lo, hi = buckling_bounds(doc, L)
    crit = summary.get("e_star_critical")
    ok = crit is not None and lo <= crit <= hi
    return _result("buckle.bracket", ok, f"e*_c {crit} in [{lo:.6g}, {hi:.6g}]")


def check_best_below_flat(rows):
    bad = [r["e_star"] for r in rows if not r["energy_best"] <= r["energy_flat"]]
    return _result("buckle.best_below_flat", not bad, f"violations at e* {bad}")


def check_flat_quadratic(rows, tol=1e-8):
    """The flat branch is linear in e*, so its energy over e*^2 is constant."""
    ratios = [r["energy_flat"] / r["e_star"] ** 2 for r in rows]
    spread = (max(ratios) - min(ratios)) / abs(np.median(ratios))
    return _result("buckle.flat_quadratic", len(rows) >= 2 and spread <= tol,
                   f"relative spread {spread:.3e} over {len(rows)} rows")


def check_rows_match_onset(rows, summary, resolution=0.01):
    """Rows below the bisected onset are flat and rows above it buckled.

    Rows within the bisection's stopping width of the onset are skipped.
    """
    crit = summary.get("e_star_critical")
    if crit is None:
        return _result("buckle.rows_match_onset", False, "no critical strain")
    wrong = []
    for r in rows:
        if abs(r["e_star"] - crit) <= resolution * crit:
            continue
        expected = "buckled" if r["e_star"] > crit else "flat"
        if r["branch"] != expected:
            wrong.append((r["e_star"], r["branch"]))
    return _result("buckle.rows_match_onset", not wrong, f"mismatches {wrong}")


def check_galerkin_monotone(e_fine, e_coarse):
    """Nested spaces: the finer linear energy is at or below the coarser."""
    return _result("plate.galerkin_monotone", e_fine <= e_coarse,
                   f"E_lin fine {e_fine:.12e} <= coarse {e_coarse:.12e}")


def check_vk_above_linear(e_vk, e_lin):
    """With b = 0 and no in-plane force the membrane term only adds energy."""
    return _result("plate.vk_above_linear", e_vk >= e_lin,
                   f"E_vk {e_vk:.12e} >= E_lin {e_lin:.12e}")


def check_vk_negative(e_vk):
    return _result("plate.vk_negative", e_vk < 0, f"E_vk {e_vk:.6e}")


def check_trace_monotone(trace):
    rises = [i for i, (a, b) in enumerate(zip(trace, trace[1:])) if b > a]
    return _result("plate.trace_monotone", len(trace) >= 1 and not rises,
                   f"{len(trace)} entries, rises at {rises}")


def _distances(results):
    ordered = sorted(results, key=lambda r: r["n_periods"])
    return [r["n_periods"] for r in ordered], [abs(r["ratio"] - 1.0) for r in ordered]


def check_ratio_trend(results):
    ns, dist = _distances(results)
    ok = len(dist) >= 2 and all(b < a for a, b in zip(dist, dist[1:]))
    return _result("verify.ratio_trend", ok, f"|ratio-1| {dist} for n {ns}")


def check_ratio_bound(results, bound=0.1):
    ns, dist = _distances(results)
    return _result("verify.ratio_bound", dist[-1] < bound,
                   f"|ratio-1| {dist[-1]:.4g} at n={ns[-1]} < {bound}")


def check_energy_negative(results):
    bad = [r["n_periods"] for r in results if not r["m_eps"] < 0]
    return _result("verify.energy_negative", not bad, f"m_eps >= 0 at n {bad}")
