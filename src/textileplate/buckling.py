"""Uniaxial-compression stability study of the homogenized plate.

A compressive strain e* is imposed through affine Dirichlet data realized
by the in-plane lift U = e*(L/2 - x1) e1. The 1D lab minimizes the reduced
deflection functional

    J(V) = L/2 * int_0^L [ a (e*^2 - 2 e* V'^2 + V'^4) + c V''^2 ] dx1

over clamped cubic Hermite beams (this is the membrane measure without the
1/2 on the quadratic gradient term, so the closed-form threshold integrals
of the sin^2 test mode come out exactly); the 2D sweep drives the full
von Karman plate, whose membrane measure carries the 1/2. Output rows are
labeled with the convention they use.
"""
import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, SolverError
from .plate import (
    Compression,
    LoadSpec,
    PlateMesh,
    PlateState,
    hermite_1d,
    minimize_vk,
    solve_linear,
    _newton,
    _perturbation_mode,
)

GAUSS5 = (
    0.5 * (1.0 + np.array([-0.9061798459386640, -0.5384693101056831, 0.0,
                           0.5384693101056831, 0.9061798459386640])),
    0.5 * np.array([0.2369268850561891, 0.4786286704993665, 0.5688888888888889,
                    0.4786286704993665, 0.2369268850561891]),
)


@dataclass
class CompressionCase:
    """Imposed strain e*, plate side L and the two stiffness scalars."""

    e_star: float
    L: float
    a11: float
    c11: float
    tensors: object = None

    def __post_init__(self):
        if self.e_star < 0:
            raise ParameterError("compressive strain e_star must be >= 0")
        if self.a11 <= 0 or self.c11 <= 0 or self.L <= 0:
            raise ParameterError("a11, c11 and L must be positive")

    @classmethod
    def from_tensors(cls, e_star, L, tensors):
        A = tensors.matrix("a")
        C = tensors.matrix("c")
        return cls(e_star=e_star, L=L, a11=A[0, 0], c11=C[0, 0], tensors=tensors)


def lift_displacement(case, mesh):
    """Affine in-plane state carrying the compression boundary data."""
    state = PlateState(mesh)
    state.u[0::6] = case.e_star * (case.L / 2.0 - mesh.nodes[:, 0])
    return state


def analytic_thresholds(case):
    """(necessary, test-mode sufficient) compressive strain bounds.

    necessary : below it the flat branch is stable against every clamped
        deflection (Poincare bound)
    test-mode : above it the sin^2 deflection beats the unrelaxed flat
        energy, so buckling certainly occurs
    """
    a, c, L = case.a11, case.c11, case.L
    necessary = np.pi**2 * c / (2.0 * L**2 * a)
    test_mode = np.pi**2 * (3.0 * a + 16.0 * c) / (8.0 * a * L**2)
    return necessary, test_mode


def flat_energy(case):
    """Reduced-functional energy of the flat branch (no in-plane relaxation)."""
    return 0.5 * case.a11 * case.L**2 * case.e_star**2


def test_mode_energy(case):
    """Closed-form reduced energy of the sin^2(pi x/L) test deflection."""
    a, c, L, es = case.a11, case.c11, case.L, case.e_star
    int_dp2 = np.pi**2 / (2.0 * L)
    int_dp4 = 3.0 * np.pi**4 / (8.0 * L**3)
    int_ddp2 = 2.0 * np.pi**4 / L**3
    return 0.5 * L * (a * (es**2 * L - 2.0 * es * int_dp2 + int_dp4) + c * int_ddp2)


class ReducedBeam:
    """Clamped Hermite-cubic discretization of the reduced 1D functional."""

    def __init__(self, case, n_elements):
        if n_elements < 8:
            raise ParameterError("reduced solver needs at least 8 elements")
        self.case = case
        self.h = case.L / n_elements
        self.x = np.linspace(0.0, case.L, n_elements + 1)
        self.ndof = 2 * (n_elements + 1)
        t, w = GAUSS5
        # rows: dof order per element (v0, v0', v1, v1')
        _, self.B1, self.B2 = hermite_1d(t, self.h)
        self.wq = w * self.h
        free = np.ones(self.ndof, dtype=bool)
        free[[0, 1, -2, -1]] = False  # clamped ends: v = v' = 0
        self.free = free
        self.edof = np.array(
            [[2 * e, 2 * e + 1, 2 * e + 2, 2 * e + 3] for e in range(n_elements)]
        )

    def derivatives(self, u):
        ue = u[self.edof]  # (ne, 4)
        vp = ue @ self.B1.T  # (ne, nq)
        vpp = ue @ self.B2.T
        return vp, vpp

    def energy(self, u):
        a, c, es, L = self.case.a11, self.case.c11, self.case.e_star, self.case.L
        vp, vpp = self.derivatives(u)
        dens = a * (es**2 - 2.0 * es * vp**2 + vp**4) + c * vpp**2
        return 0.5 * L * float(np.einsum("eq,q->", dens, self.wq))

    def gradient(self, u):
        a, c, es, L = self.case.a11, self.case.c11, self.case.e_star, self.case.L
        vp, vpp = self.derivatives(u)
        s1 = a * (-4.0 * es * vp + 4.0 * vp**3)
        s2 = 2.0 * c * vpp
        ge = np.einsum("eq,qi,q->ei", s1, self.B1, self.wq)
        ge += np.einsum("eq,qi,q->ei", s2, self.B2, self.wq)
        g = np.zeros(self.ndof)
        np.add.at(g, self.edof, 0.5 * L * ge)
        return g

    def hessian(self, u):
        a, c, es, L = self.case.a11, self.case.c11, self.case.e_star, self.case.L
        vp, _ = self.derivatives(u)
        d1 = a * (-4.0 * es + 12.0 * vp**2)
        he = np.einsum("eq,qi,qj,q->eij", d1, self.B1, self.B1, self.wq)
        he += 2.0 * c * np.einsum("qi,qj,q->ij", self.B2, self.B2, self.wq)[None]
        edof = self.edof
        rows = np.repeat(edof, 4, axis=1).ravel()
        cols = np.tile(edof, (1, 4)).ravel()
        H = sp.coo_matrix(
            ((0.5 * L * he).ravel(), (rows, cols)), shape=(self.ndof,) * 2
        )
        return H.tocsr()

    def interpolate(self, fn, dfn):
        u = np.zeros(self.ndof)
        u[0::2] = fn(self.x)
        u[1::2] = dfn(self.x)
        return u


@dataclass
class Reduced1DResult:
    x: np.ndarray
    v: np.ndarray
    v_prime: np.ndarray
    energy: float
    is_buckled: bool
    flat_energy: float
    dofs: np.ndarray = None
    beam: object = None


def reduced_1d_solve(case, n_elements=64, newton_tol=1e-10):
    """Minimize the reduced deflection functional; multi-start (flat, sin^2).

    The buckled flag compares the best energy against the flat branch with
    a 1e-12 relative slack.
    """
    beam = ReducedBeam(case, n_elements)
    e_flat = flat_energy(case)
    L, a, c = case.L, case.a11, case.c11
    # supercritical pitchfork amplitude estimate for the sin^2 seed
    crit = 2.0 * np.pi**2 * c / (a * L**2)
    s_opt = max(4.0 * L**2 / (3.0 * np.pi**2) * (case.e_star - crit), 0.0)
    amp = np.sqrt(s_opt) if s_opt > 0 else 1e-3 * L

    def seed(x):
        return amp * np.sin(np.pi * x / L) ** 2

    def dseed(x):
        return amp * np.pi / L * np.sin(2.0 * np.pi * x / L)

    candidates = []
    for u0 in (np.zeros(beam.ndof), beam.interpolate(seed, dseed)):
        u, energy, _ = _newton(beam, u0, beam.free, newton_tol)
        candidates.append((energy, u))
    energy, u = min(candidates, key=lambda t: t[0])
    slack = 1e-12 * (1.0 + abs(e_flat))
    buckled = energy < e_flat - slack
    if not buckled:
        energy, u = candidates[0]
    return Reduced1DResult(
        x=beam.x,
        v=u[0::2],
        v_prime=u[1::2],
        energy=energy,
        is_buckled=buckled,
        flat_energy=e_flat,
        dofs=u,
        beam=beam,
    )


def find_critical_1d(a11, c11, L, n_elements=64, rel_tol=0.005, bracket=None):
    """Bisection on the buckling flag of the reduced functional."""
    probe = CompressionCase(e_star=0.0, L=L, a11=a11, c11=c11)
    necessary, test_mode = analytic_thresholds(probe)
    lo, hi = bracket if bracket else (0.05 * necessary, 1.5 * test_mode)

    def buckled(es):
        case = CompressionCase(e_star=es, L=L, a11=a11, c11=c11)
        return reduced_1d_solve(case, n_elements).is_buckled

    if buckled(lo):
        raise SolverError(f"bisection bracket invalid: buckled at e*={lo}")
    if not buckled(hi):
        raise SolverError(f"bisection bracket invalid: flat at e*={hi}")
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if buckled(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def poincare_check(result):
    """Quadrature values (int v'^2, L^2/(2 pi)^2 int v''^2) of a 1D state."""
    beam = result.beam
    vp, vpp = beam.derivatives(result.dofs)
    ip = float(np.einsum("eq,q->", vp**2, beam.wq))
    ipp = float(np.einsum("eq,q->", vpp**2, beam.wq))
    return ip, beam.case.L**2 / (2.0 * np.pi) ** 2 * ipp


def sweep_buckling_2d(tensors, L, e_star_values, nx=16, ny=16, newton_tol=1e-9,
                      detect_rel=1e-6, csv_path=None):
    """Drive the 2D plate across a compressive strain range.

    For every e* the flat (in-plane, linear) branch and the full nonlinear
    minimizer are computed; a point is buckled when max|W| > detect_rel*L
    and its energy lies below the flat branch, in the rows and in the
    bisection alike.
    The critical strain is located by bisection inside the given range and
    compared against the analytic bounds (violations are reported in the
    summary, never clipped). All rows carry the membrane convention label
    of the 2D energy ("half").
    """
    mesh = PlateMesh(nx, ny, L)
    case0 = CompressionCase.from_tensors(0.0, L, tensors)
    necessary, test_mode = analytic_thresholds(case0)
    unconverged = 0

    def run_point(es):
        nonlocal unconverged
        bc = Compression(es)
        flat_state, e_flat = solve_linear(
            mesh, tensors, LoadSpec(), bc, return_energy=True
        )
        crit_half = 4.0 * np.pi**2 * case0.c11 / (case0.a11 * L**2)
        s_opt = max(8.0 * L**2 / (3.0 * np.pi**2) * (es - crit_half), 0.0)
        extra = []
        if s_opt > 0:
            seeded = flat_state.u + _perturbation_mode(mesh, bc, np.sqrt(s_opt))
            extra.append(PlateState(mesh, seeded))
        best = minimize_vk(
            flat_state, tensors, LoadSpec(), bc, newton_tol=newton_tol,
            extra_starts=extra,
        )
        unconverged += best.saddle_checks_unconverged
        return e_flat, best

    def is_buckled(best, e_flat):
        return (best.max_abs_w() > detect_rel * L
                and best.energy < e_flat - 1e-12 * (1 + abs(e_flat)))

    rows = []
    for es in e_star_values:
        e_flat, best = run_point(es)
        u3 = best.max_abs_w()
        buck = is_buckled(best, e_flat)
        rows.append(
            dict(
                e_star=float(es),
                energy_flat=e_flat,
                energy_best=best.energy,
                u3_max=u3,
                branch="buckled" if buck else "flat",
                convention="half",
            )
        )

    # bisection for the onset inside the sweep range
    es_sorted = sorted(float(v) for v in e_star_values)
    lo, hi = es_sorted[0], es_sorted[-1]
    critical = None
    lo_buck = next((r["branch"] == "buckled" for r in rows if r["e_star"] == lo), False)
    hi_buck = next((r["branch"] == "buckled" for r in rows if r["e_star"] == hi), False)
    if not lo_buck and hi_buck:
        a, b = lo, hi
        while (b - a) > 0.01 * b:
            mid = 0.5 * (a + b)
            e_flat, best = run_point(mid)
            if is_buckled(best, e_flat):
                b = mid
            else:
                a = mid
        critical = 0.5 * (a + b)

    # C* from the flat branch at the largest strain, which a row already holds
    e_ref = max(es_sorted[-1], 1e-3)
    e_flat_ref = next((r["energy_flat"] for r in rows if r["e_star"] == e_ref), None)
    if e_flat_ref is None:
        _, e_flat_ref = solve_linear(
            mesh, tensors, LoadSpec(), Compression(e_ref), return_energy=True
        )
    c_star = e_flat_ref / e_ref**2

    bracket_violation = None
    if critical is not None and not (necessary <= critical <= test_mode):
        bracket_violation = (
            f"2D critical strain {critical:.6g} outside the 1D bounds "
            f"[{necessary:.6g}, {test_mode:.6g}]; the bounds constrain only "
            f"pure-deflection variations without in-plane relaxation"
        )
    summary = dict(
        e_star_critical=critical,
        necessary_bound=necessary,
        test_mode_bound=test_mode,
        C_star=c_star,
        bracket_violation=bracket_violation,
        grid=[nx, ny],
        convention="half",
        saddle_checks_unconverged=unconverged,
    )
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write("e_star,energy_flat,energy_best,u3_max,branch,convention\n")
            for r in rows:
                fh.write(
                    f"{r['e_star']:.17g},{r['energy_flat']:.17g},"
                    f"{r['energy_best']:.17g},{r['u3_max']:.17g},"
                    f"{r['branch']},{r['convention']}\n"
                )
    return rows, summary


def summary_to_json(summary):
    return json.dumps(summary, sort_keys=True, indent=2)
