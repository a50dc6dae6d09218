"""Batch driver: geometry, homogenization, plate, buckling and two-scale
verification pipelines.

Exit codes: 0 success, 2 configuration error, 3 geometry error, 4 solver
error, 5 acceptance-check failure. Data files never contain timestamps so
repeated runs are bitwise identical.
"""
import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import buckling as bk
from . import plate as pl
from .config import load_config
from .elasticity import BodyForceLoad, ConstraintMap, assemble, solve
from .errors import ConfigError, GeometryError, ParameterError, SolverError
from .geometry import build_cell_mesh, build_solid_cell_mesh, build_textile_mesh, check_cell_mesh
from .homogenize import (
    check_orthotropy,
    compute_plate_tensors,
    corrector_symmetry_report,
    prestress_corrector,
    solve_cell_problems,
    solve_prestress,
    tensors_from_json,
    tensors_to_json,
)
from .vtk_io import export_vtk


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _json_text(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def cmd_geom(cfg, args, out):
    params = cfg.weave_params()
    mesh = build_cell_mesh(params)
    report = check_cell_mesh(mesh)
    export_vtk(mesh, {}, out / "cell.vtk")
    lines = []
    all_ok = True
    for name, (ok, val) in report.items():
        lines.append(f"{name}: {'PASS' if ok else 'FAIL'} ({val:.3e})")
        all_ok = all_ok and ok
    if args.full:
        tex = build_textile_mesh(params)
        export_vtk(tex, {}, out / "textile.vtk")
        trep = check_cell_mesh(tex)
        for name, (ok, val) in trep.items():
            lines.append(f"textile.{name}: {'PASS' if ok else 'FAIL'} ({val:.3e})")
            all_ok = all_ok and ok
        lines.append(f"textile.n_hexes: {tex.n_hexes}")
    summary = "\n".join(lines)
    print(summary)
    _write(out / "geom_report.txt", summary + "\n")
    if not all_ok:
        raise GeometryError("mesh invariant check failed; see geom_report.txt")
    return 0


def _is_isotropic(cfg):
    return cfg.material_model in ("isotropic", "lame")


def _homogenize(cfg, args):
    params = cfg.weave_params()
    tensor = cfg.elastic_tensor()
    if args.solid_cell:
        mesh = build_solid_cell_mesh(params)
    else:
        mesh = build_cell_mesh(params)
    correctors = solve_cell_problems(mesh, tensor, cg_tol=cfg.cg_tol)
    tensors = compute_plate_tensors(correctors, tensor)
    return mesh, tensor, correctors, tensors


def _input_digest(cfg, args, tensor):
    """sha256 of exactly the inputs `_homogenize` reads: kappa, resolution,
    the stiffness table by content, cg_tol and --solid-cell."""
    h = hashlib.sha256()
    keys = [cfg.kappa, list(cfg.resolution), cfg.cg_tol, bool(args.solid_cell)]
    h.update(json.dumps(keys).encode())
    for tag in sorted(tensor.table, key=str):
        h.update(str(tag).encode())
        h.update(tensor.table[tag].tobytes())
    return h.hexdigest()


def cmd_homog(cfg, args, out):
    samples = cfg.prestrain_samples()
    mesh, tensor, correctors, tensors = _homogenize(cfg, args)
    isotropic = _is_isotropic(cfg)
    if isotropic:
        ortho = check_orthotropy(tensors, tol=args.tol)
        sym = corrector_symmetry_report(correctors, tol=args.tol) if mesh.kind == "cell" else {}
        symmetry_report = {
            "status": "checked",
            "orthotropy": {k: {"pass": ok, "residual": v} for k, (ok, v) in ortho.items()},
            "correctors": {k: {"pass": ok, "residual": v} for k, (ok, v) in sym.items()},
        }
    else:
        # the orthotropy identities assume isotropic homogeneous yarns
        symmetry_report = {"status": "not applicable (anisotropic material)"}
    doc_extra = {
        "symmetry_report": symmetry_report,
        "kappa": cfg.kappa,
        "mesh_kind": mesh.kind,
        "input_digest": _input_digest(cfg, args, tensor),
    }
    fields = correctors.fields()
    if cfg.prestress_e_star is not None:
        e_star = cfg.prestrain_matrix()
        eff, info = solve_prestress(correctors, tensors, tensor, e_star)
        chi_p, printed = prestress_corrector(correctors, tensors, tensor, e_star, cfg.cg_tol)
        fields = {**fields, "chi_p": chi_p}
        doc_extra["effective_prestrain"] = eff.tolist()
        doc_extra["effective_prestrain_printed_variant"] = printed.tolist()
        doc_extra["prestrain_bending_coupling"] = info["bending_coupling_rhs"].tolist()
    if samples is not None:
        lines = ["x1,x2,E11,E22,E12"]
        for x, e_star in samples:
            eff, _ = solve_prestress(correctors, tensors, tensor, e_star)
            lines.append(
                f"{x[0]:.17g},{x[1]:.17g},{eff[0, 0]:.17g},"
                f"{eff[1, 1]:.17g},{eff[0, 1]:.17g}"
            )
        _write(out / "effective_prestrain.csv", "\n".join(lines) + "\n")
    _write(out / "tensors.json", tensors_to_json(tensors, doc_extra) + "\n")
    export_vtk(mesh, fields, out / "correctors.vtk")
    print(f"cell volume {tensors.cell_volume:.6g}")
    print("a_hom[11,22,12]:")
    for row in tensors.matrix("a"):
        print("  " + " ".join(f"{v: .6e}" for v in row))
    if isotropic:
        bad = [k for k, (ok, _) in ortho.items() if not ok]
        for k, (ok, v) in ortho.items():
            print(f"orthotropy {k}: {'PASS' if ok else 'FAIL'} ({v:.2e})")
        if bad:
            print(f"orthotropy identities failed: {', '.join(bad)}", file=sys.stderr)
            return 5
    else:
        print("symmetry checks: not applicable (anisotropic material)")
    return 0


def _load_or_compute_tensors(cfg, args, out, tensors=None):
    """Reuse out/tensors.json only when its input digest matches this run;
    otherwise overwrite it with `tensors`, homogenizing when none are given."""
    path = out / "tensors.json"
    digest = _input_digest(cfg, args, cfg.elastic_tensor())
    if path.exists():
        text = path.read_text()
        if json.loads(text).get("input_digest") == digest:
            return tensors_from_json(text)
    if tensors is None:
        _, _, _, tensors = _homogenize(cfg, args)
    _write(path, tensors_to_json(tensors, {"input_digest": digest}) + "\n")
    return tensors


def cmd_plate(cfg, args, out):
    pre = fresh = None
    if cfg.prestress_e_star is not None:
        # the pre-strain needs the membrane correctors, which are not cached
        _, tensor, correctors, fresh = _homogenize(cfg, args)
        pre, _ = solve_prestress(correctors, fresh, tensor, cfg.prestrain_matrix())
    tensors = _load_or_compute_tensors(cfg, args, out, fresh)
    mesh = pl.PlateMesh(cfg.plate_nx, cfg.plate_ny, cfg.L)
    load = pl.LoadSpec(f=np.array(cfg.plate_f), pre_strain=pre)
    bc = pl.GammaClamped() if cfg.plate_bc == "gamma" else pl.Compression(cfg.compression_e_star)
    if cfg.plate_model == "linear":
        state, energy = pl.solve_linear(mesh, tensors, load, bc, return_energy=True)
        trace = [energy]
        unconverged = 0  # the linear solve runs no saddle check
    else:
        state = pl.minimize_vk(
            pl.PlateState(mesh), tensors, load, bc, newton_tol=cfg.newton_tol
        )
        energy, trace = state.energy, state.newton_trace
        unconverged = state.saddle_checks_unconverged
    doc = {
        "model": cfg.plate_model,
        "bc": cfg.plate_bc,
        "energy": energy,
        "u3_max": state.max_abs_w(),
        "u1_norm": float(np.linalg.norm(state.u1)),
        "u2_norm": float(np.linalg.norm(state.u2)),
        "convergence_trace": trace,
        "grid": [cfg.plate_nx, cfg.plate_ny],
        "saddle_checks_unconverged": unconverged,
    }
    _write(out / "plate.json", _json_text(doc))
    pl.write_plate_vtk(out / "plate.vtk", mesh, state)
    pl.write_profile_csv(out / "profile.csv", mesh, state)
    print(f"{cfg.plate_model} plate: energy {energy:.6e}, max|u3| {state.max_abs_w():.6e}")
    return 0


def cmd_buckle(cfg, args, out):
    tensors = _load_or_compute_tensors(cfg, args, out)
    es = np.linspace(cfg.buckling_e_star_min, cfg.buckling_e_star_max, cfg.buckling_n_points)
    rows, summary = bk.sweep_buckling_2d(
        tensors,
        cfg.L,
        es,
        nx=cfg.plate_nx,
        ny=cfg.plate_ny,
        newton_tol=cfg.newton_tol,
        csv_path=out / "buckle.csv",
    )
    _write(out / "buckle_summary.json", bk.summary_to_json(summary) + "\n")
    for r in rows:
        print(
            f"e*={r['e_star']:.6g} flat={r['energy_flat']:.6e} "
            f"best={r['energy_best']:.6e} u3={r['u3_max']:.3e} {r['branch']}"
        )
    print(f"critical strain estimate: {summary['e_star_critical']}")
    if summary["bracket_violation"]:
        print("finding: " + summary["bracket_violation"])
    return 0


def cmd_verify(cfg, args, out):
    """Fine-scale linear solves against the homogenized plate energy."""
    from .geometry import WeaveParams

    tensor = cfg.elastic_tensor()
    f = np.array(cfg.plate_f)

    # homogenized reference on a fine plate grid, clamped edge x2 = 0
    params0 = cfg.weave_params()
    cell = build_cell_mesh(params0)
    correctors = solve_cell_problems(cell, tensor, cg_tol=cfg.cg_tol)
    tensors = compute_plate_tensors(correctors, tensor)
    pmesh = pl.PlateMesh(cfg.plate_nx, cfg.plate_ny, cfg.L)
    _, e_hom = pl.solve_linear(
        pmesh, tensors, pl.LoadSpec(f=f), pl.GammaClamped(), return_energy=True
    )
    # footprint of the periodicity cell is 2 x 2 in cell coordinates
    reference = tensors.cell_volume / 4.0 * e_hom
    reference_paper = tensors.cell_volume * e_hom

    results = []
    for n in cfg.verify_n_periods:
        eps = cfg.L / (2.0 * n)
        params = WeaveParams(
            kappa=cfg.kappa, epsilon=eps, L=cfg.L, n_periods=n,
            resolution=tuple(cfg.resolution),
        )
        mesh = build_textile_mesh(params)
        constraints = ConstraintMap.dirichlet(mesh.gamma_nodes, 0.0)
        feps = np.array([eps**2 * f[0], eps**2 * f[1], eps**3 * f[2]])
        system = assemble(mesh, tensor, constraints, [BodyForceLoad(feps)])
        u, info = solve(system, rhs=0, tol=cfg.cg_tol, max_iter=cfg.max_iters)
        m_eps = 0.5 * float(u @ (system.K_full @ u)) - float(system.rhs_full[0] @ u)
        ratio = (m_eps / eps**5) / reference
        results.append(
            {
                "n_periods": int(n),
                "epsilon": eps,
                "m_eps": m_eps,
                "m_eps_over_eps5": m_eps / eps**5,
                "ratio": ratio,
                "ratio_paper_normalization": (m_eps / eps**5) / reference_paper,
                "cg_iterations": info["iterations"],
            }
        )
        print(
            f"n={n}: eps={eps:.4g} m_eps/eps^5={m_eps / eps**5:.6e} "
            f"ratio={ratio:.6f} |ratio-1|={abs(ratio - 1):.4f}"
        )
    dist = [abs(r["ratio"] - 1.0) for r in results]
    trend = all(b < a for a, b in zip(dist, dist[1:]))
    doc = {
        "homogenized_min_energy": e_hom,
        "reference": reference,
        "reference_paper_normalization": reference_paper,
        "cell_volume": tensors.cell_volume,
        "results": results,
        "trend_decreasing": trend,
    }
    _write(out / "verify.json", _json_text(doc))
    print(f"|ratio - 1| decreasing: {trend}")
    return 0


COMMANDS = {
    "geom": cmd_geom,
    "homog": cmd_homog,
    "plate": cmd_plate,
    "buckle": cmd_buckle,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="textileplate",
        description="Homogenize a glued woven textile into an orthotropic "
        "plate and stress-test it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--solid-cell", action="store_true",
                       help="replace the weave by the full solid plate cell")
        p.add_argument("--full", action="store_true",
                       help="also build the full textile patch (geom)")
        p.add_argument("--tol", type=float, default=1e-6,
                       help="tolerance for symmetry checks")
    args = parser.parse_args(argv)
    try:
        if not 0.0 < args.tol < np.inf:
            raise ConfigError(f"--tol: must be a positive finite number, got {args.tol}")
        cfg = load_config(args.config)
        out = Path(args.out or cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, args, out)
    except (ConfigError, ParameterError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except GeometryError as err:
        print(f"geometry error: {err}", file=sys.stderr)
        return 3
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
