"""The four benchmark workloads: homog, buckle, plate and verify.

Each workload writes its configs into the run directory during set-up and
then runs whole rounds. A round is the same list of operations every time:
the timed CLI commands, any untimed reference commands, and the output
checks. `round` returns (timed seconds, [(command, ok)], [(check, ok,
detail)]). Inputs come from the seed only.

The seed is meant to change the numbers, not the amount of work. It picks
pre-strain samples (homog), or a Young's modulus E with the load scaled by
E (buckle, plate, verify): scaling stiffness and load together leaves every
solution unchanged while the checks see different numbers. CG and the
linear plate solve do the same work for every E; the plate's Newton
stopping test mixes absolute and relative scales, so on buckle the number
of Newton steps still moves with E.
"""
import contextlib
import csv
import io
import json
import math
import time
import traceback

import numpy as np

import checks

# geometry, material and solver keys shared by every config
BASE = {
    "geometry.kappa": 0.1,
    "geometry.epsilon": 0.25,
    "geometry.L": 1.0,
    "geometry.n_periods": 2,
    "geometry.resolution": "8,2,2",
    "material.model": "isotropic",
    "material.E": 1.0,
    "material.nu": 0.3,
}


def seeded_modulus(seed):
    """Young's modulus in [0.5, 2], log-uniform, from the seed."""
    rng = np.random.default_rng([seed, 1])
    return float(math.exp(rng.uniform(math.log(0.5), math.log(2.0))))


class Context:
    """Run directory, seed and tracer shared by a workload's steps."""

    def __init__(self, run_dir, seed, tracer=None):
        self.run_dir = run_dir
        self.seed = seed
        self.tracer = tracer
        self.log = []

    def write_config(self, name, **entries):
        keys = dict(BASE)
        keys.update({k.replace("__", "."): v for k, v in entries.items()})
        keys["output.dir"] = str(self.out)
        text = "".join(f"{k} = {v}\n" for k, v in keys.items())
        path = self.run_dir / f"{name}.cfg"
        path.write_text(text)
        return path

    @property
    def out(self):
        return self.run_dir / "out"

    def command(self, command, config, timed=True):
        """Run one CLI command in-process; returns (ok, wall seconds).

        Only timed commands are traced, inside one `cli` span.
        """
        from textileplate.cli import main

        tracer = self.tracer if timed else None
        sink = io.StringIO()
        span = None
        ok = False
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                tracer.active = True
                span = tracer.open("cli")
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                ok = main([command, "--config", str(config)]) == 0
        except Exception:
            sink.write(traceback.format_exc())
        finally:
            if span is not None:
                tracer.close(span)
                tracer.active = False
        seconds = time.perf_counter() - t0
        if not ok:
            self.log.append(f"{command} {config.name} failed:\n{sink.getvalue()}")
        return ok, seconds

    def read_json(self, name):
        with open(self.out / name) as fh:
            return json.load(fh)

    def read_csv(self, name):
        with open(self.out / name, newline="") as fh:
            return list(csv.DictReader(fh))


def run_checks(specs, read_outputs, command_ok):
    """Read a round's outputs, then run each check on them.

    specs: (check name, function(outputs) -> (name, ok, detail)). When the
    command failed, no check runs and each reports ok None, so outputs of
    an earlier round are never checked again. Outputs that a successful
    command left unreadable fail every check.
    """
    if not command_ok:
        return [(name, None, "not run: command failed") for name, _ in specs]
    try:
        outputs = read_outputs()
    except (OSError, ValueError, KeyError) as err:
        return [(name, False, f"unreadable output: {err!r}") for name, _ in specs]
    results = []
    for name, fn in specs:
        try:
            results.append(fn(outputs))
        except (ArithmeticError, ValueError, KeyError, TypeError, IndexError) as err:
            results.append((name, False, f"malformed output: {err!r}"))
    return results


class Homog:
    name = "homog"
    required_layers = [
        "geometry.build",
        "elasticity.assemble",
        "elasticity.solve",
        "homogenize.cell_problems",
        "homogenize.tensors",
        "homogenize.prestress",
        "vtk_io.export",
    ]
    resolution = "16,4,4"
    n_samples = 3

    def setup(self, ctx):
        rng = np.random.default_rng([ctx.seed, 0])
        self.samples = []
        lines = ["x1,x2,e11,e22,e33,e12,e13,e23"]
        for _ in range(self.n_samples):
            x1, x2 = (float(v) for v in rng.uniform(0.0, BASE["geometry.L"], 2))
            # in-plane eigenstrain, each component of size 0.002 to 0.01
            signs = rng.choice([-1.0, 1.0], 3)
            e11, e22, e12 = (float(v) for v in signs * rng.uniform(0.002, 0.01, 3))
            self.samples.append((x1, x2, e11, e22, e12))
            lines.append(f"{x1!r},{x2!r},{e11!r},{e22!r},0,{e12!r},0,0")
        csv_path = ctx.run_dir / "prestress.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        self.config = ctx.write_config(
            "homog", geometry__resolution=self.resolution, prestress__csv=str(csv_path)
        )

    def round(self, ctx):
        ok, seconds = ctx.command("homog", self.config)
        E, nu, kappa = BASE["material.E"], BASE["material.nu"], BASE["geometry.kappa"]

        def read():
            rows = [
                tuple(float(r[k]) for k in ("x1", "x2", "E11", "E22", "E12"))
                for r in ctx.read_csv("effective_prestrain.csv")
            ]
            return ctx.read_json("tensors.json"), rows

        specs = [
            ("homog.orthotropy", lambda o: checks.check_orthotropy(o[0])),
            ("homog.spd", lambda o: checks.check_spd(o[0])),
            ("homog.voigt_bounds", lambda o: checks.check_voigt_bounds(o[0], E, nu, kappa)),
            ("homog.galerkin", lambda o: checks.check_galerkin(o[0])),
            ("homog.prestrain_passthrough",
             lambda o: checks.check_prestrain_passthrough(o[1], self.samples)),
        ]
        return {"run_s": seconds}, [("homog", ok)], run_checks(specs, read, ok)


class _CoarseTensors:
    """Set-up shared by buckle and plate: homog on the coarse cell."""

    def homogenize(self, ctx, E):
        self.E = E
        config = ctx.write_config("coarse_homog", material__E=E)
        ok, _ = ctx.command("homog", config, timed=False)
        if not ok:
            raise RuntimeError("coarse homog failed in set-up:\n" + "\n".join(ctx.log))
        self.tensors = ctx.read_json("tensors.json")


class Buckle(_CoarseTensors):
    name = "buckle"
    required_layers = [
        "plate.linear_solve",
        "plate.minimize",
        "plate.hessian",
        "plate.gradient",
        "plate.energy",
        "plate.factor",
        "plate.eig",
        "buckling.sweep",
    ]
    grid = 4
    n_points = 3

    def setup(self, ctx):
        self.homogenize(ctx, seeded_modulus(ctx.seed))
        self.L = BASE["geometry.L"]
        necessary, test_mode = checks.buckling_bounds(self.tensors, self.L)
        self.config = ctx.write_config(
            "buckle",
            material__E=self.E,
            plate__nx=self.grid,
            plate__ny=self.grid,
            plate__bc="compression",
            plate__f="0,0,0",
            buckling__e_star_min=repr(0.5 * necessary),
            buckling__e_star_max=repr(1.05 * test_mode),
            buckling__n_points=self.n_points,
        )

    def round(self, ctx):
        ok, seconds = ctx.command("buckle", self.config)

        def read():
            rows = [
                {
                    "e_star": float(r["e_star"]),
                    "energy_flat": float(r["energy_flat"]),
                    "energy_best": float(r["energy_best"]),
                    "branch": r["branch"],
                }
                for r in ctx.read_csv("buckle.csv")
            ]
            return rows, ctx.read_json("buckle_summary.json")

        specs = [
            ("buckle.bracket", lambda o: checks.check_bracket(o[1], self.tensors, self.L)),
            ("buckle.best_below_flat", lambda o: checks.check_best_below_flat(o[0])),
            ("buckle.flat_quadratic", lambda o: checks.check_flat_quadratic(o[0])),
            ("buckle.rows_match_onset", lambda o: checks.check_rows_match_onset(*o)),
        ]
        return {"run_s": seconds}, [("buckle", ok)], run_checks(specs, read, ok)


class Plate(_CoarseTensors):
    name = "plate"
    required_layers = [
        "plate.linear_solve",
        "plate.minimize",
        "plate.hessian",
        "plate.gradient",
        "plate.energy",
        "plate.factor",
        "plate.eig",
        "vtk_io.export",
    ]
    linear_grid = 64
    vk_grid = 16

    def setup(self, ctx):
        self.homogenize(ctx, seeded_modulus(ctx.seed))
        # f3 = 0.01 puts the unit-modulus plate in the von Karman regime
        # (max|u3| about 0.7); scaling f with E keeps the solution
        load = f"0,0,{0.01 * self.E!r}"

        def config(name, model, grid):
            return ctx.write_config(
                name, material__E=self.E, plate__model=model, plate__nx=grid,
                plate__ny=grid, plate__bc="gamma", plate__f=load,
            )

        self.linear = config("plate_linear", "linear", self.linear_grid)
        self.vk = config("plate_vk", "vk", self.vk_grid)
        # untimed references: half the linear grid, and the vk grid
        self.linear_half = config("plate_linear_half", "linear", self.linear_grid // 2)
        self.linear_vk_grid = config("plate_linear_vk_grid", "linear", self.vk_grid)

    def round(self, ctx):
        docs = {}
        commands = []
        timed = {}
        steps = [
            ("linear", self.linear, True),
            ("vk", self.vk, True),
            ("linear_half", self.linear_half, False),
            ("linear_vk_grid", self.linear_vk_grid, False),
        ]
        for key, config, is_timed in steps:
            ok, seconds = ctx.command("plate", config, timed=is_timed)
            commands.append((f"plate {key}", ok))
            if is_timed:
                timed[f"plate_{key}_s"] = seconds
            if ok:
                docs[key] = ctx.read_json("plate.json")
        timed["run_s"] = timed["plate_linear_s"] + timed["plate_vk_s"]

        def energy(key):
            return docs[key]["energy"]

        specs = [
            ("plate.galerkin_monotone",
             lambda o: checks.check_galerkin_monotone(energy("linear"), energy("linear_half"))),
            ("plate.vk_above_linear",
             lambda o: checks.check_vk_above_linear(energy("vk"), energy("linear_vk_grid"))),
            ("plate.vk_negative", lambda o: checks.check_vk_negative(energy("vk"))),
            ("plate.trace_monotone",
             lambda o: checks.check_trace_monotone(docs["vk"]["convergence_trace"])),
        ]
        all_ok = all(ok for _, ok in commands)
        return timed, commands, run_checks(specs, lambda: docs, all_ok)


class Verify:
    name = "verify"
    required_layers = [
        "geometry.build",
        "elasticity.assemble",
        "elasticity.solve",
        "homogenize.cell_problems",
        "homogenize.tensors",
        "plate.linear_solve",
        "plate.factor",
    ]

    def setup(self, ctx):
        E = seeded_modulus(ctx.seed)
        self.config = ctx.write_config(
            "verify", material__E=E, plate__nx=16, plate__ny=16, plate__f=f"0,0,{E!r}",
            verify__n_periods="2,4", solver__cg_tol="1e-9",
        )

    def round(self, ctx):
        ok, seconds = ctx.command("verify", self.config)
        specs = [
            ("verify.ratio_trend", checks.check_ratio_trend),
            ("verify.ratio_bound", checks.check_ratio_bound),
            ("verify.energy_negative", checks.check_energy_negative),
        ]
        results = run_checks(specs, lambda: ctx.read_json("verify.json")["results"], ok)
        return {"run_s": seconds}, [("verify", ok)], results


WORKLOADS = {w.name: w for w in (Homog, Buckle, Plate, Verify)}
