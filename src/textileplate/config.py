"""Flat key/value run configuration with dotted section names.

One assignment per line, `#` comments, no expression language. Every key
is validated against a typed schema; unknown keys and out-of-domain values
raise ConfigError naming the offending field.
"""
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def _floats(text):
    return [float(v) for v in text.replace(",", " ").split()]


def _ints(text):
    return [int(v) for v in text.replace(",", " ").split()]


@dataclass
class RunConfig:
    kappa: float = 0.1
    epsilon: float = 0.25
    L: float = 1.0
    n_periods: int = 2
    resolution: tuple = (8, 2, 2)

    material_model: str = "isotropic"  # isotropic | lame | general
    E: float = 1.0
    nu: float = 0.3
    lam: float = None
    mu: float = None
    material_table: str = None  # path to a JSON tag -> 3x3x3x3 table

    plate_nx: int = 16
    plate_ny: int = 16
    plate_bc: str = "gamma"  # gamma | compression
    plate_model: str = "linear"  # linear | vk
    plate_f: tuple = (0.0, 0.0, 1.0)
    compression_e_star: float = 0.0

    prestress_e_star: tuple = None  # (e11, e22, e33, e12, e13, e23) or None
    prestress_csv: str = None  # sampled x-dependent eigenstrain table

    buckling_e_star_min: float = 0.01
    buckling_e_star_max: float = 4.0
    buckling_n_points: int = 6

    cg_tol: float = 1e-10
    newton_tol: float = 1e-9
    max_iters: int = 50000

    verify_n_periods: tuple = (2, 4)

    output_dir: str = "out"

    def validate(self):
        def fail(key, msg):
            raise ConfigError(f"{key}: {msg}")

        if not (0.0 < self.kappa < 0.25):
            fail("geometry.kappa", f"must lie in (0, 1/4), got {self.kappa}")
        if self.epsilon <= 0:
            fail("geometry.epsilon", "must be positive")
        if self.L <= 0:
            fail("geometry.L", "must be positive")
        if self.n_periods < 1:
            fail("geometry.n_periods", "must be >= 1")
        if len(self.resolution) != 3 or min(self.resolution) < 1:
            fail("geometry.resolution", "needs three counts >= 1")
        if self.resolution[1] % 2:
            fail("geometry.resolution", "n_cross must be even")
        if self.material_model not in ("isotropic", "lame", "general"):
            fail("material.model", f"unknown model {self.material_model!r}")
        if self.material_model == "isotropic":
            if self.E <= 0:
                fail("material.E", "must be positive")
            if not (-1.0 < self.nu < 0.5):
                fail("material.nu", "must lie in (-1, 1/2)")
        if self.material_model == "lame":
            if self.mu is None or self.mu <= 0:
                fail("material.mu", "must be positive")
            if self.lam is None:
                fail("material.lambda", "missing")
        if self.material_model == "general" and not self.material_table:
            fail("material.table", "path to the material table is required")
        if self.plate_nx < 1 or self.plate_ny < 1:
            fail("plate.nx", "plate grid must be >= 1 in both directions")
        if self.plate_bc not in ("gamma", "compression"):
            fail("plate.bc", f"unknown boundary condition {self.plate_bc!r}")
        if self.plate_model not in ("linear", "vk"):
            fail("plate.model", f"unknown model {self.plate_model!r}")
        if self.plate_bc == "compression" and any(v != 0.0 for v in self.plate_f):
            fail("plate.f", "compression runs forbid a nonzero areal force")
        if self.compression_e_star < 0:
            fail("compression.e_star", "must be >= 0")
        if self.buckling_e_star_min <= 0 or self.buckling_e_star_max <= 0:
            fail("buckling.e_star_min", "sweep bounds must be positive")
        if self.buckling_e_star_max <= self.buckling_e_star_min:
            fail("buckling.e_star_max", "must exceed e_star_min")
        if self.buckling_n_points < 2:
            fail("buckling.n_points", "needs at least 2 points")
        if self.cg_tol <= 0 or self.cg_tol >= 1:
            fail("solver.cg_tol", "must lie in (0, 1)")
        if self.newton_tol <= 0 or self.newton_tol >= 1:
            fail("solver.newton_tol", "must lie in (0, 1)")
        if self.max_iters < 1:
            fail("solver.max_iters", "must be >= 1")
        if len(self.verify_n_periods) < 1 or min(self.verify_n_periods) < 1:
            fail("verify.n_periods", "needs positive period counts")
        if self.prestress_e_star is not None and len(self.prestress_e_star) != 6:
            fail("prestress.e_star", "needs 6 components e11,e22,e33,e12,e13,e23")
        return self

    def prestrain_matrix(self):
        if self.prestress_e_star is None:
            return None
        e11, e22, e33, e12, e13, e23 = self.prestress_e_star
        return np.array([[e11, e12, e13], [e12, e22, e23], [e13, e23, e33]])

    def prestrain_samples(self):
        """Rows of the x-dependent eigenstrain CSV as (x', 3x3) pairs."""
        if self.prestress_csv is None:
            return None
        samples = []
        with open(self.prestress_csv) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line or line.lower().startswith("x1"):
                    continue
                vals = _floats(line)
                if len(vals) != 8:
                    raise ConfigError(
                        f"prestress.csv line {lineno}: expected "
                        "x1,x2,e11,e22,e33,e12,e13,e23"
                    )
                x1, x2, e11, e22, e33, e12, e13, e23 = vals
                samples.append(
                    (
                        np.array([x1, x2]),
                        np.array(
                            [[e11, e12, e13], [e12, e22, e23], [e13, e23, e33]]
                        ),
                    )
                )
        if not samples:
            raise ConfigError("prestress.csv: no sample rows found")
        return samples

    def elastic_tensor(self):
        from .elasticity import ElasticTensor, lame_from_young_poisson

        if self.material_model == "isotropic":
            return ElasticTensor.isotropic(*lame_from_young_poisson(self.E, self.nu))
        if self.material_model == "lame":
            return ElasticTensor.isotropic(self.lam, self.mu)
        with open(self.material_table) as fh:
            raw = json.load(fh)
        table = {}
        for tag, entries in raw.items():
            key = tag if tag == "default" else int(tag)
            table[key] = np.array(entries, dtype=float)
        return ElasticTensor(table)

    def weave_params(self):
        from .geometry import WeaveParams

        return WeaveParams(
            kappa=self.kappa,
            epsilon=self.epsilon,
            L=self.L,
            n_periods=self.n_periods,
            resolution=tuple(self.resolution),
        )


_PARSERS = {
    "geometry.kappa": ("kappa", float),
    "geometry.epsilon": ("epsilon", float),
    "geometry.L": ("L", float),
    "geometry.n_periods": ("n_periods", int),
    "geometry.resolution": ("resolution", lambda s: tuple(_ints(s))),
    "material.model": ("material_model", str),
    "material.E": ("E", float),
    "material.nu": ("nu", float),
    "material.lambda": ("lam", float),
    "material.mu": ("mu", float),
    "material.table": ("material_table", str),
    "plate.nx": ("plate_nx", int),
    "plate.ny": ("plate_ny", int),
    "plate.bc": ("plate_bc", str),
    "plate.model": ("plate_model", str),
    "plate.f": ("plate_f", lambda s: tuple(_floats(s))),
    "compression.e_star": ("compression_e_star", float),
    "prestress.e_star": (
        "prestress_e_star",
        lambda s: None if s.strip().lower() in ("null", "none") else tuple(_floats(s)),
    ),
    "prestress.csv": ("prestress_csv", str),
    "buckling.e_star_min": ("buckling_e_star_min", float),
    "buckling.e_star_max": ("buckling_e_star_max", float),
    "buckling.n_points": ("buckling_n_points", int),
    "solver.cg_tol": ("cg_tol", float),
    "solver.newton_tol": ("newton_tol", float),
    "solver.max_iters": ("max_iters", int),
    "verify.n_periods": ("verify_n_periods", lambda s: tuple(_ints(s))),
    "output.dir": ("output_dir", str),
}


def parse_config(text):
    """Parse the flat key = value format into a validated RunConfig."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, conv = _PARSERS[key]
        try:
            setattr(cfg, attr, conv(value))
        except ConfigError:
            raise
        except Exception as err:
            raise ConfigError(f"{key}: cannot parse {value!r} ({err})") from err
    return cfg.validate()


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())
