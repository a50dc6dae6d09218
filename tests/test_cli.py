import json

import numpy as np
import pytest

from textileplate import cli
from textileplate.cli import main
from textileplate.config import parse_config
from textileplate.errors import ConfigError


BASE = """
geometry.kappa = 0.1
geometry.epsilon = 0.25
geometry.L = 1.0
geometry.n_periods = 2
geometry.resolution = 8,2,2
material.model = isotropic
material.E = 1.0
material.nu = 0.3
plate.nx = 8
plate.ny = 8
plate.bc = gamma
plate.model = linear
plate.f = 0,0,1
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_parse_defaults(self, tmp_path):
        cfg = parse_config(BASE)
        assert cfg.kappa == 0.1
        assert cfg.resolution == (8, 2, 2)
        assert cfg.plate_f == (0.0, 0.0, 1.0)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="geometry.thickness"):
            parse_config("geometry.thickness = 1.0")

    def test_out_of_domain_named(self):
        with pytest.raises(ConfigError, match="geometry.kappa"):
            parse_config("geometry.kappa = 0.3")
        with pytest.raises(ConfigError, match="material.nu"):
            parse_config(BASE + "\nmaterial.nu = 0.7")
        with pytest.raises(ConfigError, match="solver.cg_tol"):
            parse_config(BASE + "\nsolver.cg_tol = 2.0")

    def test_compression_forbids_force(self):
        with pytest.raises(ConfigError, match="plate.f"):
            parse_config(BASE + "\nplate.bc = compression")

    def test_comments_and_blanks(self):
        cfg = parse_config("# comment\n\ngeometry.kappa = 0.12  # trailing\n")
        assert cfg.kappa == 0.12

    def test_prestress_null(self):
        cfg = parse_config(BASE + "\nprestress.e_star = null")
        assert cfg.prestress_e_star is None
        cfg = parse_config(BASE + "\nprestress.e_star = 1,0,0,0,0,0")
        assert cfg.prestrain_matrix()[0, 0] == 1.0


class TestGeomCommand:
    def test_writes_cell_and_report(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "out"
        rc = main(["geom", "--config", cfg, "--out", str(out)])
        assert rc == 0
        assert (out / "cell.vtk").exists()
        report = (out / "geom_report.txt").read_text()
        assert "FAIL" not in report

    def test_bad_kappa_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE.replace("kappa = 0.1", "kappa = 0.3"))
        rc = main(["geom", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_full_flag_tiles(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "out_full"
        rc = main(["geom", "--config", cfg, "--out", str(out), "--full"])
        assert rc == 0
        from textileplate.vtk_io import read_vtk

        _, cell_cells, _ = read_vtk(out / "cell.vtk")
        _, tex_cells, _ = read_vtk(out / "textile.vtk")
        assert len(tex_cells) == 4 * len(cell_cells)


class TestHomogCommand:
    def test_solid_cell_oracle(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "solid"
        rc = main(["homog", "--config", cfg, "--out", str(out), "--solid-cell"])
        assert rc == 0
        doc = json.loads((out / "tensors.json").read_text())
        aps = 1.0 / (1 - 0.3**2)
        assert doc["a_hom"][0][0] == pytest.approx(aps, rel=0.01)
        assert doc["a_hom"][0][1] == pytest.approx(0.3 * aps, rel=0.01)
        assert doc["c_hom"][0][0] == pytest.approx(4 * 0.01 / 3 * aps, rel=0.01)

    def test_weave_symmetry_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "weave"
        rc = main(["homog", "--config", cfg, "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "tensors.json").read_text())
        rep = doc["symmetry_report"]
        assert rep["status"] == "checked"
        assert all(v["pass"] for v in rep["orthotropy"].values())
        assert all(v["pass"] for v in rep["correctors"].values())
        assert (out / "correctors.vtk").exists()

    def test_anisotropic_not_applicable(self, tmp_path):
        from textileplate.elasticity import isotropic_tensor

        a = isotropic_tensor(0.577, 0.385)
        a[0, 0, 0, 0] += 1.0
        table = {"default": a.tolist()}
        tpath = tmp_path / "material.json"
        tpath.write_text(json.dumps(table))
        cfg = write_cfg(
            tmp_path,
            BASE.replace("material.model = isotropic", "material.model = general")
            + f"\nmaterial.table = {tpath}\n",
        )
        out = tmp_path / "aniso"
        rc = main(["homog", "--config", cfg, "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "tensors.json").read_text())
        assert "not applicable" in doc["symmetry_report"]["status"]


class TestPlateCommand:
    def test_clamped_transverse(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "plate"
        rc = main(["plate", "--config", cfg, "--out", str(out), "--solid-cell"])
        assert rc == 0
        doc = json.loads((out / "plate.json").read_text())
        assert doc["energy"] < 0
        assert (out / "plate.vtk").exists()
        profile = (out / "profile.csv").read_text().splitlines()
        assert profile[0] == "x1,u3"
        assert len(profile) == 10  # nx + 2 header/rows

    def test_deflection_grows_away_from_clamp(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "plate2"
        main(["plate", "--config", cfg, "--out", str(out), "--solid-cell"])
        from textileplate.vtk_io import read_vtk

        nodes, _, fields = read_vtk(out / "plate.vtk")
        w = np.abs(fields["displacement"][:, 2])
        far = nodes[:, 1] > 0.75
        near = nodes[:, 1] < 0.25
        assert w[far].max() > 10 * w[near].max()


class TestTensorsCache:
    def test_changed_kappa_recomputes(self, tmp_path):
        homog_cfg = write_cfg(tmp_path, BASE, "homog.cfg")
        plate_cfg = write_cfg(tmp_path, BASE.replace("kappa = 0.1", "kappa = 0.15"))
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        assert main(["homog", "--config", homog_cfg, "--out", str(shared)]) == 0
        assert main(["plate", "--config", plate_cfg, "--out", str(shared)]) == 0
        assert main(["plate", "--config", plate_cfg, "--out", str(fresh)]) == 0
        energy = [json.loads((d / "plate.json").read_text())["energy"] for d in (shared, fresh)]
        assert energy[0] == energy[1]

    def test_plate_keys_reuse_tensors(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert main(["homog", "--config", write_cfg(tmp_path, BASE), "--out", str(out)]) == 0

        def no_homogenization(*args):
            raise AssertionError("tensors.json was not reused")

        monkeypatch.setattr(cli, "_homogenize", no_homogenization)
        plate_cfg = write_cfg(tmp_path, BASE.replace("plate.nx = 8", "plate.nx = 6"), "p.cfg")
        assert main(["plate", "--config", plate_cfg, "--out", str(out)]) == 0


class TestPrestressPipeline:
    def test_constant_prestrain_reported(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE + "\nprestress.e_star = 0.5,0.5,0.5,0,0,0\n")
        out = tmp_path / "pre"
        rc = main(["homog", "--config", cfg, "--out", str(out), "--solid-cell"])
        assert rc == 0
        doc = json.loads((out / "tensors.json").read_text())
        eff = np.array(doc["effective_prestrain"])
        # isotropic eigenstrain on the solid cell passes through in plane
        assert eff[0, 0] == pytest.approx(0.5, abs=1e-6)
        assert eff[1, 1] == pytest.approx(0.5, abs=1e-6)
        assert "effective_prestrain_printed_variant" in doc

    def test_sampled_prestrain_table(self, tmp_path):
        csv = tmp_path / "samples.csv"
        csv.write_text(
            "x1,x2,e11,e22,e33,e12,e13,e23\n"
            "0.25,0.5,1,0,0,0,0,0\n"
            "0.75,0.5,0,1,0,0,0,0\n"
        )
        cfg = write_cfg(tmp_path, BASE + f"\nprestress.csv = {csv}\n")
        out = tmp_path / "pre_csv"
        rc = main(["homog", "--config", cfg, "--out", str(out), "--solid-cell"])
        assert rc == 0
        rows = (out / "effective_prestrain.csv").read_text().splitlines()
        assert rows[0] == "x1,x2,E11,E22,E12"
        vals = [list(map(float, r.split(","))) for r in rows[1:]]
        assert vals[0][2] == pytest.approx(1.0, abs=1e-6)  # E11 at first sample
        assert vals[1][3] == pytest.approx(1.0, abs=1e-6)  # E22 at second

    def test_vk_plate_with_prestrain(self, tmp_path):
        text = BASE.replace("plate.model = linear", "plate.model = vk")
        text += "\nprestress.e_star = 0.001,0.001,0.001,0,0,0\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "vkpre"
        rc = main(["plate", "--config", cfg, "--out", str(out), "--solid-cell"])
        assert rc == 0
        doc = json.loads((out / "plate.json").read_text())
        assert doc["model"] == "vk"
        assert np.isfinite(doc["energy"])
        assert len(doc["convergence_trace"]) >= 1


class TestBuckleCommand:
    def test_sweep_outputs(self, tmp_path):
        text = BASE.replace("plate.nx = 8", "plate.nx = 10").replace(
            "plate.ny = 8", "plate.ny = 10"
        )
        text += "\nbuckling.e_star_min = 0.01\nbuckling.e_star_max = 4.4\nbuckling.n_points = 3\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "buckle"
        rc = main(["buckle", "--config", cfg, "--out", str(out), "--solid-cell"])
        assert rc == 0
        lines = (out / "buckle.csv").read_text().splitlines()
        assert len(lines) == 4  # header + n_points
        summary = json.loads((out / "buckle_summary.json").read_text())
        assert summary["e_star_critical"] is not None
        assert np.isfinite(summary["e_star_critical"])


class TestVerifyCommand:
    def test_single_period_smoke(self, tmp_path):
        text = BASE + "\nverify.n_periods = 1\nsolver.cg_tol = 1e-8\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "verify"
        rc = main(["verify", "--config", cfg, "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "verify.json").read_text())
        assert len(doc["results"]) == 1
        assert doc["results"][0]["ratio"] == pytest.approx(1.0, abs=0.2)


class TestDeterminism:
    def test_repeated_runs_bitwise_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"det_{tag}"
            assert main(["homog", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out)
        for name in ("tensors.json", "correctors.vtk"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_plate_and_geom_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"detp_{tag}"
            assert main(["geom", "--config", cfg, "--out", str(out)]) == 0
            assert main(["plate", "--config", cfg, "--out", str(out), "--solid-cell"]) == 0
            outs.append(out)
        for name in ("cell.vtk", "plate.json", "plate.vtk", "profile.csv", "tensors.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
