"""Negative controls for the benchmark's output checks, and tracer tests.

Every check must pass on a plausible output and fail on a deliberately
wrong one. Run with `python3 -m pytest perfbench/test_checks.py`.
"""
import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracer as tracing

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# coarse-cell tensors of the unit-modulus weave (kappa = 0.1, nu = 0.3)
A = [[0.3163403188464, 0.1149859898014, 0.0], [0.1149859898014, 0.3163403188464, 0.0],
     [0.0, 0.0, 0.0097151735390]]
C = [[0.0017108214385, -4.20608032e-05, 0.0], [-4.20608032e-05, 0.0017108214385, 0.0],
     [0.0, 0.0, 0.0006597350561]]
GOOD_TENSORS = {
    "a_hom": A,
    "b_hom": [[0.0] * 3 for _ in range(3)],
    "c_hom": C,
    "diagnostics": {"a_linear_form": copy.deepcopy(A), "cg_tol": 1e-10},
}
E, NU, KAPPA, L = 1.0, 0.3, 0.1, 1.0


def tensors(**changes):
    doc = copy.deepcopy(GOOD_TENSORS)
    for key, (i, j, value) in changes.items():
        target = doc["diagnostics"][key] if key == "a_linear_form" else doc[key]
        target[i][j] = value
        if key != "a_linear_form":
            target[j][i] = value
    return doc


def passed(result):
    name, ok, detail = result
    return ok


def test_homog_checks_pass_on_good_tensors():
    assert passed(checks.check_orthotropy(GOOD_TENSORS))
    assert passed(checks.check_spd(GOOD_TENSORS))
    assert passed(checks.check_voigt_bounds(GOOD_TENSORS, E, NU, KAPPA))
    assert passed(checks.check_galerkin(GOOD_TENSORS))


@pytest.mark.parametrize("change", [
    {"a_hom": (0, 0, 0.32)},            # A11 != A22
    {"a_hom": (0, 2, 1e-4)},            # A1112 != 0
    {"b_hom": (0, 0, 1e-3)},            # b != 0
    {"c_hom": (1, 1, 0.0018)},          # C11 != C22
])
def test_orthotropy_fails(change):
    assert not passed(checks.check_orthotropy(tensors(**change)))


def test_spd_fails_on_indefinite_membrane_tensor():
    assert not passed(checks.check_spd(tensors(a_hom=(0, 1, 0.5))))


def test_voigt_fails_above_the_yarn_stiffness():
    doc = tensors(a_hom=(0, 0, 2.0))
    doc["a_hom"][1][1] = 2.0
    assert not passed(checks.check_voigt_bounds(doc, E, NU, KAPPA))
    doc = tensors(c_hom=(0, 0, 0.1))
    doc["c_hom"][1][1] = 0.1
    assert not passed(checks.check_voigt_bounds(doc, E, NU, KAPPA))


def test_galerkin_fails_when_the_two_forms_disagree():
    assert not passed(checks.check_galerkin(tensors(a_linear_form=(0, 0, 0.3164))))


SAMPLES = [(0.1, 0.2, 0.004, -0.003, 0.007), (0.5, 0.9, -0.01, 0.002, -0.005)]


def test_prestrain_passthrough():
    rows = [tuple(s) for s in SAMPLES]
    assert passed(checks.check_prestrain_passthrough(rows, SAMPLES))
    off = [rows[0], rows[1][:2] + (-0.0101, 0.002, -0.005)]
    assert not passed(checks.check_prestrain_passthrough(off, SAMPLES))
    assert not passed(checks.check_prestrain_passthrough(rows[:1], SAMPLES))
    moved = [rows[0], (0.6,) + rows[1][1:]]
    assert not passed(checks.check_prestrain_passthrough(moved, SAMPLES))


def buckle_rows(e_crit=0.24, scale=0.5 * 0.3163):
    out = []
    for es in (0.0134, 2.0, 4.0):
        flat = scale * es**2
        buckled = es > e_crit
        out.append({"e_star": es, "energy_flat": flat,
                    "energy_best": 0.4 * flat if buckled else flat,
                    "branch": "buckled" if buckled else "flat"})
    return out


def test_buckle_checks_pass_on_good_sweep():
    rows, summary = buckle_rows(), {"e_star_critical": 0.24}
    assert passed(checks.check_bracket(summary, GOOD_TENSORS, L))
    assert passed(checks.check_best_below_flat(rows))
    assert passed(checks.check_flat_quadratic(rows))
    assert passed(checks.check_rows_match_onset(rows, summary))


def test_bracket_fails_outside_the_analytic_bounds():
    lo, hi = checks.buckling_bounds(GOOD_TENSORS, L)
    assert not passed(checks.check_bracket({"e_star_critical": 0.9 * lo}, GOOD_TENSORS, L))
    assert not passed(checks.check_bracket({"e_star_critical": 1.1 * hi}, GOOD_TENSORS, L))
    assert not passed(checks.check_bracket({"e_star_critical": None}, GOOD_TENSORS, L))


def test_buckle_row_checks_fail():
    rows = buckle_rows()
    rows[1]["energy_best"] = rows[1]["energy_flat"] * 1.01
    assert not passed(checks.check_best_below_flat(rows))
    rows = buckle_rows()
    rows[2]["energy_flat"] *= 1.001
    assert not passed(checks.check_flat_quadratic(rows))
    rows = buckle_rows()
    rows[1]["branch"] = "flat"
    assert not passed(checks.check_rows_match_onset(rows, {"e_star_critical": 0.24}))
    assert not passed(checks.check_rows_match_onset(buckle_rows(), {"e_star_critical": 3.0}))


def test_plate_checks():
    assert passed(checks.check_galerkin_monotone(-1.4614932e-3, -1.4614925e-3))
    assert not passed(checks.check_galerkin_monotone(-1.4614925e-3, -1.4614932e-3))
    assert passed(checks.check_vk_above_linear(-1.445e-3, -1.461e-3))
    assert not passed(checks.check_vk_above_linear(-1.47e-3, -1.461e-3))
    assert passed(checks.check_vk_negative(-1.445e-3))
    assert not passed(checks.check_vk_negative(2e-4))
    assert passed(checks.check_trace_monotone([0.0, -1e-3, -1.4e-3, -1.4e-3]))
    assert not passed(checks.check_trace_monotone([0.0, -1e-3, -0.9e-3]))


def verify_results(ratios, energy=-1.2):
    return [{"n_periods": n, "ratio": r, "m_eps": energy} for n, r in zip((2, 4), ratios)]


def test_verify_checks():
    good = verify_results([0.9895, 0.9901])
    assert passed(checks.check_ratio_trend(good))
    assert passed(checks.check_ratio_bound(good))
    assert passed(checks.check_energy_negative(good))
    assert not passed(checks.check_ratio_trend(verify_results([0.99, 0.98])))
    assert not passed(checks.check_ratio_trend(verify_results([0.99])))
    assert not passed(checks.check_ratio_bound(verify_results([0.8, 0.85])))
    assert not passed(checks.check_energy_negative(verify_results([0.99, 0.995], 0.1)))


# -- tracer ---------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    spans = []
    for layer, parent, start, end in [
        ("cli", None, 0.0, 10.0),
        ("plate.minimize", 0, 1.0, 9.0),
        ("plate.hessian", 1, 2.0, 4.0),
        ("plate.eig", 1, 5.0, 8.0),
        ("vtk_io.export", 0, 9.0, 9.5),
    ]:
        s = tracing.Span(len(spans), layer, parent, start)
        s.end = end
        spans.append(s)
    totals = tracing.layer_totals(spans)
    assert totals["cli"]["self_s"] == pytest.approx(1.5)
    assert totals["plate.minimize"]["self_s"] == pytest.approx(3.0)
    assert totals["plate.minimize"]["total_s"] == pytest.approx(8.0)
    assert totals["plate.eig"]["calls"] == 1


def test_sweep_points_count_minimize_calls_below_the_sweep():
    spans = []
    for layer, parent in [("cli", None), ("buckling.sweep", 0), ("plate.minimize", 1),
                          ("plate.minimize", 1), ("plate.minimize", 0)]:
        s = tracing.Span(len(spans), layer, parent, 0.0)
        s.end = 1.0
        spans.append(s)
    metrics = tracing.round_metrics(spans, {})
    assert metrics["buckling.points"][0] == 2
    assert metrics["plate.minimize_calls"][0] == 3


def test_coverage_guard_names_a_layer_with_no_calls():
    required = ["plate.eig", "plate.factor"]
    assert tracing.missing_layers(required, [{"plate.eig": 2, "plate.factor": 9}]) == []
    # a rebound import leaves the layer at zero calls in a later round
    rounds = [{"plate.eig": 2, "plate.factor": 9}, {"plate.factor": 9}]
    assert tracing.missing_layers(required, rounds) == ["plate.eig"]


def test_wrapper_records_raised_calls_and_restores():
    import textileplate.plate as plate

    original = plate.spla
    t = tracing.Tracer()
    t.install()
    try:
        assert plate.spla is not original
        t.active = True
        with pytest.raises(ValueError):
            plate.spla.eigsh(np.eye(3), k=0)
        t.active = False
    finally:
        t.uninstall()
    assert plate.spla is original
    totals = tracing.layer_totals(t.spans)
    assert totals["plate.eig"] == {"calls": 1, "raised": 1,
                                   "total_s": totals["plate.eig"]["total_s"],
                                   "self_s": totals["plate.eig"]["self_s"]}
    assert not t.missing


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    traced = tracing.round_metrics([], {})
    traced.update({"trace.round_s": None, "cli.plate_linear_s": None, "cli.plate_vk_s": None})
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(traced)
    assert {m["name"] for m in spec["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mib"}
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
