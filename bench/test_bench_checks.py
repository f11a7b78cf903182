"""Fast tests of the benchmark's checks; no workload round is run here.

Each check must fail on a deliberately perturbed output, and the closed-form
helpers must agree with brute-force enumeration over all Paulis.
"""

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import tracing
import workloads

# ---------------------------------------------------------------------------
# closed forms against enumeration
# ---------------------------------------------------------------------------


def _paulis(n):
    """All n-qubit Paulis as (x, z) bit masks."""
    return list(itertools.product(range(1 << n), repeat=2))


def _weight(x, z):
    return bin(x | z).count("1")


def _error_distribution(n, rates, mode, k):
    """Explicit twirled error distribution {(x, z): probability}."""
    px, py, pz = (Fraction(r) for r in rates)
    dist = {(0, 0): 1 - px - py - pz}
    dist[(0, 1)] = dist.get((0, 1), 0) + pz  # Z on qubit 0
    if mode == "none":
        dist[(1, 0)] = dist.get((1, 0), 0) + px
        dist[(1, 1)] = dist.get((1, 1), 0) + py
        return dist
    rest = [(x, z) for x, z in _paulis(n - 1) if mode.endswith("full") or _weight(x, z) <= k - 1]
    share = (px + py) / (2 * len(rest))
    for x, z in rest:
        for z0 in (0, 1):  # X or Y on qubit 0
            key = (1 | x << 1, z0 | z << 1)
            dist[key] = dist.get(key, 0) + share
    return dist


def _brute_s_u(n, rates, mode, k):
    dist = _error_distribution(n, rates, mode, k)
    fids = []
    for px_, pz_ in _paulis(n):
        if px_ == pz_ == 0:
            continue
        fid = sum(q * (-1) ** (bin(px_ & ez).count("1") + bin(pz_ & ex).count("1")) for (ex, ez), q in dist.items())
        fids.append(fid)
    return sum(fids) / len(fids), sum(f * f for f in fids) / len(fids)


CASES = [
    (n, mode, k)
    for n in (1, 2, 3)
    for mode, k in (("none", None), ("analytic_full", None), ("full", None))
] + [(n, mode, k) for n in (2, 3) for k in range(1, n + 1) for mode in ("analytic_ksparse", "ksparse")]


@pytest.mark.parametrize("n,mode,k", CASES)
def test_strength_and_unitarity_match_enumeration(n, mode, k):
    rates = (0.013, 0.007, 0.021)
    assert checks.strength_and_unitarity(n, rates, mode, k) == _brute_s_u(n, rates, mode, k)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_whitenoise_bound_matches_enumeration(n):
    rates = (0.01, 0.01, 0.01)
    s, u = _brute_s_u(n, rates, "none", None)
    for depth in (1, 10, 50):
        expected = math.sqrt((2**n - 1) / (2**n + 1) * (1 - float(s * s / u) ** depth))
        assert checks.whitenoise_bound(n, rates, depth) == pytest.approx(expected, rel=1e-12)
    assert checks.whitenoise_bound(n, rates, 0) == 0.0


def test_rest_sign_mean_matches_enumeration():
    for m in (1, 2, 3):
        for max_weight in range(m + 1):
            members = [(x, z) for x, z in _paulis(m) if _weight(x, z) <= max_weight]
            for t in range(m + 1):
                probe_x = (1 << t) - 1
                signs = [(-1) ** bin(probe_x & z).count("1") for x, z in members]
                assert checks.rest_sign_mean(m, t, max_weight) == Fraction(sum(signs), len(signs))


def test_heisenberg_layer_count():
    # 3x3 grid: 12 bonds; chain of 4: 3 bonds
    assert checks.heisenberg_layers(3, 3, 2) == 72
    assert checks.heisenberg_layers(4, 1, 5) == 45


# ---------------------------------------------------------------------------
# each check fails on a perturbed output
# ---------------------------------------------------------------------------


def test_check_rescale_catches_relative_error():
    assert checks.check_rescale("r", 2.7 * (1 + 1e-10), 2.7) == []
    assert checks.check_rescale("r", 2.7 * (1 + 1e-6), 2.7)


def test_check_distances_catches_helstrom_violations():
    assert checks.check_distances("d", 0.3, 0.1) == []
    assert checks.check_distances("d", 0.1, 0.3)  # TV above trace distance
    assert checks.check_distances("d", 1.2, 0.1)
    assert checks.check_distances("d", 0.3, -0.01)


def test_check_under_bound():
    assert checks.check_under_bound("b", [0.1, 0.12, 0.11], 0.11) == []
    assert checks.check_under_bound("b", [0.2, 0.21, 0.19], 0.11)


def test_check_oracle():
    assert checks.check_oracle("o", 0.5, 0.5 + 1e-12) == []
    assert checks.check_oracle("o", 0.5, 0.5 + 1e-8)


def _trotter_rows():
    rows = []
    biases = {"none": 0.1, "analytic_ksparse:2": 0.02, "analytic_full": 1e-6}
    for lx, ly in workloads.TROTTER_SIZES:
        n = lx * ly
        layers = checks.heisenberg_layers(lx, ly, workloads.TROTTER_STEPS)
        rates = checks.split_rates(workloads.XY_NOISE, 1.0 / layers)
        for mode, k in workloads.TrotterAnalytic.modes:
            label = workloads._label(mode, k)
            r = checks.rescale_coefficient(n, rates, mode, k, layers)
            rows.append({"n": str(n), "mode": label, "mean_bias": repr(biases[label] / n), "R": repr(r)})
    return rows


@pytest.fixture
def trotter(tmp_path):
    return workloads.TrotterAnalytic(7, tmp_path)


def test_trotter_checks_pass_on_consistent_rows(trotter):
    problems, attempted, failed = trotter.check_round([_trotter_rows()], None)
    assert problems == [] and attempted == 9 and failed == 0


def test_trotter_checks_catch_r_off_by_1e_6(trotter):
    rows = _trotter_rows()
    rows[4]["R"] = repr(float(rows[4]["R"]) * (1 + 1e-6))
    assert trotter.check_round([rows], None)[0]


def test_trotter_checks_catch_swapped_mode_rows(trotter):
    rows = _trotter_rows()
    rows[0], rows[2] = rows[2], rows[0]
    assert trotter.check_round([rows], None)[0]


def test_trotter_checks_catch_broken_bias_order(trotter):
    rows = _trotter_rows()
    rows[1]["mean_bias"] = rows[0]["mean_bias"]  # k-sparse no better than untwirled
    assert trotter.check_round([rows], None)[0]


def _gadget_rows(full_at_zero):
    lx, ly = workloads.GADGET_SIZE
    n = lx * ly
    layers = checks.heisenberg_layers(lx, ly, workloads.GADGET_STEPS)
    rates = checks.split_rates(workloads.XY_NOISE, 1.0 / layers)
    biases = {
        0.0: {"none": 0.11, "full": full_at_zero, "ksparse:2": 0.025},
        1e-3: {"none": 0.11, "full": 0.025, "ksparse:2": 0.025},
        1e-1: {"none": 0.11, "full": 0.75, "ksparse:2": 0.32},
    }
    rows = []
    for ratio in workloads.GADGET_RATIOS:
        for mode, k in workloads.GadgetSampled.modes:
            label = workloads._label(mode, k)
            rows.append(
                {
                    "n": str(n),
                    "mode": label,
                    "p_D": repr(ratio / layers),
                    "mean_bias": repr(biases[ratio][label]),
                    "stderr": "0.001",
                    "R": repr(checks.rescale_coefficient(n, rates, mode, k, layers)),
                }
            )
    return rows


def test_gadget_known_fault_is_counted_not_fatal(tmp_path):
    gadget = workloads.GadgetSampled(7, tmp_path)
    assert gadget.check_round([_gadget_rows(1e-5)], 1e-5) == ([], 9, 0)
    assert gadget.check_round([_gadget_rows(0.02)], 1e-5) == ([], 9, 1)


def test_gadget_checks_catch_orderings(tmp_path):
    gadget = workloads.GadgetSampled(7, tmp_path)
    rows = _gadget_rows(0.02)
    rows[7]["mean_bias"] = "0.2"  # full below 2-sparse at ratio 1e-1
    assert gadget.check_round([rows], 1e-5)[0]
    rows = _gadget_rows(0.02)
    rows[3]["mean_bias"] = "0.01"  # untwirled beats the twirls at ratio 1e-3
    assert gadget.check_round([rows], 1e-5)[0]


def _distance_tables():
    scan = []
    for n in workloads.DISTANCE_SIZES:
        layers = checks.heisenberg_layers(n, 1, workloads.DISTANCE_STEPS)
        rates = checks.split_rates(workloads.DEPOLARIZING, 1.0 / layers)
        r = checks.rescale_coefficient(n, rates, "analytic_full", None, layers)
        scan.append(
            {"n": str(n), "num_layers": str(layers), "p_err": repr(1.0 / layers), "r": repr(r),
             "trace_distance": "0.1", "tv_distance": "0.02"}
        )
    control = [{"n": "3", "num_layers": "30", "p_err": "0.0", "r": "1.0", "trace_distance": "1e-15", "tv_distance": "2e-16"}]
    return [scan, control]


def test_distance_checks(tmp_path):
    dense = workloads.DenseDistance(7, tmp_path)
    assert dense.check_round(_distance_tables(), None) == ([], 5, 0)
    tables = _distance_tables()
    tables[0][2]["tv_distance"] = "0.2"  # TV above trace distance
    assert dense.check_round(tables, None)[0]
    tables = _distance_tables()
    tables[1][0]["trace_distance"] = "1e-8"  # noiseless control not at the ideal state
    assert dense.check_round(tables, None)[0]
    tables = _distance_tables()
    tables[0][1]["r"] = repr(float(tables[0][1]["r"]) * (1 + 1e-6))
    assert dense.check_round(tables, None)[0]


def _clifford_rows(bias):
    rows = []
    for depth, count in workloads.CLIFFORD_DEPTHS:
        rates = checks.split_rates(workloads.DEPOLARIZING, 1.0 / depth)
        r = checks.rescale_coefficient(workloads.CLIFFORD_QUBITS, rates, "none", None, depth)
        rows += [(depth, (1 + bias * (-1) ** i) / r, r) for i in range(count)]
    return rows


def test_clifford_checks(tmp_path):
    noise = workloads.CliffordNoise(7, tmp_path)
    assert noise.check_round(_clifford_rows(0.01)) == []
    assert noise.check_round(_clifford_rows(0.9))  # far above the white-noise bound
    rows = _clifford_rows(0.01)
    depth, fid, r = rows[0]
    rows[0] = (depth, fid, r * (1 + 1e-6))
    assert noise.check_round(rows)


# ---------------------------------------------------------------------------
# benchmark plumbing
# ---------------------------------------------------------------------------


def test_benchmark_json_lists_every_reported_metric():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == ["setup_s", "run_s", "peak_rss_mib"]
    assert doc["per_layer"] == tracing.per_layer_metrics()
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.WORKLOADS)


def test_tracer_self_times_add_up_and_uninstall_restores():
    import twirlkit

    original = twirlkit.circuits.clifford_mapping_z0_to
    axis = twirlkit.paulis.parse_pauli("XYZI")
    tracer = tracing.Tracer(twirlkit)
    tracer.install()
    try:
        twirlkit.circuits.clifford_mapping_z0_to(axis)
    finally:
        tracer.uninstall()
    assert twirlkit.circuits.clifford_mapping_z0_to is original
    calls, inclusive, _ = tracer.function("tableau.clifford_mapping_z0_to")
    assert calls == 1
    assert tracer.function("tableau.from_gates")[0] == 1
    assert tracer.counters["paulis.PauliOp.constructed"] > 0
    total_self = sum(tracer.layer_self.values())
    assert total_self == pytest.approx(inclusive, rel=1e-9, abs=1e-12)
