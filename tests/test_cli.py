"""End-to-end tests of the command-line front end.

Each scan runs in-process through ``main`` against a temp directory; CSVs
are parsed back and checked for determinism (modulo the timing column),
config-hash echoing, and the documented exit codes.
"""

import csv
import hashlib
import json
import subprocess
from pathlib import Path

import jsonschema
import pytest

import twirlkit.cli
from twirlkit.circuits import TWIRL_MODES, _draws_gadgets
from twirlkit.cli import (
    BudgetInput,
    ConfigError,
    _schema,
    error_budget,
    load_config,
    main,
)


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def strip_timing(header, rows):
    drop = header.index("runtime_ms")
    return [row[:drop] + row[drop + 1 :] for row in rows]


NOISY_BIAS = {
    "model": "heisenberg_1d",
    "sizes": [3],
    "steps": 2,
    "noise": {"px": 1, "py": 1},
    "p_tot": 0.3,
    "modes": [{"mode": "none"}, {"mode": "analytic_full"}],
    "num_paulis": 25,
    "seed": 11,
}


# ---------------------------------------------------------------------------
# budget calculator
# ---------------------------------------------------------------------------


class TestErrorBudget:
    def test_reference_decoding_rate(self):
        out = error_budget(BudgetInput(p_phys=1e-3, p_th=1e-2, distance=13))
        assert out["p_dec"] == pytest.approx(1e-8, rel=1e-12)

    def test_zero_counts_give_zero_totals(self):
        out = error_budget(BudgetInput(p_phys=1e-3, p_th=1e-2, distance=7))
        assert out["n_dec"] == 0 and out["n_dis"] == 0 and out["n_syn"] == 0
        assert out["n_err"] == 0

    def test_components_sum_exactly(self):
        out = error_budget(
            BudgetInput(
                p_phys=1e-3,
                p_th=1e-2,
                distance=11,
                volume=1e5,
                p_dis=1e-5,
                t_count=2000,
                p_rot=1e-6,
                rotation_count=1200,
            )
        )
        assert out["n_err"] == out["n_dec"] + out["n_dis"] + out["n_syn"]
        assert out["n_dec"] == pytest.approx(11 * out["p_dec"] * 1e5)
        assert out["n_dis"] == pytest.approx(0.02)
        assert out["n_syn"] == pytest.approx(0.0012)

    def test_validation(self):
        with pytest.raises(ValueError, match="odd"):
            BudgetInput(p_phys=1e-3, p_th=1e-2, distance=12)
        with pytest.raises(ValueError, match="positive"):
            BudgetInput(p_phys=1e-3, p_th=0.0, distance=13)
        with pytest.raises(ValueError, match="nonnegative"):
            BudgetInput(p_phys=-1e-3, p_th=1e-2, distance=13)

    def test_cli_budget_prints_json(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "b.json", {"p_phys": 1e-3, "p_th": 1e-2, "distance": 13}
        )
        assert main(["budget", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["p_dec"] == pytest.approx(1e-8, rel=1e-12)

    def test_cli_budget_rejects_even_distance(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "b.json", {"p_phys": 1e-3, "p_th": 1e-2, "distance": 12}
        )
        assert main(["budget", "--config", cfg]) == 2
        assert "odd" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


class TestConfigLoading:
    def test_hash_matches_raw_bytes(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", NOISY_BIAS)
        _, sha = load_config(cfg, "bias-scan")
        assert sha == hashlib.sha256(open(cfg, "rb").read()).hexdigest()

    def test_unknown_key_rejected_with_pointer(self, tmp_path):
        doc = dict(NOISY_BIAS, surprise=1)
        cfg = write_config(tmp_path, "c.json", doc)
        with pytest.raises(ConfigError, match="surprise"):
            load_config(cfg, "bias-scan")

    def test_nested_violation_pointer_path(self, tmp_path):
        doc = dict(NOISY_BIAS, modes=[{"mode": "sideways"}])
        cfg = write_config(tmp_path, "c.json", doc)
        with pytest.raises(ConfigError, match=r"/modes/0"):
            load_config(cfg, "bias-scan")

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path), "bias-scan")

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["budget", "--config", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate", "--config", "x.json"])
        assert info.value.code == 2

    def test_all_schemas_are_valid_json_schema(self):
        for name in (
            "bias_scan",
            "gadget_scan",
            "overhead",
            "wn_bound",
            "distance_scan",
            "twirl_verify",
            "budget",
            "manifest",
        ):
            jsonschema.Draft202012Validator.check_schema(_schema(name))

    def test_mode_enums_stay_on_the_mode_table(self):
        def mode_enums(node):
            if isinstance(node, dict):
                for key, value in node.items():
                    if key in ("mode", "twirl_mode"):
                        yield tuple(value["enum"])
                    yield from mode_enums(value)
            elif isinstance(node, list):
                for value in node:
                    yield from mode_enums(value)

        enums = {}
        for path in sorted((Path(twirlkit.cli.__file__).parent / "schemas").glob("*.json")):
            for modes in mode_enums(json.loads(path.read_text())):
                assert set(modes) <= set(TWIRL_MODES), path.name
                enums[path.stem] = set(modes)
        sampled = {mode for mode in TWIRL_MODES if _draws_gadgets(mode)}
        assert enums["gadget_scan"] <= sampled | {"none"}
        assert not enums["distance_scan"] & sampled
        assert enums["twirl_verify"] == sampled


# ---------------------------------------------------------------------------
# twirl-verify
# ---------------------------------------------------------------------------


class TestTwirlVerify:
    def test_full_mode_exact_zero(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "v.json", {"n": 2, "mode": "full", "noise": {"px": 0.2, "py": 0.1}}
        )
        assert main(["twirl-verify", "--config", cfg]) == 0
        assert "mass gap: 0 (exact rational)" in capsys.readouterr().out

    def test_ksparse_mode_exact_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "v.json", {"n": 3, "mode": "ksparse", "k": 2})
        assert main(["twirl-verify", "--config", cfg]) == 0
        assert "mass gap: 0" in capsys.readouterr().out

    def test_pure_z_reported_invariant(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "v.json", {"n": 2, "mode": "full", "noise": {"pz": 0.25}}
        )
        assert main(["twirl-verify", "--config", cfg]) == 0
        assert "left invariant: True" in capsys.readouterr().out

    def test_ksparse_requires_k(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "v.json", {"n": 3, "mode": "ksparse"})
        assert main(["twirl-verify", "--config", cfg]) == 2

    def test_schema_caps_register_size(self, tmp_path):
        cfg = write_config(tmp_path, "v.json", {"n": 9, "mode": "full"})
        assert main(["twirl-verify", "--config", cfg]) == 2


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


class TestOverheadScan:
    def test_csv_manifest_and_bound_ordering(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "o.json",
            {"p_err": 1e-3, "n": 4, "num_layers": [10, 100, 1000]},
        )
        out = tmp_path / "out"
        assert main(["overhead", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "overhead.csv")
        assert header[:2] == ["num_layers", "p_err"]
        assert len(rows) == 3
        _, sha = load_config(cfg, "overhead")
        for row in rows:
            record = dict(zip(header, row))
            assert record["config_sha256"] == sha
            assert float(record["overhead_rescaling"]) >= float(
                record["overhead_lower_bound"]
            )
        manifest = json.loads((out / "overhead_manifest.json").read_text())
        jsonschema.Draft202012Validator(_schema("manifest")).validate(manifest)
        assert manifest["rows"] == 3 and manifest["config_sha256"] == sha

    def test_hung_git_describe_falls_back_to_base_version(self, tmp_path, monkeypatch):
        def hang(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

        monkeypatch.setattr(twirlkit.cli.subprocess, "run", hang)
        cfg = write_config(tmp_path, "o.json", {"p_err": 1e-3, "n": 4, "num_layers": [10]})
        out = tmp_path / "out"
        assert main(["overhead", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "overhead_manifest.json").read_text())
        assert manifest["version"] and "+g" not in manifest["version"]


class TestBiasScan:
    def test_noiseless_bias_column_is_zero(self, tmp_path):
        doc = dict(NOISY_BIAS, noise={}, p_tot=0.0)
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "out"
        assert main(["bias-scan", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "bias_scan.csv")
        bias_col = header.index("mean_bias")
        assert all(float(row[bias_col]) == 0.0 for row in rows)

    def test_deterministic_for_fixed_seed(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", NOISY_BIAS)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["bias-scan", "--config", cfg, "--out", str(out)]) == 0
            header, rows = read_csv(out / "bias_scan.csv")
            outs.append(strip_timing(header, rows))
        assert outs[0] == outs[1]

    def test_thread_count_does_not_change_results(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", NOISY_BIAS)
        outs = []
        for sub, threads in (("a", "1"), ("b", "3")):
            out = tmp_path / sub
            assert (
                main(["bias-scan", "--config", cfg, "--out", str(out), "--threads", threads])
                == 0
            )
            header, rows = read_csv(out / "bias_scan.csv")
            outs.append(strip_timing(header, rows))
        assert outs[0] == outs[1]

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", NOISY_BIAS)
        outs = []
        for sub, seed in (("a", "11"), ("b", "99")):
            out = tmp_path / sub
            assert main(["bias-scan", "--config", cfg, "--out", str(out), "--seed", seed]) == 0
            header, rows = read_csv(out / "bias_scan.csv")
            outs.append(strip_timing(header, rows))
        untwirled_a = [r for r in outs[0] if r[1] == "none"]
        untwirled_b = [r for r in outs[1] if r[1] == "none"]
        assert untwirled_a != untwirled_b

    def test_twirl_improves_bias_in_output(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", NOISY_BIAS)
        out = tmp_path / "out"
        assert main(["bias-scan", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "bias_scan.csv")
        record = {row[header.index("mode")]: row for row in rows}
        bias_col = header.index("mean_bias")
        assert float(record["analytic_full"][bias_col]) < float(record["none"][bias_col])

    def test_missing_k_is_config_error(self, tmp_path, capsys):
        doc = dict(NOISY_BIAS, modes=[{"mode": "ksparse"}])
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["bias-scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_grid_is_checked_before_any_row_runs(self, tmp_path, monkeypatch):
        calls = []
        average_bias = twirlkit.cli.average_bias
        monkeypatch.setattr(twirlkit.cli, "average_bias", lambda *args: calls.append(args) or average_bias(*args))
        doc = dict(NOISY_BIAS, modes=[{"mode": "none"}, {"mode": "analytic_full"}, {"mode": "ksparse"}])
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["bias-scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert calls == []

    def test_non_clifford_angles_are_a_config_error(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(twirlkit.cli, "average_bias", lambda *args: calls.append(args))
        doc = dict(NOISY_BIAS, clifford_sim=False, dt=0.1)
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["bias-scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "clifford_sim" in err
        assert calls == []

    def test_size_shape_mismatch_is_config_error(self, tmp_path, capsys):
        doc = dict(NOISY_BIAS, model="heisenberg_2d", sizes=[3])
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["bias-scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "rows, cols" in capsys.readouterr().err


class TestGadgetScan:
    def test_gadget_column_tracks_ratio(self, tmp_path):
        doc = {
            "model": "heisenberg_1d",
            "sizes": [3],
            "steps": 1,
            "noise": {"px": 1, "py": 1},
            "p_tot": 0.12,
            "modes": [{"mode": "none"}, {"mode": "full"}],
            "ratios": [0.5],
            "num_paulis": 10,
            "shots": 20,
            "seed": 5,
        }
        cfg = write_config(tmp_path, "g.json", doc)
        out = tmp_path / "out"
        assert main(["gadget-scan", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "gadget_scan.csv")
        # six rotation layers, so per-layer p_err = 0.02 and p_D = 0.01
        col = header.index("p_D")
        assert all(float(row[col]) == pytest.approx(0.01) for row in rows)

    def test_analytic_modes_rejected_by_schema(self, tmp_path):
        doc = {
            "model": "heisenberg_1d",
            "sizes": [3],
            "steps": 1,
            "modes": [{"mode": "analytic_full"}],
            "ratios": [0.1],
        }
        cfg = write_config(tmp_path, "g.json", doc)
        assert main(["gadget-scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestWnBoundScan:
    def test_grid_rows_and_zero_budget(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "w.json",
            {"n_list": [2, 4], "num_layers": [10, 100], "p_tot": 1.0},
        )
        out = tmp_path / "out"
        assert main(["wn-bound", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "wn_bound.csv")
        assert len(rows) == 4
        for row in rows:
            record = dict(zip(header, row))
            assert 0 < float(record["bias_bound"]) < 1
            assert float(record["corollary_bound"]) > 0
        zero = write_config(
            tmp_path, "w0.json", {"n_list": [2], "num_layers": [5], "p_tot": 0.0}
        )
        assert main(["wn-bound", "--config", zero, "--out", str(out)]) == 0
        header, rows = read_csv(out / "wn_bound.csv")
        record = dict(zip(header, rows[0]))
        assert float(record["bias_bound"]) == 0.0 and float(record["s"]) == 1.0


class TestDistanceScan:
    def test_small_scan_and_cap(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "d.json",
            {
                "n_list": [2],
                "t_list": [1, 2],
                "theta": 0.3,
                "p_tot": 0.4,
                "num_inputs": 2,
                "num_bases": 2,
                "seed": 2,
            },
        )
        out = tmp_path / "out"
        assert main(["distance-scan", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "distance_scan.csv")
        assert len(rows) == 2
        record = dict(zip(header, rows[0]))
        assert float(record["r"]) > 1.0
        assert 0 <= float(record["tv_distance"]) <= float(record["trace_distance"]) + 1e-9

        big = write_config(
            tmp_path, "big.json", {"n_list": [99], "t_list": [1], "theta": 0.3, "p_tot": 0.1}
        )
        assert main(["distance-scan", "--config", big, "--out", str(out)]) == 3

    def test_missing_noise_key_reads_as_zero(self, tmp_path):
        columns = []
        for name, noise in (("short", {"px": 1}), ("long", {"px": 1, "py": 0, "pz": 0})):
            doc = {"n_list": [2, 3], "t_list": [1], "theta": 0.3, "p_tot": 0.4, "num_inputs": 1,
                   "num_bases": 1, "noise": noise, "seed": 2}
            out = tmp_path / name
            assert main(["distance-scan", "--config", write_config(tmp_path, f"{name}.json", doc), "--out", str(out)]) == 0
            header, rows = read_csv(out / "distance_scan.csv")
            columns.append([row[header.index("r")] for row in rows])
        assert columns[0] == columns[1]


# ---------------------------------------------------------------------------
# config rules: a config that breaks a twirl-mode or noise-budget rule is a
# configuration error (exit 2), not an internal failure
# ---------------------------------------------------------------------------

DISTANCE = {"n_list": [2, 3], "t_list": [1, 2], "theta": 0.3, "p_tot": 0.5, "num_inputs": 1, "num_bases": 1}


@pytest.mark.parametrize(
    "subcommand,doc,message",
    [
        ("twirl-verify", {"n": 2, "mode": "full", "noise": {"px": 0.7, "py": 0.7}}, "probability 1"),
        ("bias-scan", {**{key: v for key, v in NOISY_BIAS.items() if key != "p_tot"}, "noise": {"px": 0.7, "py": 0.7}},
         "probability 1"),
        ("distance-scan", dict(DISTANCE, noise={"px": 0, "py": 0, "pz": 0}), "nonzero noise weight"),
        ("distance-scan", dict(DISTANCE, p_tot=50), "exceeds probability 1"),
        ("distance-scan", dict(DISTANCE, twirl_mode="analytic_ksparse", k=3), "1 <= k <= 2"),
        ("gadget-scan", {"model": "heisenberg_1d", "sizes": [3], "steps": 1, "noise": {"px": 1}, "p_tot": 0.6,
                         "modes": [{"mode": "full"}], "ratios": [20]}, "gadget noise rate"),
    ],
)
def test_rule_violations_are_config_errors(tmp_path, capsys, subcommand, doc, message):
    cfg = write_config(tmp_path, "c.json", doc)
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


GADGET_SINGLE_SITE = {"model": "heisenberg_2d", "sizes": [[1, 1]], "steps": 1, "noise": {"px": 1},
                      "modes": [{"mode": "full"}], "ratios": [0.1], "num_paulis": 2, "shots": 2}


@pytest.mark.parametrize(
    "subcommand,doc",
    [
        ("bias-scan", dict(NOISY_BIAS, model="heisenberg_2d", sizes=[[1, 1]])),
        ("bias-scan", {**{key: v for key, v in NOISY_BIAS.items() if key != "p_tot"},
                       "model": "heisenberg_2d", "sizes": [[1, 1]], "noise": {"px": 0.01}}),
        ("gadget-scan", dict(GADGET_SINGLE_SITE, p_tot=0.1)),
        ("gadget-scan", dict(GADGET_SINGLE_SITE, noise={"px": 0.01})),
    ],
)
def test_model_without_trotter_terms_is_a_config_error(tmp_path, capsys, monkeypatch, subcommand, doc):
    calls = []
    monkeypatch.setattr(twirlkit.cli, "average_bias", lambda *args: calls.append(args))
    cfg = write_config(tmp_path, "c.json", doc)
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "no Trotter terms" in err
    assert calls == []


# ---------------------------------------------------------------------------
# the CSV contract: main appends the config hash and records the CSV it wrote
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "subcommand,doc",
    [
        ("bias-scan", NOISY_BIAS),
        ("gadget-scan", {"model": "heisenberg_1d", "sizes": [3], "steps": 1, "noise": {"px": 1}, "p_tot": 0.1,
                         "modes": [{"mode": "none"}, {"mode": "full"}], "ratios": [0, 0.5], "num_paulis": 4,
                         "shots": 2, "seed": 3}),
        ("overhead", {"p_err": 1e-3, "n": 4, "num_layers": [10, 100, 1000]}),
        ("wn-bound", {"n_list": [2, 3], "num_layers": [10, 100], "p_tot": 1.0}),
        ("distance-scan", dict(DISTANCE, t_list=[1], seed=4)),
    ],
)
def test_every_scan_keeps_the_csv_contract(tmp_path, subcommand, doc):
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "o"
    assert main([subcommand, "--config", cfg, "--out", str(out), "--seed", "9"]) == 0
    stem = subcommand.replace("-", "_")
    manifest = json.loads((out / f"{stem}_manifest.json").read_text())
    jsonschema.Draft202012Validator(_schema("manifest")).validate(manifest)
    assert manifest["config_sha256"] == load_config(cfg, subcommand)[1]
    assert manifest["subcommand"] == subcommand and manifest["seed"] == 9
    assert manifest["csv"] == f"{stem}.csv"
    header, rows = read_csv(out / manifest["csv"])
    assert header[-1] == "config_sha256" and header.count("config_sha256") == 1
    assert len(rows) == manifest["rows"] > 0
    assert all(len(row) == len(header) and row[-1] == manifest["config_sha256"] for row in rows)


# ---------------------------------------------------------------------------
# frozen scan values
# ---------------------------------------------------------------------------

# Small scans over every bias-scan mode and every gadget-scan mode.  The CSV
# values (all columns but runtime_ms and config_sha256) were recorded before
# the engine moved onto column batches; the sampled rows also pin the RNG
# stream of the gadget draws.
FROZEN_BIAS = {
    "model": "heisenberg_1d",
    "sizes": [3, 4],
    "steps": 2,
    "noise": {"px": 1, "py": 0.5, "pz": 0.25},
    "p_tot": 0.2,
    "modes": [
        {"mode": "none"},
        {"mode": "analytic_full"},
        {"mode": "analytic_ksparse", "k": 2},
        {"mode": "full"},
        {"mode": "ksparse", "k": 2},
    ],
    "num_paulis": 12,
    "shots": 3,
    "seed": 23,
}
FROZEN_BIAS_ROWS = [
    ["3", "none", "0.027887033901307257", "0.004826886944208852", "1.2256463062276284", "0.6424160744396211"],
    ["3", "analytic_full", "0.011814681928981366", "0.0022406350919070422", "1.2273015866983867", "0.16581414615695383"],
    ["3", "analytic_ksparse:2", "0.009639223530842095", "0.002923733214096916", "1.2271746536386503", "0.23877454115352714"],
    ["3", "full", "0.024029711877448262", "0.004208628699382286", "1.2273015866983867", "0.16581414615695383"],
    ["3", "ksparse:2", "0.01877060159517485", "0.003762187300460323", "1.2271746536386503", "0.23877454115352714"],
    ["4", "none", "0.023416229092949287", "0.007903514571929771", "1.2225559637262955", "0.6516516400224721"],
    ["4", "analytic_full", "0.00671399209491963", "0.0014715879505696483", "1.2236789376793227", "0.14908517886169131"],
    ["4", "analytic_ksparse:2", "0.009696394607915168", "0.0038793545534576515", "1.2235924068605233", "0.23069739598748437"],
    ["4", "full", "0.01295155824512124", "0.0034821795161361735", "1.2236789376793227", "0.14908517886169131"],
    ["4", "ksparse:2", "0.011882358807901033", "0.0030277013449082047", "1.2235924068605233", "0.23069739598748437"],
]
# A 4×4 grid in the deterministic modes: the frame checks and fidelity-table
# reads at a size where most qubits lie off each axis (recorded before the
# frame check moved onto the axis support).
FROZEN_GRID = {
    "model": "heisenberg_2d",
    "sizes": [[4, 4]],
    "steps": 2,
    "noise": {"px": 1, "py": 0.5, "pz": 0.25},
    "p_tot": 0.2,
    "modes": [{"mode": "none"}, {"mode": "analytic_full"}, {"mode": "analytic_ksparse", "k": 2}],
    "num_paulis": 40,
    "seed": 29,
}
FROZEN_GRID_ROWS = [
    ["16", "none", "0.015523689685548963", "0.001798003378234869", "1.2214267451860352", "0.6546536705301498"],
    ["16", "analytic_full", "0.002365762134398516", "0.0002614240074285925", "1.221565622258185", "0.14285714323965035"],
    ["16", "analytic_ksparse:2", "0.003571795313538162", "0.0004216818282720381", "1.2215629049456822", "0.16850509205758263"],
]
FROZEN_GADGET = {
    "model": "heisenberg_2d",
    "sizes": [[2, 2]],
    "steps": 1,
    "noise": {"px": 1, "py": 1},
    "p_tot": 0.1,
    "modes": [{"mode": "none"}, {"mode": "full"}, {"mode": "ksparse", "k": 2}],
    "ratios": [0, 0.5],
    "num_paulis": 8,
    "shots": 4,
    "seed": 31,
}
FROZEN_GADGET_ROWS = [
    ["4", "none", "0.0", "0.01890569063955652", "0.003743546026080379", "1.105604683486065", "0.7043283547980651"],
    ["4", "full", "0.0", "0.008477917213902314", "0.0016816940229141624", "1.1060677351136903", "0.062377330598134925"],
    ["4", "ksparse:2", "0.0", "0.008815878691160073", "0.004492590952555448", "1.1060280367429522", "0.2146588721030394"],
    ["4", "none", "0.004166666666666667", "0.02092039542568727", "0.00519113479612877", "1.105604683486065", "0.7043283547980651"],
    ["4", "full", "0.004166666666666667", "0.27114836135360726", "0.010538346039521567", "1.1060677351136903", "0.062377330598134925"],
    ["4", "ksparse:2", "0.004166666666666667", "0.17578868223886845", "0.005260175115570423", "1.1060280367429522", "0.2146588721030394"],
]


@pytest.mark.parametrize(
    "subcommand,doc,want",
    [
        ("bias-scan", FROZEN_BIAS, FROZEN_BIAS_ROWS),
        ("gadget-scan", FROZEN_GADGET, FROZEN_GADGET_ROWS),
        ("bias-scan", FROZEN_GRID, FROZEN_GRID_ROWS),
    ],
)
def test_scan_values_are_frozen(tmp_path, subcommand, doc, want):
    cfg = write_config(tmp_path, "c.json", doc)
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    header, rows = read_csv(tmp_path / "o" / f"{subcommand.replace('-', '_')}.csv")
    assert header[-2:] == ["runtime_ms", "config_sha256"]
    assert [row[:-2] for row in rows] == want
