"""The benchmark workloads.

``BENCHMARK.json`` lists three of the four below; ``clifford-noise`` runs and
checks the same way but is kept out of it (see the README).

Each workload builds its inputs from the workload seed when it is created
(the set-up), then runs whole *rounds* of identical work: one round is what
one user request costs, a CLI invocation or a batch of library calls.  The
program sees only the generated configs and inputs.  ``check`` tests every
round's outputs against values computed apart from the program
(``checks``) or against properties the method must have, and returns the
problems, the operations attempted and the operations that failed.

Workloads and why each is here:

* ``trotter-analytic`` — ``twirlkit bias-scan`` over three grid sizes and
  the deterministic twirl modes: the engine's single pass over many
  rotation layers, with per-layer frames from ``tableau``/``paulis``.
* ``gadget-sampled`` — ``twirlkit gadget-scan`` with noisy sampled gadgets:
  the same engine run as many narrow per-shot passes, each replaying
  gadget gates drawn by ``twirl``.
* ``dense-distance`` — ``twirlkit distance-scan``: the dense oracle and
  numpy; the engine is not used.
* ``clifford-noise`` — library calls on random-Clifford circuits with
  depolarizing noise layers: ``tableau`` sampling and decomposition and
  ``channels.pauli_fidelity`` carry the work.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

import twirlkit
import twirlkit.cli
import twirlkit.dense

import checks
from tracing import LAYERS

TROTTER_SIZES = ((3, 3), (4, 4), (5, 5))
TROTTER_STEPS = 2
TROTTER_OBSERVABLES = 500
GADGET_SIZE = (3, 3)
GADGET_STEPS = 2
GADGET_RATIOS = (0.0, 1e-3, 1e-1)
GADGET_OBSERVABLES = 100
GADGET_SHOTS = 4
DISTANCE_SIZES = (3, 4, 5, 6)
DISTANCE_STEPS = 2
DISTANCE_THETA = 0.3
CONTROL_SIZE = 3
CONTROL_STEPS = 5
CLIFFORD_QUBITS = 4
CLIFFORD_DEPTHS = ((10, 8), (50, 5))  # (depth, circuits per round)
ORACLE_OBSERVABLES = 3
ORACLE_CIRCUITS = 2
DT = 0.1
XY_NOISE = (1.0, 1.0, 0.0)  # px = py, no pz
DEPOLARIZING = (1.0, 1.0, 1.0)


def program_cache_clearers() -> list:
    """``cache_clear`` of every memo the package keeps at module level.

    Rounds start from empty memos, as every CLI invocation does.
    """
    return [
        obj.cache_clear
        for layer in LAYERS
        for obj in vars(getattr(twirlkit, layer)).values()
        if callable(getattr(obj, "cache_clear", None))
    ]


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def _mode_entries(modes: tuple[tuple[str, int | None], ...]) -> list[dict]:
    return [{"mode": m} if k is None else {"mode": m, "k": k} for m, k in modes]


def _label(mode: str, k: int | None) -> str:
    return mode if k is None else f"{mode}:{k}"


class CliWorkload:
    """A workload that runs ``twirlkit <subcommand>`` configs in-process."""

    subcommand = ""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        out_dir.mkdir(parents=True, exist_ok=True)
        self.calls = []  # (argv, csv path)
        for index, config in enumerate(self.configs()):
            path = out_dir / f"config_{index}.json"
            path.write_text(json.dumps(config, indent=1))
            twirlkit.cli.load_config(str(path), self.subcommand)
            run_dir = out_dir / f"run_{index}"
            argv = [self.subcommand, "--config", str(path), "--out", str(run_dir), "--threads", "1"]
            self.calls.append((argv, run_dir / f"{self.subcommand.replace('-', '_')}.csv"))

    def configs(self) -> list[dict]:
        raise NotImplementedError

    def round(self) -> list[int]:
        with contextlib.redirect_stdout(io.StringIO()):
            return [twirlkit.cli.main(argv) for argv, _ in self.calls]

    def collect(self, codes: list[int]) -> tuple[list[int], list[list[dict]]]:
        if any(codes):
            return codes, []
        return codes, [_read_csv(path) for _, path in self.calls]

    def check(self, outputs) -> tuple[list[str], int, int]:
        problems: list[str] = []
        attempted = failed = 0
        reference = self.reference()
        problems += self.oracle()
        for number, (codes, tables) in enumerate(outputs):
            if any(codes):
                problems.append(f"round {number}: exit codes {codes}")
                continue
            round_problems, ops, fails = self.check_round(tables, reference)
            problems += [f"round {number}: {p}" for p in round_problems]
            attempted += ops
            failed += fails
        return problems, attempted, failed

    def reference(self):
        """A value from library calls that ``check_round`` compares against."""
        return None

    def oracle(self) -> list[str]:
        """Problems found by comparing the engine with the dense oracle."""
        return []


class TrotterAnalytic(CliWorkload):
    subcommand = "bias-scan"
    modes = (("none", None), ("analytic_ksparse", 2), ("analytic_full", None))

    def configs(self) -> list[dict]:
        return [
            {
                "model": "heisenberg_2d",
                "sizes": [list(size) for size in TROTTER_SIZES],
                "steps": TROTTER_STEPS,
                "dt": DT,
                "clifford_sim": True,
                "noise": {"px": XY_NOISE[0], "py": XY_NOISE[1]},
                "p_tot": 1.0,
                "modes": _mode_entries(self.modes),
                "num_paulis": TROTTER_OBSERVABLES,
                "seed": self.seed,
            }
        ]

    def check_round(self, tables, reference):
        (rows,) = tables
        problems = []
        expected = [(size, mode, k) for size in TROTTER_SIZES for mode, k in self.modes]
        if len(rows) != len(expected):
            return [f"bias-scan wrote {len(rows)} rows, expected {len(expected)}"], len(expected), 0
        bias = {}
        for row, ((lx, ly), mode, k) in zip(rows, expected):
            n = lx * ly
            layers = checks.heisenberg_layers(lx, ly, TROTTER_STEPS)
            rates = checks.split_rates(XY_NOISE, 1.0 / layers)
            label = f"bias-scan n={n} {_label(mode, k)}"
            if int(row["n"]) != n or row["mode"] != _label(mode, k):
                problems.append(f"{label}: row is n={row['n']} mode={row['mode']}")
                continue
            problems += checks.check_rescale(label, float(row["R"]), checks.rescale_coefficient(n, rates, mode, k, layers))
            bias[n, mode] = float(row["mean_bias"])
        for lx, ly in TROTTER_SIZES:
            n = lx * ly
            ordered = [(mode, bias.get((n, mode), math.nan)) for mode, _ in self.modes]
            problems += checks.check_strict_order(f"bias-scan n={n}", ordered)
        return problems, len(rows), 0

    def oracle(self) -> list[str]:
        """Engine against the dense oracle on the same circuit built at 2×2."""
        circuits, dense = twirlkit.circuits, twirlkit.dense
        layers = checks.heisenberg_layers(2, 2, TROTTER_STEPS)
        rates = checks.split_rates(XY_NOISE, 1.0 / layers)
        rng = np.random.default_rng(self.seed)
        problems = []
        for mode, k in self.modes:
            c = circuits.build_trotter_circuit(
                circuits.heisenberg_2d(2, 2), TROTTER_STEPS, DT, True,
                base_noise=circuits.rz_axis_noise(*rates), twirl_mode=mode, k=k,
            )
            for _ in range(ORACLE_OBSERVABLES):
                p = twirlkit.paulis.random_pauli(4, exclude_identity=True, rng=rng)
                engine, _ = circuits.effective_fidelity(c, p, 1)
                problems += checks.check_oracle(f"2x2 {_label(mode, k)} {p}", engine, dense.effective_fidelity_dense(c, p))
        return problems


class GadgetSampled(CliWorkload):
    subcommand = "gadget-scan"
    modes = (("none", None), ("full", None), ("ksparse", 2))

    def configs(self) -> list[dict]:
        return [
            {
                "model": "heisenberg_2d",
                "sizes": [list(GADGET_SIZE)],
                "steps": GADGET_STEPS,
                "dt": DT,
                "clifford_sim": True,
                "noise": {"px": XY_NOISE[0], "py": XY_NOISE[1]},
                "p_tot": 1.0,
                "modes": _mode_entries(self.modes),
                "ratios": list(GADGET_RATIOS),
                "num_paulis": GADGET_OBSERVABLES,
                "shots": GADGET_SHOTS,
                "seed": self.seed,
            }
        ]

    def check_round(self, tables, analytic_full_bias):
        (rows,) = tables
        problems = []
        lx, ly = GADGET_SIZE
        n = lx * ly
        layers = checks.heisenberg_layers(lx, ly, GADGET_STEPS)
        p_err = 1.0 / layers
        rates = checks.split_rates(XY_NOISE, p_err)
        expected = [(ratio, mode, k) for ratio in GADGET_RATIOS for mode, k in self.modes]
        if len(rows) != len(expected):
            return [f"gadget-scan wrote {len(rows)} rows, expected {len(expected)}"], len(expected), 0
        bias = {}
        failed = 0
        for row, (ratio, mode, k) in zip(rows, expected):
            label = f"gadget-scan ratio={ratio} {_label(mode, k)}"
            if int(row["n"]) != n or row["mode"] != _label(mode, k):
                problems.append(f"{label}: row is n={row['n']} mode={row['mode']}")
                continue
            gadget_rate = ratio * p_err
            if abs(float(row["p_D"]) - gadget_rate) > 1e-12 * gadget_rate:
                problems.append(f"{label}: p_D = {row['p_D']}, expected {gadget_rate!r}")
            problems += checks.check_rescale(label, float(row["R"]), checks.rescale_coefficient(n, rates, mode, k, layers))
            bias[ratio, mode] = float(row["mean_bias"])
            if mode == "full" and ratio == 0.0:
                # Clean gadgets average to the analytic full twirl, so the two
                # biases should agree.  They do not: the sampled bias carries
                # shot noise that its stderr leaves out.  Counted, not fatal.
                if not checks.bias_consistent(bias[ratio, mode], float(row["stderr"]), analytic_full_bias):
                    failed += 1
        for ratio in GADGET_RATIOS:
            if ratio <= 1e-3:
                for mode in ("full", "ksparse"):
                    problems += checks.check_strict_order(
                        f"gadget-scan ratio={ratio}", [("none", bias.get((ratio, "none"), math.nan)), (mode, bias.get((ratio, mode), math.nan))]
                    )
        top = max(GADGET_RATIOS)
        problems += checks.check_strict_order(
            f"gadget-scan ratio={top}", [("full", bias.get((top, "full"), math.nan)), ("ksparse:2", bias.get((top, "ksparse"), math.nan))]
        )
        # Gadget noise raises the full-twirl bias.  Only the top ratio is
        # compared: between ratios 0 and 1e-3 the shot noise counted as bias
        # is as large as the rise, and the order flips on some seeds.
        for ratio in GADGET_RATIOS:
            if ratio < top:
                problems += checks.check_strict_order(
                    "gadget-scan full bias vs ratio",
                    [(f"full@{top}", bias.get((top, "full"), math.nan)), (f"full@{ratio}", bias.get((ratio, "full"), math.nan))],
                )
        return problems, len(rows), failed

    def reference(self) -> float:
        """analytic_full bias of the same circuit, from library calls."""
        circuits = twirlkit.circuits
        lx, ly = GADGET_SIZE
        rates = checks.split_rates(XY_NOISE, 1.0 / checks.heisenberg_layers(lx, ly, GADGET_STEPS))
        c = circuits.build_trotter_circuit(
            circuits.heisenberg_2d(lx, ly), GADGET_STEPS, DT, True,
            base_noise=circuits.rz_axis_noise(*rates), twirl_mode="analytic_full",
        )
        bias, _ = circuits.average_bias(c, GADGET_OBSERVABLES, 1, np.random.default_rng(self.seed))
        return bias


class DenseDistance(CliWorkload):
    subcommand = "distance-scan"

    def configs(self) -> list[dict]:
        scan = {
            "n_list": list(DISTANCE_SIZES),
            "t_list": [DISTANCE_STEPS],
            "theta": DISTANCE_THETA,
            "p_tot": 1.0,
            "num_inputs": 2,
            "num_bases": 6,
            "seed": self.seed,
        }
        control = {**scan, "n_list": [CONTROL_SIZE], "t_list": [CONTROL_STEPS], "p_tot": 0.0}
        return [scan, control]

    def check_round(self, tables, reference):
        scan, control = tables
        problems = []
        if len(scan) != len(DISTANCE_SIZES) or len(control) != 1:
            return [f"distance-scan wrote {len(scan)} + {len(control)} rows"], len(DISTANCE_SIZES) + 1, 0
        for row, n in zip(scan, DISTANCE_SIZES):
            label = f"distance-scan n={n}"
            if int(row["n"]) != n:
                problems.append(f"{label}: row is n={row['n']}")
                continue
            layers = checks.heisenberg_layers(n, 1, DISTANCE_STEPS)
            p_err = 1.0 / layers
            if int(row["num_layers"]) != layers or abs(float(row["p_err"]) - p_err) > 1e-15:
                problems.append(f"{label}: {row['num_layers']} layers at p_err {row['p_err']}")
            rates = checks.split_rates(DEPOLARIZING, p_err)
            expected = checks.rescale_coefficient(n, rates, "analytic_full", None, layers)
            problems += checks.check_rescale(label, float(row["r"]), expected)
            problems += checks.check_distances(label, float(row["trace_distance"]), float(row["tv_distance"]))
        (row,) = control
        label = "distance-scan noiseless control"
        problems += checks.check_rescale(label, float(row["r"]), 1.0)
        for key in ("trace_distance", "tv_distance"):
            if not 0.0 <= float(row[key]) <= 1e-9:
                problems.append(f"{label}: {key} = {row[key]}")
        return problems, len(scan) + len(control), 0


class CliffordNoise:
    """Random n=4 Clifford layers alternating with depolarizing noise layers."""

    def __init__(self, seed: int, out_dir: Path):
        circuits, channels = twirlkit.circuits, twirlkit.channels
        self.seed = seed
        self.observable = twirlkit.paulis.parse_pauli("Z" + "I" * (CLIFFORD_QUBITS - 1))
        self.noise = {
            depth: circuits.NoiseLayer(
                channels.make_single_qubit_pauli_noise(CLIFFORD_QUBITS, 0, *checks.split_rates(DEPOLARIZING, 1.0 / depth))
            )
            for depth, _ in CLIFFORD_DEPTHS
        }
        self.oracle_cases: list[tuple] = []  # (depth, circuit, engine fidelity)

    def round(self) -> tuple[list[tuple], list]:
        circuits, tableau = twirlkit.circuits, twirlkit.tableau
        rows, drawn = [], []
        for depth, count in CLIFFORD_DEPTHS:
            rng = np.random.default_rng([self.seed, depth])
            for _ in range(count):
                layers = []
                for _ in range(depth):
                    op = tableau.random_clifford(CLIFFORD_QUBITS, rng)
                    layers.append(circuits.CliffordLayer(op, tuple(tableau.decompose_gates(op))))
                    layers.append(self.noise[depth])
                c = circuits.LogicalCircuit(CLIFFORD_QUBITS, tuple(layers))
                fidelity, _ = circuits.effective_fidelity(c, self.observable, 1, rng)
                rows.append((depth, fidelity, circuits.optimal_rescale_coefficient(c)))
                drawn.append(c)
        return rows, drawn

    def collect(self, result) -> list[tuple]:
        """The (depth, fidelity, R) rows; the first round's circuits are kept
        for the oracle, so memory does not grow with the number of rounds."""
        rows, drawn = result
        if not self.oracle_cases:
            for depth, _ in CLIFFORD_DEPTHS:
                cases = [(c, row[1]) for row, c in zip(rows, drawn) if row[0] == depth]
                self.oracle_cases += [(depth, c, fidelity) for c, fidelity in cases[:ORACLE_CIRCUITS]]
        return rows

    def check(self, outputs) -> tuple[list[str], int, int]:
        problems = self.oracle()
        attempted = 0
        for number, rows in enumerate(outputs):
            problems += [f"round {number}: {p}" for p in self.check_round(rows)]
            attempted += len(rows)
        return problems, attempted, 0

    def check_round(self, rows) -> list[str]:
        problems = []
        for depth, count in CLIFFORD_DEPTHS:
            rates = checks.split_rates(DEPOLARIZING, 1.0 / depth)
            expected_r = checks.rescale_coefficient(CLIFFORD_QUBITS, rates, "none", None, depth)
            biases = []
            for index, (d, fidelity, r) in enumerate(rows):
                if d == depth:
                    problems += checks.check_rescale(f"depth {depth} circuit {index}", r, expected_r)
                    biases.append(abs(r * abs(fidelity) - 1.0))
            if len(biases) != count:
                problems.append(f"depth {depth}: {len(biases)} circuits, expected {count}")
                continue
            bound = checks.whitenoise_bound(CLIFFORD_QUBITS, rates, depth)
            problems += checks.check_under_bound(f"depth {depth}", biases, bound)
        return problems

    def oracle(self) -> list[str]:
        """Engine against the dense oracle on the first circuits of each depth."""
        problems = []
        for depth, c, fidelity in self.oracle_cases:
            dense = twirlkit.dense.effective_fidelity_dense(c, self.observable)
            problems += checks.check_oracle(f"depth {depth} circuit", fidelity, dense)
        return problems


WORKLOADS = {
    "trotter-analytic": TrotterAnalytic,
    "gadget-sampled": GadgetSampled,
    "dense-distance": DenseDistance,
    "clifford-noise": CliffordNoise,
}
