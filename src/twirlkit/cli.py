"""Command-line experiment front end.

Every subcommand reads a JSON configuration validated against a schema
shipped with the package (unknown keys are rejected; violations are reported
with JSON-pointer paths).  A scan subcommand is a function
``(config, seed, threads) -> (header, rows)``; ``main`` alone appends the
``config_sha256`` column (the SHA-256 of the config file), names and writes
the CSV, and writes the provenance manifest recording the seed, the config
SHA-256, the package version, the wall time, the CSV name and its row count.
CSV content is a pure function of the config and seed, except for the
``runtime_ms`` timing column.

Subcommands:
    twirl-verify   exact rational sampler-vs-analytic channel comparison
    bias-scan      average bias over register sizes and twirl modes
    gadget-scan    bias under noisy scrambling gadgets, swept by rate ratio
    overhead       closed-form sampling-overhead curves
    wn-bound       white-noise bias bound over an (n, depth) grid
    distance-scan  dense-simulator distances of rescaled noisy states
    budget         fault-tolerant error-budget calculator

Exit codes: 0 success, 2 configuration error, 3 dense-cap exceeded,
1 internal failure.

The twirl-mode and noise-budget rules live in ``circuits``; ``_config_rules``
reports their ValueError as a configuration error.  A scan checks its whole
grid by building every row's circuit before it runs any row.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import metadata, resources
from pathlib import Path

import jsonschema
import numpy as np

from .channels import (
    PauliChannel,
    avg_noise_strength,
    distance_v,
    make_single_qubit_pauli_noise,
    unitarity,
)
from .circuits import (
    _check_twirl_mode,
    _draws_gadgets,
    _frame_channel,
    _resolve_rates,
    average_bias,
    build_trotter_circuit,
    corollary_bound,
    fermi_hubbard_2d,
    heisenberg_1d,
    heisenberg_2d,
    layer_noise_channel,
    optimal_rescale_coefficient,
    overhead_lower_bound,
    overhead_pec,
    overhead_rescaling,
    rz_axis_noise,
    tfim_2d,
    whitenoise_bias_bound,
)
from .paulis import PauliOp
from .twirl import TwirlGadget, enumerate_sampler_distribution


class ConfigError(Exception):
    """A configuration problem the user can fix; exit code 2."""


class CapExceededError(Exception):
    """A request beyond the dense simulator's qubit cap; exit code 3."""


@contextmanager
def _config_rules():
    """Report a ValueError from a rule call (never a simulation) as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# config loading and run artifacts
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _schema(name: str) -> dict:
    text = (resources.files("twirlkit") / "schemas" / f"{name}.json").read_text()
    return json.loads(text)


def _pointer(error: jsonschema.ValidationError) -> str:
    return "/" + "/".join(str(part) for part in error.absolute_path)


def load_config(path: str, subcommand: str) -> tuple[dict, str]:
    """Validated config document plus the SHA-256 of the raw file bytes."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    validator = jsonschema.Draft202012Validator(_schema(subcommand.replace("-", "_")))
    problems = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if problems:
        lines = [f"  at {_pointer(e)}: {e.message}" for e in problems]
        raise ConfigError("config violates the schema:\n" + "\n".join(lines))
    return doc, hashlib.sha256(raw).hexdigest()


def _version() -> str:
    try:
        base = metadata.version("twirlkit")
    except metadata.PackageNotFoundError:
        base = "0.0.0"
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if described.returncode == 0:
            return f"{base}+g{described.stdout.strip()}"
    except (OSError, subprocess.TimeoutExpired):
        pass
    return base


def _parallel(work, count: int, threads: int) -> list:
    """Run ``work(i)`` for i in range(count); output order is fixed and the
    result is independent of the thread count (each item owns its own seed)."""
    if threads <= 1:
        return [work(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, range(count)))


# ---------------------------------------------------------------------------
# shared experiment plumbing
# ---------------------------------------------------------------------------

_MODEL_BUILDERS = {
    "heisenberg_1d": heisenberg_1d,
    "heisenberg_2d": heisenberg_2d,
    "tfim_2d": tfim_2d,
    "fermi_hubbard_2d": fermi_hubbard_2d,
}


def _build_model(name: str, size):
    if name == "heisenberg_1d":
        if not isinstance(size, int):
            raise ConfigError(f"model {name} takes an integer chain length, got {size}")
        return _MODEL_BUILDERS[name](size)
    if isinstance(size, int):
        raise ConfigError(f"model {name} takes a [rows, cols] pair, got {size}")
    return _MODEL_BUILDERS[name](size[0], size[1])


def _noise_weights(config: dict, default: tuple) -> tuple:
    """The config's noise (px, py, pz), a missing key read as 0; ``default`` if absent or empty."""
    noise = config.get("noise")
    return tuple(noise.get(key, 0.0) for key in ("px", "py", "pz")) if noise else default


def _mode_label(mode: str, k: int | None) -> str:
    return f"{mode}:{k}" if k is not None else mode


def _layer_distance_v(circuit) -> float:
    """White-noise distance of the per-layer twirled channel (NaN if noiseless)."""
    layer = circuit.rotation_layers()[0]
    if layer.p_err == 0:
        return float("nan")
    return distance_v(layer_noise_channel(layer))


def _bias_grid_scan(config: dict, seed: int, threads: int, grid: list) -> list[list]:
    """Rows [n, mode, (extra...), mean_bias, stderr, R, v, runtime_ms].

    ``grid`` entries are (size, mode_cfg, p_D_ratio_or_None); a None ratio
    means plain bias-scan semantics with the config's gadget_noise_rate.
    """
    children = np.random.SeedSequence(seed).spawn(len(grid))
    steps = config["steps"]
    dt = config.get("dt", 0.1)
    clifford_sim = config.get("clifford_sim", True)
    num_paulis = config.get("num_paulis", 1000)
    shots = config.get("shots", 1000)
    weights = _noise_weights(config, (0.0, 0.0, 0.0))
    plans = []  # every row's circuit is built, and so checked, before any row runs
    with _config_rules():
        for size, mode_cfg, ratio in grid:
            model = _build_model(config["model"], size)
            mode, k = mode_cfg["mode"], mode_cfg.get("k")
            rates = _resolve_rates(weights, config.get("p_tot"), steps * len(model.trotter_terms))
            sweep_gadget = config.get("gadget_noise_rate", 0.0) if ratio is None else ratio * sum(rates)
            # only sampled modes insert gadgets, so only they can suffer gadget noise
            gadget = sweep_gadget if _draws_gadgets(mode) else 0.0
            noise = rz_axis_noise(*rates)
            circuit = build_trotter_circuit(
                model, steps, dt, clifford_sim, base_noise=noise, twirl_mode=mode, k=k, gadget_noise_rate=gadget
            )
            if any(layer.rotation_kind == "generic" for layer in circuit.rotation_layers()):
                raise ValueError(
                    f"clifford_sim is false and dt = {dt} gives non-Clifford rotation angles, "
                    "through which random observables cannot be propagated: set clifford_sim to true"
                )
            plans.append((circuit, _mode_label(mode, k), [] if ratio is None else [sweep_gadget]))

    def work(i: int) -> list:
        circuit, label, extra = plans[i]
        start = time.perf_counter()
        rng = np.random.default_rng(children[i])
        mean, err = average_bias(circuit, num_paulis, shots, rng)
        rescale = optimal_rescale_coefficient(circuit)
        v = _layer_distance_v(circuit)
        runtime_ms = (time.perf_counter() - start) * 1e3
        return [circuit.n, label, *extra, mean, err, rescale, v, runtime_ms]

    return _parallel(work, len(grid), threads)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_bias_scan(config: dict, seed: int, threads: int) -> tuple[list, list]:
    grid = [(size, mode, None) for size in config["sizes"] for mode in config["modes"]]
    rows = _bias_grid_scan(config, seed, threads, grid)
    header = ["n", "mode", "mean_bias", "stderr", "R", "v", "runtime_ms"]
    return header, rows


def cmd_gadget_scan(config: dict, seed: int, threads: int) -> tuple[list, list]:
    grid = [
        (size, mode, ratio)
        for size in config["sizes"]
        for ratio in config["ratios"]
        for mode in config["modes"]
    ]
    rows = _bias_grid_scan(config, seed, threads, grid)
    header = ["n", "mode", "p_D", "mean_bias", "stderr", "R", "v", "runtime_ms"]
    return header, rows


def cmd_overhead(config: dict, seed: int, threads: int) -> tuple[list, list]:
    p_err, n = config["p_err"], config["n"]
    rows = [
        [
            depth,
            p_err,
            overhead_rescaling(p_err, depth, n),
            overhead_pec(p_err, depth),
            overhead_lower_bound(p_err, depth, n),
        ]
        for depth in config["num_layers"]
    ]
    header = [
        "num_layers",
        "p_err",
        "overhead_rescaling",
        "overhead_pec",
        "overhead_lower_bound",
    ]
    return header, rows


def cmd_wn_bound(config: dict, seed: int, threads: int) -> tuple[list, list]:
    p_tot = config["p_tot"]
    weights = _noise_weights(config, (1.0, 1.0, 1.0))
    rows = []
    for n in config["n_list"]:
        for depth in config["num_layers"]:
            with _config_rules():
                rates = _resolve_rates(weights, p_tot, depth)
            p_err = sum(rates)
            if p_err > 0:
                ch = make_single_qubit_pauli_noise(n, 0, *rates)
                s, u = avg_noise_strength(ch), unitarity(ch)
                bound = whitenoise_bias_bound(s, u, depth, n)
                cor = corollary_bound(distance_v(ch), p_tot, depth)
            else:
                s = u = 1.0
                bound = cor = 0.0
            rows.append([n, depth, p_err, s, u, bound, cor])
    header = ["n", "num_layers", "p_err", "s", "u", "bias_bound", "corollary_bound"]
    return header, rows


def cmd_distance_scan(config: dict, seed: int, threads: int) -> tuple[list, list]:
    from .dense import _scan_circuit, dense_cap, rescaled_distance_scan

    biggest = max(config["n_list"])
    if biggest > dense_cap():
        raise CapExceededError(
            f"n = {biggest} exceeds the dense-simulator cap of {dense_cap()} "
            "(override with TWIRLKIT_DENSE_CAP)"
        )
    weights = _noise_weights(config, (1.0, 1.0, 1.0))
    mode = config.get("twirl_mode", "analytic_full")
    k = config.get("k")
    with _config_rules():  # every (n, T) circuit is built, and so checked, before the scan runs
        for n in config["n_list"]:
            for steps in config["t_list"]:
                _scan_circuit(n, steps, config["theta"], config["p_tot"], weights, mode, k)
    result = rescaled_distance_scan(
        config["n_list"],
        config["t_list"],
        config["theta"],
        config["p_tot"],
        config.get("num_inputs", 3),
        config.get("num_bases", 10),
        np.random.default_rng(np.random.SeedSequence(seed)),
        noise_weights=weights,
        twirl_mode=mode,
        k=k,
        haar_bases=config.get("haar_bases", False),
    )
    keys = [
        "n",
        "steps",
        "num_layers",
        "theta",
        "p_err",
        "r",
        "trace_distance",
        "trace_stderr",
        "tv_distance",
        "tv_stderr",
    ]
    return keys, [[row[key] for key in keys] for row in result]


# ---------------------------------------------------------------------------
# twirl-verify: exact rational sampler-vs-analytic comparison
# ---------------------------------------------------------------------------


def _mass_map(ch: PauliChannel, dist) -> dict[PauliOp, Fraction]:
    """Exact mass map of D·P·D† over a gadget distribution (float atom probabilities made rational)."""
    out: dict[PauliOp, Fraction] = {}
    for prob, ensemble in ch.atoms:
        share = Fraction(prob) / ensemble.cardinality
        for member in ensemble.members():
            for weight, gadget in dist:
                scrambled = gadget.conjugate_pauli(member).unsigned()
                out[scrambled] = out.get(scrambled, Fraction(0)) + weight * share
    return out


def cmd_twirl_verify(config: dict, sha: str) -> int:
    n, mode, k = config["n"], config["mode"], config.get("k")
    with _config_rules():
        _check_twirl_mode(mode, k, n)
        rates = _resolve_rates(_noise_weights(config, (1.0, 0.0, 0.0)), None, 1)
    base = _frame_channel(n, rates, "none", None)
    analytic = _frame_channel(n, rates, mode, k)
    dist = enumerate_sampler_distribution(n, mode, k)

    sampled = _mass_map(base, dist)
    expected = _mass_map(analytic, [(Fraction(1), TwirlGadget(n, (), frozenset()))])
    gaps = (abs(sampled.get(p, Fraction(0)) - expected.get(p, Fraction(0))) for p in sampled.keys() | expected.keys())
    discrepancy = max(gaps, default=Fraction(0))

    label = _mode_label(mode, k)
    print(f"twirl-verify: n={n} mode={label} rates={rates} config={sha[:12]}")
    print(f"  gadget outcomes enumerated: {len(dist)}")
    print(f"  scrambled support size: {len(sampled)} Paulis")
    print(f"  max |sampler - analytic| mass gap: {discrepancy} (exact rational)")
    if rates[0] == rates[1] == 0 and rates[2] > 0:
        print(f"  pure-Z channel left invariant: {analytic == base}")
    if discrepancy != 0:
        print("  MISMATCH between sampler average and analytic twirl", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# error-budget calculator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BudgetInput:
    """Inputs of the fault-tolerant error-budget estimate.

    Args:
        p_phys: Physical error rate.
        p_th: Code threshold (must be positive).
        distance: Code distance (odd).
        volume: Logical circuit volume (Pauli-measurement count × width).
        p_dis: Error rate of a distilled magic state.
        t_count: Number of π/8 rotations consuming magic states.
        p_rot: Gate-synthesis error per rotation.
        rotation_count: Number of synthesized rotation gates.
    """

    p_phys: float
    p_th: float
    distance: int
    volume: float = 0.0
    p_dis: float = 0.0
    t_count: int = 0
    p_rot: float = 0.0
    rotation_count: int = 0

    def __post_init__(self) -> None:
        numbers = (
            self.p_phys,
            self.p_th,
            self.volume,
            self.p_dis,
            self.t_count,
            self.p_rot,
            self.rotation_count,
        )
        if any(value < 0 for value in numbers):
            raise ValueError("budget inputs must be nonnegative")
        if self.p_th <= 0:
            raise ValueError("threshold p_th must be positive")
        if self.distance < 1 or self.distance % 2 == 0:
            raise ValueError("code distance must be a positive odd integer")


def error_budget(b: BudgetInput) -> dict[str, float]:
    """Decoding, distillation, and synthesis error totals and their sum.

    The decoding rate follows the standard surface-code estimate
    0.1·(p/p_th)^((d+1)/2); each contribution scales linearly with its count.
    """
    p_dec = 0.1 * (b.p_phys / b.p_th) ** ((b.distance + 1) // 2)
    n_dec = b.distance * p_dec * b.volume
    n_dis = b.p_dis * b.t_count
    n_syn = b.p_rot * b.rotation_count
    return {
        "p_dec": p_dec,
        "n_dec": n_dec,
        "n_dis": n_dis,
        "n_syn": n_syn,
        "n_err": n_dec + n_dis + n_syn,
    }


def cmd_budget(config: dict, sha: str) -> int:
    with _config_rules():
        budget = BudgetInput(
            p_phys=config["p_phys"],
            p_th=config["p_th"],
            distance=config["distance"],
            volume=config.get("volume", 0.0),
            p_dis=config.get("p_dis", 0.0),
            t_count=config.get("t_count", 0),
            p_rot=config.get("p_rot", 0.0),
            rotation_count=config.get("rotation_count", 0),
        )
    print(json.dumps(error_budget(budget), indent=2))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_SCAN_COMMANDS = {
    "bias-scan": cmd_bias_scan,
    "gadget-scan": cmd_gadget_scan,
    "overhead": cmd_overhead,
    "wn-bound": cmd_wn_bound,
    "distance-scan": cmd_distance_scan,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twirlkit",
        description="Noise-twirling experiments: scans to CSV, verifiers to stdout.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("twirl-verify", *_SCAN_COMMANDS, "budget"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory for CSV + manifest")
        p.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        config, sha = load_config(args.config, args.subcommand)
        seed = args.seed if args.seed is not None else config.get("seed", 0)
        if args.subcommand == "twirl-verify":
            return cmd_twirl_verify(config, sha)
        if args.subcommand == "budget":
            return cmd_budget(config, sha)
        header, rows = _SCAN_COMMANDS[args.subcommand](config, seed, args.threads)
        out_dir, stem = Path(args.out), args.subcommand.replace("-", "_")
        out_dir.mkdir(parents=True, exist_ok=True)
        with (out_dir / f"{stem}.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([*header, "config_sha256"])
            writer.writerows([*row, sha] for row in rows)
        manifest = {
            "subcommand": args.subcommand,
            "seed": seed,
            "config_sha256": sha,
            "wall_time_s": time.perf_counter() - started,
            "version": _version(),
            "csv": f"{stem}.csv",
            "rows": len(rows),
        }
        jsonschema.Draft202012Validator(_schema("manifest")).validate(manifest)
        (out_dir / f"{stem}_manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        print(f"{args.subcommand}: wrote {len(rows)} rows to {out_dir}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 — the CLI boundary reports and exits
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
