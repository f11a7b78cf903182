"""Reference values and output checks of the benchmark, made apart from twirlkit.

Nothing here imports the package under test.  The rescaling coefficient
R = (s/u)^L and the white-noise bias bound are recomputed from closed-form
Pauli fidelities of the per-layer channel, summed over Pauli classes: a
nonidentity n-qubit Pauli P is classed by its letter on qubit 0 and the
weight t of its part on the other m = n − 1 qubits, and there are
C(m, t)·3^t Paulis in each class.

Each ``check_*`` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

# Sign of commuting the letter of P on qubit 0 past a one-qubit error letter.
_SIGN = {
    (p, e): 1 if p in ("I", e) else -1 for p in "IXYZ" for e in "XYZ"
}

_TWIRL_FAMILY = {
    "none": "none",
    "full": "full",
    "analytic_full": "full",
    "ksparse": "ksparse",
    "analytic_ksparse": "ksparse",
}


def heisenberg_layers(lx: int, ly: int, steps: int) -> int:
    """Rotation layers of a Heisenberg Trotter circuit on an open lx×ly grid.

    Every nearest-neighbour bond contributes XX, YY and ZZ once per step; a
    chain of length n is the grid n×1.
    """
    bonds = ly * (lx - 1) + lx * (ly - 1)
    return 3 * bonds * steps


def split_rates(weights: tuple[float, float, float], p_err: float) -> tuple[float, float, float]:
    """Per-layer (px, py, pz): the weights scaled to sum to p_err."""
    total = sum(weights)
    return tuple(w / total * p_err for w in weights)


def rest_sign_mean(m: int, t: int, max_weight: int) -> Fraction:
    """Mean commutation sign of a weight-t Pauli on m qubits against a
    uniform Pauli of weight at most ``max_weight`` on the same m qubits.

    A member of weight j that overlaps the support of the probe on a sites
    contributes (−1)^a summed over its letters there (one of three letters
    commutes) and 3^(j−a) choices elsewhere.
    """
    total = 0
    size = 0
    for j in range(max_weight + 1):
        size += math.comb(m, j) * 3**j
        for a in range(min(j, t) + 1):
            total += (-1) ** a * math.comb(t, a) * math.comb(m - t, j - a) * 3 ** (j - a)
    return Fraction(total, size)


def class_fidelities(
    n: int, rates: tuple[float, float, float], mode: str, k: int | None = None
) -> list[tuple[int, Fraction]]:
    """(count, Pauli fidelity) for every class of nonidentity Paulis.

    The channel is one-qubit Pauli noise (px, py, pz) on qubit 0, averaged
    by the twirl of ``mode``: the full twirl spreads X and Y errors over
    {X, Y} on qubit 0 times every Pauli on the other qubits; the k-sparse
    twirl spreads them over {X, Y} times the Paulis of weight ≤ k − 1 on the
    other qubits.  Z errors commute with the symmetry and stay put.
    """
    family = _TWIRL_FAMILY[mode]
    px, py, pz = (Fraction(r) for r in rates)
    m = n - 1
    out = []
    for letter in "IXYZ":
        for t in range(m + 1):
            count = math.comb(m, t) * 3**t
            if letter == "I" and t == 0:
                count -= 1  # the identity itself
            if count == 0:
                continue
            if family == "none":
                fid = 1 - px - py - pz
                fid += px * _SIGN[letter, "X"] + py * _SIGN[letter, "Y"] + pz * _SIGN[letter, "Z"]
            else:
                # mean sign against {X, Y} on qubit 0: 1 for I, −1 for Z, 0 for X and Y
                xy0 = Fraction(_SIGN[letter, "X"] + _SIGN[letter, "Y"], 2)
                if family == "full":
                    rest = 1 if t == 0 else 0
                else:
                    rest = rest_sign_mean(m, t, k - 1)
                fid = 1 - px - py - pz + pz * _SIGN[letter, "Z"] + (px + py) * xy0 * rest
            out.append((count, fid))
    return out


def strength_and_unitarity(
    n: int, rates: tuple[float, float, float], mode: str, k: int | None = None
) -> tuple[Fraction, Fraction]:
    """(s, u): mean and mean square of the Pauli fidelities over nonidentity Paulis."""
    classes = class_fidelities(n, rates, mode, k)
    total = 4**n - 1
    s = sum(count * fid for count, fid in classes) / total
    u = sum(count * fid * fid for count, fid in classes) / total
    return s, u


@lru_cache(maxsize=None)
def rescale_coefficient(
    n: int, rates: tuple[float, float, float], mode: str, k: int | None, num_layers: int
) -> float:
    """R = (s/u)^L for L identical noisy layers."""
    s, u = strength_and_unitarity(n, rates, mode, k)
    return float(s / u) ** num_layers


def whitenoise_bound(n: int, rates: tuple[float, float, float], num_layers: int) -> float:
    """Bias bound of the rescaled estimator against exact white noise,
    sqrt((2^n − 1)/(2^n + 1)·(1 − (s²/u)^L)), for untwirled one-qubit noise."""
    s, u = strength_and_unitarity(n, rates, "none")
    ratio = min(float(s * s / u), 1.0)
    return math.sqrt((2**n - 1) / (2**n + 1) * (1.0 - ratio**num_layers))


# ---------------------------------------------------------------------------
# checks on program outputs
# ---------------------------------------------------------------------------

RESCALE_REL_TOL = 1e-9
ORACLE_ABS_TOL = 1e-10


def check_rescale(label: str, got: float, expected: float) -> list[str]:
    if abs(got - expected) <= RESCALE_REL_TOL * abs(expected):
        return []
    return [f"{label}: R = {got!r}, expected (s/u)^L = {expected!r}"]


def check_strict_order(label: str, named: list[tuple[str, float]]) -> list[str]:
    """The values must fall strictly in the order given, largest first."""
    problems = []
    for (a, va), (b, vb) in zip(named, named[1:]):
        if not va > vb:
            problems.append(f"{label}: expected {a} ({va:.6g}) > {b} ({vb:.6g})")
    return problems


def check_distances(label: str, trace_d: float, tv_d: float) -> list[str]:
    """0 ≤ TV ≤ trace distance ≤ 1: a measurement never separates two states
    better than their trace distance (Helstrom)."""
    if 0.0 <= tv_d <= trace_d <= 1.0:
        return []
    return [f"{label}: need 0 <= TV ({tv_d!r}) <= trace ({trace_d!r}) <= 1"]


def check_oracle(label: str, engine: float, dense: float) -> list[str]:
    if abs(engine - dense) <= ORACLE_ABS_TOL:
        return []
    return [f"{label}: engine {engine!r} vs dense oracle {dense!r}"]


def check_under_bound(label: str, biases: list[float], bound: float) -> list[str]:
    """Mean bias at most three standard errors above the bound."""
    count = len(biases)
    mean = sum(biases) / count
    var = sum((b - mean) ** 2 for b in biases) / (count - 1)
    stderr = math.sqrt(var / count)
    if mean <= bound + 3 * stderr:
        return []
    return [f"{label}: mean bias {mean:.6g} ± {stderr:.2g} above white-noise bound {bound:.6g}"]


def bias_consistent(bias: float, stderr: float, reference: float) -> bool:
    """A bias agrees with a reference value within three reported standard errors."""
    return abs(bias - reference) <= 3 * stderr
