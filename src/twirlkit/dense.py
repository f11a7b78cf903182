"""Small-register dense density-matrix simulator — the ground-truth oracle.

Exact state evolution for every construct the fast engine handles
symbolically: unitaries, Pauli-axis rotations at arbitrary angles, structured
Pauli channels, and full logical circuits including sampled twirl gadgets.
A circuit has one ideal path, U·ρ·U† with U from ``circuit_unitary``, and
one noisy path, a forward pass per shot averaged over the shots when a layer
draws gadgets; the layers decide whether they sample and draw their own
gadgets.  In its frame a rotation layer is exp(iθZ₀), applied as one
elementwise phase.  Clifford unitaries are built one gate at a time as row operations on the
running matrix, never as full matrix products.  Pauli channels act through
one single-qubit block rule, ``_pauli_mix_qubit``: dephasing and the XY pair
apply one fixed mix per qubit, points conjugate one letter at a time, and
weight-capped member sums run one recursion over the register's qubits.  A
full register group is one partial trace with the maximally mixed state put
back.  Equal ensembles of a channel are applied once, so twirled channels
stay tractable up to the dense cap without expanding every error.

The cap defaults to 10 qubits and can be overridden with the
``TWIRLKIT_DENSE_CAP`` environment variable.
"""

from __future__ import annotations

import math
import os
import string
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import (
    DiagonalIZFactor,
    FullGroupFactor,
    FullGroupMinusIdentityFactor,
    PauliChannel,
    PauliEnsemble,
    PointFactor,
    WeightAtMostFactor,
    XYSetFactor,
    _merged_atoms,
)
from .circuits import (
    CliffordLayer,
    LogicalCircuit,
    NoiseLayer,
    RotationLayer,
    _frame_channel,
    _mean_stderr,
    _resolve_rates,
    build_trotter_circuit,
    heisenberg_1d,
    layer_noise_channel,
    optimal_rescale_coefficient,
    rz_axis_noise,
)
from .paulis import PauliOp
from .tableau import GateSpec, decompose_gates, random_clifford

__all__ = [
    "DensityMatrix",
    "dense_cap",
    "pauli_matrix",
    "clifford_unitary",
    "circuit_unitary",
    "apply_unitary",
    "apply_rotation",
    "apply_channel",
    "trace_distance",
    "tv_distance_random_bases",
    "simulate_pair",
    "effective_fidelity_dense",
    "rescaled_distance_scan",
]

_HERM_TOL = 1e-10
_TRACE_TOL = 1e-10
_PSD_TOL = -1e-9
_EAGER_PSD_DIM = 128  # full eigen-check on construction up to this size


def dense_cap() -> int:
    """Largest register the dense simulator will touch."""
    return int(os.environ.get("TWIRLKIT_DENSE_CAP", "10"))


def _check_cap(n: int) -> None:
    cap = dense_cap()
    if n > cap:
        raise ValueError(f"dense simulation of {n} qubits exceeds the cap of {cap}")


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated n-qubit density matrix (qubit 0 = most significant bit)."""

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.entries, dtype=np.complex128)
        object.__setattr__(self, "entries", mat)
        dim = 2**self.n
        if mat.shape != (dim, dim):
            raise ValueError(f"expected a {dim}×{dim} matrix for {self.n} qubits")
        if np.abs(mat - mat.conj().T).max() > _HERM_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(mat.trace() - 1.0) > _TRACE_TOL:
            raise ValueError("density matrix trace is not 1")
        if dim <= _EAGER_PSD_DIM:
            self.validate()
        mat.setflags(write=False)

    def validate(self) -> None:
        """Full positivity check (always run on small states)."""
        low = np.linalg.eigvalsh(self.entries)[0]
        if low < _PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {low}")

    @staticmethod
    def from_pure(state: np.ndarray) -> "DensityMatrix":
        psi = np.asarray(state, dtype=np.complex128).reshape(-1)
        n = int(round(math.log2(psi.size)))
        if 2**n != psi.size:
            raise ValueError("state vector length must be a power of two")
        psi = psi / np.linalg.norm(psi)
        return DensityMatrix(n, np.outer(psi, psi.conj()))

    @staticmethod
    def computational(n: int, index: int = 0) -> "DensityMatrix":
        psi = np.zeros(2**n, dtype=np.complex128)
        psi[index] = 1.0
        return DensityMatrix.from_pure(psi)

    @staticmethod
    def maximally_mixed(n: int) -> "DensityMatrix":
        return DensityMatrix(n, np.eye(2**n, dtype=np.complex128) / 2**n)

    @staticmethod
    def haar_random_pure(n: int, rng: np.random.Generator) -> "DensityMatrix":
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        return DensityMatrix.from_pure(psi)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def _index_mask(bits: int, n: int) -> int:
    """Map per-qubit bits (qubit q = bit q) to a basis-index mask (q0 = MSB)."""
    out = 0
    for q in range(n):
        if bits >> q & 1:
            out |= 1 << (n - 1 - q)
    return out


def pauli_matrix(p: PauliOp) -> np.ndarray:
    """Dense matrix of a Pauli operator, sign and all."""
    dim = 2**p.n
    xm = _index_mask(p.x, p.n)
    zm = _index_mask(p.z, p.n)
    idx = np.arange(dim)
    signs = 1 - 2 * (np.bitwise_count(idx & zm) & 1).astype(np.int64)
    prefactor = 1j ** ((p.phase + (p.x & p.z).bit_count()) % 4)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[idx ^ xm, idx] = prefactor * signs
    return mat


def _pauli_mix_qubit(mat: np.ndarray, n: int, q: int, probs: tuple[float, float, float, float]) -> np.ndarray:
    """Σ_σ p_σ·σ·mat·σ over σ = I, X, Y, Z on qubit q, for probs = (p_I, p_X, p_Y, p_Z).

    Seen as 2×2 blocks mat_ab of qubit q, X swaps both indices, Z signs a
    block by (−1)^(a+b) and Y does both, so every block mixes with its
    mirror image: mat_ab → (p_I ± p_Z)·mat_ab + (p_X ± p_Y)·mat_(1−a)(1−b),
    with + on the diagonal blocks and − off it.
    """
    p_i, p_x, p_y, p_z = probs
    keep = np.array([[p_i + p_z, p_i - p_z], [p_i - p_z, p_i + p_z]]).reshape(1, 2, 1, 1, 2, 1)
    swap = np.array([[p_x + p_y, p_x - p_y], [p_x - p_y, p_x + p_y]]).reshape(1, 2, 1, 1, 2, 1)
    v = mat.reshape(2**q, 2, 2 ** (n - 1 - q), 2**q, 2, 2 ** (n - 1 - q))
    return (keep * v + swap * v[:, ::-1, :, :, ::-1, :]).reshape(mat.shape)


_LETTER_MIX = {"X": (0, 1, 0, 0), "Y": (0, 0, 1, 0), "Z": (0, 0, 0, 1)}
_FLIP_MIX = (0, 1, 1, 1)  # Σ σ·mat·σ over the three non-identity letters
# the per-qubit mix whose product over a register averages the factor's members
_REGISTER_MIX = {
    DiagonalIZFactor: (0.5, 0, 0, 0.5),
    XYSetFactor: (0, 0.5, 0.5, 0),
}


def _conj_by_pauli(mat: np.ndarray, n: int, register: tuple[int, ...], local: PauliOp) -> np.ndarray:
    """P·mat·P for an unsigned Pauli on the register, one letter at a time."""
    for i, q in enumerate(register):
        letter = local.letter_at(i)
        if letter != "I":
            mat = _pauli_mix_qubit(mat, n, q, _LETTER_MIX[letter])
    return mat


def _mix_qubits(mat: np.ndarray, n: int, qubits, probs) -> np.ndarray:
    for q in qubits:
        mat = _pauli_mix_qubit(mat, n, q, probs)
    return mat


def _depolarize_register(mat: np.ndarray, n: int, register: tuple[int, ...]) -> np.ndarray:
    """tr_R(mat) ⊗ I_R/2^m: the mean of P·mat·P over all 4^m Paulis P on register R.

    On the (2,)*2n tensor view, one einsum traces the register's row and
    column axes out and a second puts I/2^m back on them.
    """
    rows = string.ascii_letters[:n]
    cols = string.ascii_letters[n : 2 * n]
    kept = "".join(rows[q] for q in range(n) if q not in register)
    kept += "".join(cols[q] for q in range(n) if q not in register)
    traced = "".join(rows[q] if q in register else cols[q] for q in range(n))
    reduced = np.einsum(f"{rows}{traced}->{kept}", mat.reshape((2,) * 2 * n))
    m = len(register)
    eye = np.eye(2**m).reshape((2,) * 2 * m) / 2**m
    eye_axes = "".join(rows[q] for q in register) + "".join(cols[q] for q in register)
    return np.einsum(f"{kept},{eye_axes}->{rows}{cols}", reduced, eye).reshape(mat.shape)


def _weight_capped_sum(mat: np.ndarray, n: int, register: tuple[int, ...], w: int) -> np.ndarray:
    """Σ P·mat·P over the Paulis P on the register of weight at most w.

    Runs over the register's qubits keeping the partial sums S_j of weight
    exactly j: each qubit adds the three non-identity letters to every
    partial sum of weight j − 1, S_j ← S_j + Σ_σ σ·S_(j−1)·σ, so the whole
    sum takes at most m·w block mixes however many members there are.
    """
    sums = [mat]
    for q in register:
        if len(sums) <= w:
            sums.append(np.zeros_like(mat))
        for j in range(len(sums) - 1, 0, -1):
            sums[j] = sums[j] + _pauli_mix_qubit(sums[j - 1], n, q, _FLIP_MIX)
    return sum(sums[1:], sums[0])


_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)  # H on its own qubit


def _gate_unitary(n: int, g: GateSpec) -> np.ndarray:
    """Dense unitary of one elementary Clifford gate on n qubits: the reference
    that the row rule of ``_apply_gate_rows`` is read off."""
    dim = 2**n
    idx = np.arange(dim)

    def bit(q: int) -> np.ndarray:
        return (idx >> (n - 1 - q)) & 1

    kind = g.kind
    if kind == "H":
        q = g.qubits[0]
        left = np.eye(2 ** q, dtype=np.complex128)
        right = np.eye(2 ** (n - 1 - q), dtype=np.complex128)
        return np.kron(np.kron(left, _H), right)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    if kind == "S":
        q = g.qubits[0]
        mat[idx, idx] = np.where(bit(q), 1j, 1.0)
        return mat
    if kind in ("X", "Y", "Z"):
        q = g.qubits[0]
        flip = idx ^ (((kind != "Z")) << (n - 1 - q))
        if kind == "X":
            phase = np.ones(dim)
        elif kind == "Z":
            phase = 1 - 2 * bit(q).astype(np.complex128)
        else:
            phase = 1j * (1 - 2 * bit(q).astype(np.complex128))
        mat[flip, idx] = phase
        return mat
    if kind == "CNOT":
        c, t = g.qubits
        mat[idx ^ (bit(c) << (n - 1 - t)), idx] = 1.0
        return mat
    if kind == "MULTICNOT":
        c = g.qubits[0]
        shift = np.zeros(dim, dtype=np.int64)
        for t in g.qubits[1:]:
            shift |= bit(c) << (n - 1 - t)
        mat[idx ^ shift, idx] = 1.0
        return mat
    if kind == "CZ":
        a, b = g.qubits
        mat[idx, idx] = 1 - 2 * (bit(a) & bit(b)).astype(np.complex128)
        return mat
    if kind == "SWAP":
        a, b = g.qubits
        diff = bit(a) ^ bit(b)
        target = idx ^ (diff << (n - 1 - a)) ^ (diff << (n - 1 - b))
        mat[target, idx] = 1.0
        return mat
    raise ValueError(f"unsupported gate kind {kind!r}")


@lru_cache(maxsize=256)
def _monomial_rows(n: int, g: GateSpec) -> tuple[np.ndarray, np.ndarray]:
    """(cols, phase) with U[i, cols[i]] = phase[i, 0], read off the gate's unitary.

    Every gate but H has one nonzero per row.  The memo keeps these two
    vectors, not the 2^n × 2^n matrix.
    """
    mat = _gate_unitary(n, g)
    rows, cols = np.nonzero(mat)
    if not np.array_equal(rows, np.arange(2**n)):
        raise ValueError(f"{g.kind} is not a monomial gate")
    return cols, mat[rows, cols].reshape(-1, 1)


def _apply_gate_rows(u: np.ndarray, n: int, g: GateSpec) -> np.ndarray:
    """_gate_unitary(n, g) @ u as a row operation on u.

    H mixes the row pairs that differ in its qubit by the one-qubit H
    matrix; every other gate permutes the rows and signs them.
    """
    if g.kind == "H":
        return np.matmul(_H, u.reshape(2 ** g.qubits[0], 2, -1)).reshape(u.shape)
    cols, phase = _monomial_rows(n, g)
    out = u.take(cols, axis=0)
    out *= phase
    return out


def _clifford_product(n: int, gates) -> np.ndarray:
    """Dense unitary of a gate sequence, one row operation per gate."""
    u = np.eye(2**n, dtype=np.complex128)
    for g in gates:
        u = _apply_gate_rows(u, n, g)
    return u


@lru_cache(maxsize=64)
def _clifford_unitary_cached(n: int, gates: tuple[GateSpec, ...]) -> np.ndarray:
    u = _clifford_product(n, gates)
    u.setflags(write=False)
    return u


def clifford_unitary(n: int, gates: tuple[GateSpec, ...]) -> np.ndarray:
    """Dense unitary of a gate sequence (first gate acts first); read-only.

    Results are memoized: deep circuits rebuild the same layer frames many
    times, so repeated gate tuples hit the cache instead of being rebuilt.
    """
    _check_cap(n)
    return _clifford_unitary_cached(n, tuple(gates))


@lru_cache(maxsize=64)
def _rotation_unitary(n: int, x: int, z: int, phase: int, angle: float) -> np.ndarray:
    u = math.cos(angle) * np.eye(2**n) + 1j * math.sin(angle) * pauli_matrix(
        PauliOp(n, x, z, phase)
    )
    u.setflags(write=False)
    return u


def circuit_unitary(c: LogicalCircuit) -> np.ndarray:
    """The ideal (noise-free) unitary of a logical circuit."""
    _check_cap(c.n)
    u = np.eye(2**c.n, dtype=np.complex128)
    for layer in c.layers:
        if isinstance(layer, RotationLayer):
            axis = layer.axis
            u = _rotation_unitary(c.n, axis.x, axis.z, axis.phase, layer.angle) @ u
        elif isinstance(layer, CliffordLayer):
            u = clifford_unitary(c.n, layer.gates) @ u
    return u


# ---------------------------------------------------------------------------
# state evolution
# ---------------------------------------------------------------------------


def apply_unitary(rho: DensityMatrix, u_matrix: np.ndarray) -> DensityMatrix:
    """U·ρ·U†."""
    _check_cap(rho.n)
    if u_matrix.shape != rho.entries.shape:
        raise ValueError("unitary dimension mismatch")
    return DensityMatrix(rho.n, u_matrix @ rho.entries @ u_matrix.conj().T)


def apply_rotation(rho: DensityMatrix, axis: PauliOp, theta: float) -> DensityMatrix:
    """Conjugation by exp(i·θ·axis) = cos θ·I + i sin θ·axis."""
    if axis.n != rho.n:
        raise ValueError("axis dimension mismatch")
    _check_cap(rho.n)
    return apply_unitary(rho, _rotation_unitary(rho.n, axis.x, axis.z, axis.phase, theta))


def _apply_ensemble_average(mat: np.ndarray, ensemble: PauliEnsemble) -> np.ndarray:
    """Mean over ensemble members of member·mat·member†."""
    n = ensemble.n
    if ensemble.frame_gates:
        u = clifford_unitary(n, tuple(ensemble.frame_gates))
        inner = PauliEnsemble(n, ensemble.factors)
        return u @ _apply_ensemble_average(u.conj().T @ mat @ u, inner) @ u.conj().T
    out = mat
    for factor in ensemble.factors:
        if isinstance(factor, PointFactor):
            out = _conj_by_pauli(out, n, factor.register, factor.pauli)
        elif type(factor) in _REGISTER_MIX:
            out = _mix_qubits(out, n, factor.register, _REGISTER_MIX[type(factor)])
        elif isinstance(factor, FullGroupFactor):
            out = _depolarize_register(out, n, factor.register)
        elif isinstance(factor, FullGroupMinusIdentityFactor):
            m = len(factor.register)
            dep = _depolarize_register(out, n, factor.register)
            out = (4**m * dep - out) / (4**m - 1)
        elif isinstance(factor, WeightAtMostFactor):
            out = _weight_capped_sum(out, n, factor.register, factor.max_weight) / factor.cardinality
        else:
            raise ValueError(f"unknown ensemble factor {type(factor).__name__}")
    return out


def _apply_channel_raw(mat: np.ndarray, ch: PauliChannel) -> np.ndarray:
    out = ch.identity_prob * mat
    for prob, ensemble in _merged_atoms(ch):
        out = out + prob * _apply_ensemble_average(mat, ensemble)
    return out


def apply_channel(rho: DensityMatrix, ch: PauliChannel) -> DensityMatrix:
    """Identity branch plus the probability-weighted ensemble averages."""
    if ch.n != rho.n:
        raise ValueError("channel dimension mismatch")
    _check_cap(rho.n)
    return DensityMatrix(rho.n, _apply_channel_raw(rho.entries, ch))


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of the difference."""
    if rho.n != sigma.n:
        raise ValueError("dimension mismatch")
    return _trace_distance_raw(rho.entries, sigma.entries)


def _trace_distance_raw(a: np.ndarray, b: np.ndarray) -> float:
    """0.5·Σ|eig(a − b)| of Hermitian arrays, which need not be valid states."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def tv_distance_random_bases(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    num_bases: int,
    rng: np.random.Generator,
    haar: bool = False,
) -> tuple[float, float]:
    """Mean total-variation distance of measurement outcomes over random bases.

    Bases default to uniformly random Cliffords (an exact 2-design); with
    ``haar`` a Haar-random unitary is drawn instead.
    """
    if rho.n != sigma.n:
        raise ValueError("dimension mismatch")
    _check_cap(rho.n)
    return _tv_raw(rho.entries, sigma.entries, rho.n, num_bases, rng, haar)


# ---------------------------------------------------------------------------
# circuit simulation
# ---------------------------------------------------------------------------


def _noisy_rotation_raw(mat: np.ndarray, layer: RotationLayer, rng: np.random.Generator | None) -> np.ndarray:
    """One forward pass of a noisy rotation layer on a raw matrix.

    In the frame the rotation is exp(iθZ₀), which is diagonal, so it acts as
    one elementwise phase.  A sampled layer wraps its bare noise channel in a
    drawn gadget, built outside the memo because it rarely repeats.
    """
    n = layer.n
    u_v = clifford_unitary(n, layer.frame_gates)
    d = np.diagonal(_rotation_unitary(n, 0, 1, 0, layer.angle))
    phase = d[:, None] * d.conj()
    out = u_v @ mat @ u_v.conj().T
    if layer.is_sampled:
        gadget = layer.draw_gadget(rng)
        u_d = _clifford_product(n, gadget.gates)
        rate = layer.gadget_noise_rate
        noisy = gadget.support if rate > 0 else ()
        mix = (1 - rate, rate / 3, rate / 3, rate / 3)
        out = _mix_qubits(u_d.conj().T @ out @ u_d, n, noisy, mix)
        channel = _frame_channel(n, layer.rates, "none", None)
    else:
        channel = layer_noise_channel(layer)
    out = _apply_channel_raw(out * phase, channel)
    if layer.is_sampled:
        out = _mix_qubits(u_d @ out @ u_d.conj().T, n, noisy, mix)
    return u_v.conj().T @ out @ u_v


def _noisy_pass(c: LogicalCircuit, mat: np.ndarray, rng: np.random.Generator | None) -> np.ndarray:
    out = mat
    for layer in c.layers:
        if isinstance(layer, RotationLayer):
            out = _noisy_rotation_raw(out, layer, rng)
        elif isinstance(layer, CliffordLayer):
            u = clifford_unitary(c.n, layer.gates)
            out = u @ out @ u.conj().T
        elif isinstance(layer, NoiseLayer):
            out = _apply_channel_raw(out, layer.channel)
    return out


def _noisy_mean(c: LogicalCircuit, mat: np.ndarray, shots: int, rng: np.random.Generator | None) -> np.ndarray:
    """The noisy output: one pass, or the mean of ``shots`` passes when layers draw gadgets."""
    if not c.is_sampled:
        return _noisy_pass(c, mat, rng)
    if shots < 1:
        raise ValueError("need at least one shot")
    if rng is None:
        raise ValueError("sampled twirl modes need an rng")
    acc = np.zeros_like(mat)
    for _ in range(shots):
        acc += _noisy_pass(c, mat, rng)
    return acc / shots


def simulate_pair(
    c: LogicalCircuit,
    input_state: DensityMatrix,
    shots: int = 1,
    rng: np.random.Generator | None = None,
) -> tuple[DensityMatrix, DensityMatrix]:
    """Exact (ideal, noisy) output pair for a logical circuit.

    The ideal state is U·ρ·U† with U the circuit's unitary.  Deterministic
    twirl modes apply their averaged channels exactly in a single pass;
    sampled modes Monte-Carlo average the final state over ``shots``
    independent gadget draws.
    """
    if input_state.n != c.n:
        raise ValueError("input state dimension mismatch")
    _check_cap(c.n)
    return _simulate_pair(c, circuit_unitary(c), input_state, shots, rng)


def _simulate_pair(c: LogicalCircuit, u: np.ndarray, rho: DensityMatrix, shots: int, rng: np.random.Generator | None):
    """``simulate_pair`` given the circuit's unitary u, which a scan builds once per circuit."""
    return DensityMatrix(c.n, u @ rho.entries @ u.conj().T), DensityMatrix(c.n, _noisy_mean(c, rho.entries, shots, rng))


def effective_fidelity_dense(
    c: LogicalCircuit,
    p: PauliOp,
    shots: int = 1,
    rng: np.random.Generator | None = None,
) -> float:
    """2^{-n}·tr[N_eff(P)·P] evaluated by full density-matrix evolution.

    Feeds the valid state (I + U†PU)/2^n through the noisy circuit (U being
    the ideal unitary) and reads off tr[P·ρ_out]; channel unitality makes
    this exactly the effective Pauli fidelity the fast engine reports.
    """
    if p.n != c.n or (p.x == 0 and p.z == 0):
        raise ValueError("need a nonidentity observable of matching size")
    _check_cap(c.n)
    dim = 2**c.n
    u = circuit_unitary(c)
    p_mat = pauli_matrix(p)
    back = u.conj().T @ p_mat @ u
    rho = DensityMatrix(c.n, (np.eye(dim) + back) / dim)
    noisy = DensityMatrix(c.n, _noisy_mean(c, rho.entries, shots, rng))
    return float(np.trace(p_mat @ noisy.entries).real)


# ---------------------------------------------------------------------------
# distance trend scans
# ---------------------------------------------------------------------------


def rescaled_distance_scan(
    n_list: list[int],
    t_list: list[int],
    theta: float,
    p_tot: float,
    num_inputs: int,
    num_bases: int,
    rng: np.random.Generator,
    *,
    noise_weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
    twirl_mode: str = "analytic_full",
    k: int | None = None,
    haar_bases: bool = False,
) -> list[dict]:
    """Distances between the ideal state and the rescaled noisy state.

    For each (n, T): builds the n-site Heisenberg chain's Trotter circuit with
    every rotation angle equal to ``theta``, splits p_tot over the layers with
    ``circuits._resolve_rates``, and compares ρ_ideal against
    R·ρ_noisy + (1−R)·I/2^n over Haar-random pure inputs, by trace distance
    and by measured total-variation distance over random bases.
    """
    rows = []
    for n in n_list:
        for t in t_list:
            c = _scan_circuit(n, t, theta, p_tot, tuple(noise_weights), twirl_mode, k)
            num_layers = c.num_rotation_layers
            p_err = p_tot / num_layers
            r = optimal_rescale_coefficient(c)
            u = circuit_unitary(c)
            dim = 2**c.n
            tds = np.empty(num_inputs)
            tvs = np.empty(num_inputs)
            for i in range(num_inputs):
                rho0 = DensityMatrix.haar_random_pure(c.n, rng)
                ideal, noisy = _simulate_pair(c, u, rho0, 1, rng)
                # the rescaled combination may dip slightly below positivity,
                # so compare raw matrices without re-validating
                combo = r * noisy.entries + (1 - r) * np.eye(dim) / dim
                tds[i] = _trace_distance_raw(ideal.entries, combo)
                mean_tv, _ = _tv_raw(ideal.entries, combo, c.n, num_bases, rng, haar_bases)
                tvs[i] = mean_tv
            (td, td_err), (tv, tv_err) = _mean_stderr(tds), _mean_stderr(tvs)
            rows.append(
                {
                    "n": n,
                    "steps": t,
                    "num_layers": num_layers,
                    "theta": theta,
                    "p_err": p_err,
                    "r": r,
                    "trace_distance": float(td),
                    "trace_stderr": float(td_err),
                    "tv_distance": float(tv),
                    "tv_stderr": float(tv_err),
                }
            )
    return rows


@lru_cache(maxsize=64)
def _scan_circuit(
    n: int, steps: int, theta: float, p_tot: float, noise_weights: tuple, twirl_mode: str, k: int | None
) -> LogicalCircuit:
    """The distance scan's circuit at (n, T): the n-site Heisenberg chain's Trotter circuit
    with every angle theta and p_tot split over its layers.

    Memoized, so the CLI's grid check and the scan build each circuit once.
    """
    if steps < 1:
        raise ValueError("need at least one Trotter step")
    model = heisenberg_1d(n)
    rates = _resolve_rates(noise_weights, p_tot, steps * len(model.terms()))
    return build_trotter_circuit(model, steps, theta, base_noise=rz_axis_noise(*rates), twirl_mode=twirl_mode, k=k)


def _tv_raw(
    a: np.ndarray,
    b: np.ndarray,
    n: int,
    num_bases: int,
    rng: np.random.Generator,
    haar: bool,
) -> tuple[float, float]:
    dim = 2**n
    vals = np.empty(num_bases)
    for i in range(num_bases):
        if haar:
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            q, r = np.linalg.qr(g)
            u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        else:
            # fresh bases never repeat, so they stay out of the unitary memo
            u = _clifford_product(n, decompose_gates(random_clifford(n, rng)))
        p = ((u @ a) * u.conj()).sum(1).real
        q_ = ((u @ b) * u.conj()).sum(1).real
        vals[i] = 0.5 * float(np.abs(p - q_).sum())
    mean, stderr = _mean_stderr(vals)
    return float(mean), float(stderr)
