"""Logical-circuit model, Trotter builders, and bias/overhead metrics.

A circuit alternates Clifford layers with noisy Pauli-axis rotations.  Each
rotation ``exp(i·θ·Q)`` is realized as ``V† · Rz(θ on qubit 0) · V`` where the
Clifford frame ``V`` maps the axis ``Q`` onto ``Z`` on qubit 0, and its noise
is a single-qubit Pauli channel attached at frame qubit 0.  The engine
back-propagates observables through the circuit in the Heisenberg picture as
one column batch (``tableau``: an int per qubit, one bit per observable),
multiplying per-layer Pauli fidelities, which keeps the
cost polynomial in the qubit count for Clifford-angle circuits.  Every
fidelity is evaluated in batch by ``channels.fidelity_batch`` on the layer's
channel: directly for a noise layer, and for a rotation layer once per
(qubit count, rates, mode, k) into a table indexed by the frame-qubit letter
and the weight on the other qubits, cut to the columns whose values differ.

A rotation layer costs only its walk: the set-up is shared between layers.
Its frame gates are built once per axis and checked on a tableau of the
qubits they touch; its rates and flags are set when it is constructed; the
rescale coefficient evaluates s/u once per distinct channel.  The frame,
rate, channel and table memos are module-level ``lru_cache``s, so
``cache_clear`` empties them with the package's other memos.

The walk replays a rotation layer's gates once, forward only.  A copy of the
rows goes through the frame V and, in the sampled modes, each shot's drawn
gadget D acts inverted on its own copy; the fidelity is read there.  The rows
themselves take the rotation about the axis Q as P → P·Q when P anticommutes
with Q, and stay P otherwise: the anticommutation mask is XORed into the
columns of Q's support.  Three facts make this exact: (1) a symmetric gadget
D fixes Z on qubit 0, so the copy's qubit-0 x-bit is that anticommutation
bit; (2) the rotation only swaps X and Y on qubit 0, so the gadget's second
depolarizing factor, set by the weight on its support, reads the same on the
copy as after the rotation; (3) signs do not enter a fidelity, and without
signs a gadget is GF(2)-linear on the copy's bits: its S is z0 ^= x0, each
local Clifford one of six 2×2 maps on (x_t, z_t), its CNOT fan x_t ^= x0 and
z0 ^= z_t, so a gadget is a set of bit masks and never a gate replay.  Since
the rows never see a gadget, the shots of a chunk share one walk: frames,
Clifford layers and rotations are replayed once per chunk.  The gadget
copies are stacked shot-major in the bit width (the framed columns times
Σ_s 2^(s·rows)), each shot's gadget masks only its own segment, and one
unpack per layer reads every shot's letter and weights.  A chunk draws its
gadgets as one array of uniform doubles, shot-major and in walk order within
a shot, which ``twirl.decode_gadgets`` turns into spread sets, local-Clifford
indices and S bits; that is the stream of one ``draw_gadget`` per shot and
layer, so it does not depend on the chunking.

A rotation layer decides whether it samples (``is_sampled``) and draws its
own gadgets (``draw_gadget``); a circuit samples when one of its layers does.
The engine and the dense oracle both ask the layer and keep no mode dispatch
of their own.  The CLI and the dense scan call the mode and budget rules
here too: ``_check_twirl_mode``, ``_draws_gadgets``, ``_frame_channel`` (the
channel each mode averages to) and ``_resolve_rates`` (the split of p_tot).

Twirl modes per rotation layer:

* ``none`` — the bare noise channel.
* ``full`` / ``ksparse`` — Monte-Carlo over scrambling-gadget draws, with
  optional local depolarizing noise on the gadget's support.
* ``analytic_full`` / ``analytic_ksparse`` — the exact gadget average in
  closed form (noiseless gadgets), deterministic and fast.

Also provided: first-order Trotter circuit builders for a few lattice models,
the rescaling coefficient that turns white-noise-like decay back into the
ideal expectation, and closed-form sampling-overhead and bias bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import _PROB_TOL, PauliChannel, _goodness, avg_noise_strength, fidelity_batch, make_single_qubit_pauli_noise
from .channels import unitarity
from .paulis import PauliOp, _columns, _unpack, _weight, random_paulis
from .tableau import CliffordOp, GateSpec, _apply_gate, clifford_mapping_z0_to, decompose_gates, from_gates
from .tableau import single_qubit_clifford_gates
from .twirl import SymmetrySpec, TwirlGadget, twirl_channel, twirl_channel_ksparse
from .twirl import decode_gadgets, gadget_width, sample_full_twirl_gate, sample_ksparse_twirl_gate

__all__ = [
    "RotationLayer",
    "CliffordLayer",
    "NoiseLayer",
    "LogicalCircuit",
    "HamiltonianModel",
    "heisenberg_2d",
    "tfim_2d",
    "fermi_hubbard_2d",
    "heisenberg_1d",
    "build_trotter_circuit",
    "rz_axis_noise",
    "effective_fidelity",
    "effective_fidelity_batch",
    "average_bias",
    "optimal_rescale_coefficient",
    "overhead_rescaling",
    "overhead_pec",
    "overhead_lower_bound",
    "whitenoise_bias_bound",
    "corollary_bound",
]

TWIRL_MODES = ("none", "full", "ksparse", "analytic_full", "analytic_ksparse")
_SAMPLED_MODES = ("full", "ksparse")
_SPARSE_MODES = ("ksparse", "analytic_ksparse")
_ANGLE_TOL = 1e-9
# Sampled shots walk in chunks of at most _CHUNK // max(rows, sampled layers)
# shots: it bounds both the gadgets held at once and the stacked bit width.
_CHUNK = 4096


def _draws_gadgets(mode: str) -> bool:
    """Whether a layer in this twirl mode draws a scrambling gadget per shot."""
    return mode in _SAMPLED_MODES


def _check_twirl_mode(mode: str, k: int | None, n: int, gadget_noise_rate: float = 0.0) -> None:
    """Raise ValueError unless a rotation layer on n qubits takes these twirl settings."""
    if mode not in TWIRL_MODES:
        raise ValueError(f"unknown twirl mode {mode!r}")
    if mode in _SPARSE_MODES:
        if k is None or not 1 <= k <= n:
            raise ValueError(f"mode {mode} needs 1 <= k <= {n}")
    elif k is not None:
        raise ValueError(f"mode {mode} does not take k")
    if not 0.0 <= gadget_noise_rate <= 1.0:
        raise ValueError("gadget noise rate must lie in [0, 1]")
    if gadget_noise_rate > 0 and not _draws_gadgets(mode):
        raise ValueError(f"gadget noise needs a sampled twirl mode, not {mode}")


def _resolve_rates(weights: tuple, p_tot: float | None, num_layers: int) -> tuple[float, float, float]:
    """Per-layer (px, py, pz): the weights as absolute rates, or w/Σw·(p_tot/L) over L layers."""
    total = sum(weights)
    if p_tot is None:
        if total > 1 + _PROB_TOL:
            raise ValueError(f"noise rates {tuple(weights)} sum to more than probability 1")
        return tuple(weights)
    if total == 0 and p_tot > 0:
        raise ValueError("p_tot > 0 needs at least one nonzero noise weight")
    per_layer = p_tot / num_layers
    if per_layer > 1:
        raise ValueError(f"p_tot spread over {num_layers} layers exceeds probability 1")
    return tuple(w / total * per_layer for w in weights) if total else (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# layer types
# ---------------------------------------------------------------------------


def rz_axis_noise(px: float, py: float, pz: float) -> PauliChannel:
    """Single-qubit Pauli channel attached at a rotation layer's frame qubit."""
    return make_single_qubit_pauli_noise(1, 0, px, py, pz)


@lru_cache(maxsize=None)
def _point_rates(ch: PauliChannel) -> tuple[float, float, float]:
    """Extract (px, py, pz) from a 1-qubit channel of point atoms, once per channel."""
    if ch.n != 1:
        raise ValueError("rotation-layer noise must be a single-qubit channel")
    rates = {"X": 0.0, "Y": 0.0, "Z": 0.0}
    for prob, ensemble in ch.atoms:
        if ensemble.cardinality != 1:
            raise ValueError("rotation-layer noise must consist of point atoms")
        member = next(ensemble.members())
        letter = member.letter_at(0)
        if letter == "I":
            raise ValueError("rotation-layer noise atoms must be nonidentity")
        rates[letter] += prob
    return rates["X"], rates["Y"], rates["Z"]


@lru_cache(maxsize=None)
def _frame_gates(axis: PauliOp) -> tuple[GateSpec, ...]:
    """Frame gates shared by every rotation layer about ``axis``."""
    return clifford_mapping_z0_to(axis)


@dataclass(frozen=True)
class RotationLayer:
    """One noisy Pauli-axis rotation ``exp(i·angle·axis)``.

    Args:
        axis: Unsigned nonidentity Pauli generator of the rotation.
        angle: Rotation parameter in radians; π/4 makes the layer Clifford.
        base_noise: Single-qubit Pauli channel acting at frame qubit 0,
            i.e. on the ``Z`` axis the rotation is conjugated into.
        twirl_mode: One of ``TWIRL_MODES``.
        k: Support cap for the sparse modes (required there, else None).
        gadget_noise_rate: Local depolarizing rate applied per supported
            qubit after each of the two scrambling-gadget placements
            (sampled modes only).

    Set at construction (attributes, not fields): ``rates`` (px, py, pz) of
    ``base_noise``; ``is_sampled``, whether the layer draws a gadget per shot
    (``full``, ``ksparse``); ``gadget_width``, the uniform doubles a draw
    reads (0 without draws); and ``rotation_kind``, how conjugation by the
    rotation acts on Paulis: ``noop`` — a Pauli up to phase (angle ≡ 0 mod
    π/2), ``quarter`` — an S-type Clifford (angle ≡ π/4 mod π/2) swapping X
    and Y on the frame qubit, or ``generic`` — non-Clifford, so the layer
    only supports observables that commute with the axis.
    """

    axis: PauliOp
    angle: float
    base_noise: PauliChannel
    twirl_mode: str = "none"
    k: int | None = None
    gadget_noise_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.axis.phase != 0:
            raise ValueError("rotation axis must carry a +1 sign")
        if self.axis.x == 0 and self.axis.z == 0:
            raise ValueError("rotation axis must be nonidentity")
        _check_twirl_mode(self.twirl_mode, self.k, self.axis.n, self.gadget_noise_rate)
        sampled, t = _draws_gadgets(self.twirl_mode), self.angle % (math.pi / 2)
        quarter = abs(t - math.pi / 4) < _ANGLE_TOL
        self.__dict__.update(  # frozen: write the instance dict, as cached_property does
            rates=_point_rates(self.base_noise),  # validates shape
            is_sampled=sampled,
            gadget_width=gadget_width(self.n, self.twirl_mode) if sampled else 0,
            rotation_kind="noop" if min(t, math.pi / 2 - t) < _ANGLE_TOL else "quarter" if quarter else "generic",
        )

    @property
    def n(self) -> int:
        return self.axis.n

    @property
    def frame_gates(self) -> tuple[GateSpec, ...]:
        """Gate list for the frame V with V·axis·V† = Z on qubit 0."""
        return _frame_gates(self.axis)

    @property
    def p_err(self) -> float:
        return sum(self.rates)

    def draw_gadget(self, rng: np.random.Generator) -> TwirlGadget:
        """One scrambling gadget from the sampler of the layer's twirl mode."""
        if self.twirl_mode == "full":
            return sample_full_twirl_gate(self.n, rng)
        if self.twirl_mode == "ksparse":
            return sample_ksparse_twirl_gate(self.n, self.k, rng)
        raise ValueError(f"twirl mode {self.twirl_mode!r} draws no gadgets")


@dataclass(frozen=True)
class CliffordLayer:
    """A noiseless Clifford operation between rotation layers, run as its gate list.

    Supplied ``gates`` must generate ``op``, sign included: the engine and the
    dense oracle read only the gates.  When omitted they are synthesized from
    ``op`` with ``decompose_gates``.
    """

    op: CliffordOp
    gates: tuple[GateSpec, ...] | None = None

    def __post_init__(self) -> None:
        if self.gates is None:
            object.__setattr__(self, "gates", tuple(decompose_gates(self.op)))
        elif from_gates(self.op.n, self.gates) != self.op:
            raise ValueError("the Clifford layer's gates do not generate its op")

    @property
    def n(self) -> int:
        return self.op.n


@dataclass(frozen=True)
class NoiseLayer:
    """A bare noise insertion with no accompanying unitary."""

    channel: PauliChannel

    @property
    def n(self) -> int:
        return self.channel.n


Layer = RotationLayer | CliffordLayer | NoiseLayer


@dataclass(frozen=True)
class LogicalCircuit:
    """A time-ordered sequence of Clifford, rotation, and noise layers."""

    n: int
    layers: tuple[Layer, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        for layer in self.layers:
            if layer.n != self.n:
                raise ValueError("all layers must act on the circuit's qubit count")

    @property
    def num_rotation_layers(self) -> int:
        return sum(1 for layer in self.layers if isinstance(layer, RotationLayer))

    def rotation_layers(self) -> list[RotationLayer]:
        return [layer for layer in self.layers if isinstance(layer, RotationLayer)]

    @property
    def is_sampled(self) -> bool:
        """Whether some layer draws gadgets, so that outputs are means over shots."""
        return any(isinstance(layer, RotationLayer) and layer.is_sampled for layer in self.layers)


# ---------------------------------------------------------------------------
# Hamiltonian models and Trotter circuits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HamiltonianModel:
    """A lattice Hamiltonian as its Trotter terms: (axis, coupling) pairs in per-step order.

    Use the factory helpers rather than the constructor.  A model without
    terms has nothing to Trotterize and is rejected.
    """

    n_qubits: int
    trotter_terms: tuple[tuple[PauliOp, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "trotter_terms", tuple(self.trotter_terms))
        if not self.trotter_terms:
            raise ValueError(f"the model on {self.n_qubits} qubits has no Trotter terms")

    def terms(self) -> tuple[tuple[PauliOp, float], ...]:
        """(axis, coupling) pairs in the canonical per-step order."""
        return self.trotter_terms


def heisenberg_2d(lx: int, ly: int, j: float = 1.0) -> HamiltonianModel:
    """Nearest-neighbour XX+YY+ZZ exchange on an open Lx×Ly grid.

    Bond-major order: each bond contributes its XX, YY, ZZ rotations
    consecutively, i.e. the step Trotterizes exp(-i dt(XX+YY+ZZ)) bond by
    bond.  The grouping matters: it sets how per-layer fidelity fluctuations
    accumulate over a step, and with it the bias-vs-n scaling.
    """
    n = lx * ly
    bonds = _grid_bonds(lx, ly)
    return HamiltonianModel(n, [(_two_site_axis(n, a, b, letter), j) for a, b in bonds for letter in "XYZ"])


def heisenberg_1d(length: int, j: float = 1.0) -> HamiltonianModel:
    """Nearest-neighbour XX+YY+ZZ exchange on an open chain."""
    return heisenberg_2d(length, 1, j)


def tfim_2d(lx: int, ly: int, h: float = 1.0, j: float = 1.0) -> HamiltonianModel:
    """ZZ bonds plus a transverse X field on an open Lx×Ly grid."""
    n = lx * ly
    zz = [(_two_site_axis(n, a, b, "Z"), j) for a, b in _grid_bonds(lx, ly)]
    return HamiltonianModel(n, zz + [(PauliOp(n, 1 << q, 0), h) for q in range(n)])


def fermi_hubbard_2d(lx: int, ly: int, t_hop: float = 1.0, u_int: float = 1.0) -> HamiltonianModel:
    """Spinful Fermi–Hubbard on an open grid, fermions mapped to qubits.

    Modes are ordered along a row-major snake with the two spin species of a
    site adjacent, so on-site interactions stay weight-2 and hopping becomes
    X/Y strings with a Z-filled interior.
    """
    sites = lx * ly
    n = 2 * sites

    def snake(s: int) -> int:
        y, x = divmod(s, lx)
        return y * lx + (x if y % 2 == 0 else lx - 1 - x)

    hops = [(2 * snake(a) + spin, 2 * snake(b) + spin) for a, b in _grid_bonds(lx, ly) for spin in (0, 1)]
    terms = [(_hopping_axis(n, i, j, letter), -t_hop / 2) for letter in "XY" for i, j in hops]
    terms += [(_two_site_axis(n, 2 * s, 2 * s + 1, "Z"), u_int / 4) for s in range(sites)]
    terms += [(PauliOp(n, 0, 1 << q), -u_int / 4) for q in range(n)]
    return HamiltonianModel(n, terms)


def _grid_bonds(lx: int, ly: int) -> list[tuple[int, int]]:
    """Nearest-neighbour bonds of an open grid, row-major site indices."""
    if lx < 1 or ly < 1:
        raise ValueError("grid dimensions must be positive")
    bonds = []
    for y in range(ly):
        for x in range(lx - 1):
            s = y * lx + x
            bonds.append((s, s + 1))
    for y in range(ly - 1):
        for x in range(lx):
            s = y * lx + x
            bonds.append((s, s + lx))
    return bonds


def _two_site_axis(n: int, a: int, b: int, letter: str) -> PauliOp:
    x = z = 0
    for q in (a, b):
        if letter != "Z":
            x |= 1 << q
        if letter != "X":
            z |= 1 << q
    return PauliOp(n, x, z)


def _hopping_axis(n: int, i: int, j: int, letter: str) -> PauliOp:
    """X/Y endpoints at modes i < j with a Z string in between."""
    lo, hi = min(i, j), max(i, j)
    x = z = 0
    for q in (lo, hi):
        x |= 1 << q
        if letter == "Y":
            z |= 1 << q
    for q in range(lo + 1, hi):
        z |= 1 << q
    return PauliOp(n, x, z)


def build_trotter_circuit(
    model: HamiltonianModel,
    steps: int,
    dt: float,
    clifford_sim: bool = False,
    *,
    base_noise: PauliChannel | None = None,
    twirl_mode: str = "none",
    k: int | None = None,
    gadget_noise_rate: float = 0.0,
) -> LogicalCircuit:
    """First-order Trotter circuit: one rotation layer per term per step.

    With ``clifford_sim`` every angle is fixed to π/4, which keeps the whole
    circuit Clifford and lets the engine propagate any observable exactly.
    The noise and twirl settings are applied uniformly to all layers.
    """
    if steps < 1:
        raise ValueError("need at least one Trotter step")
    noise = base_noise if base_noise is not None else rz_axis_noise(0.0, 0.0, 0.0)
    terms = model.terms()
    layers = []
    for _ in range(steps):
        for axis, coupling in terms:
            angle = math.pi / 4 if clifford_sim else coupling * dt
            layers.append(
                RotationLayer(axis, angle, noise, twirl_mode, k, gadget_noise_rate)
            )
    return LogicalCircuit(model.n_qubits, tuple(layers))


# ---------------------------------------------------------------------------
# the Heisenberg back-propagation walk
# ---------------------------------------------------------------------------


def _local_clifford_maps() -> np.ndarray:
    """(24, 4) bits (A, B, C, D): the single-qubit Clifford's gates replayed in
    reverse map a qubit's bits as x' = x&A ^ z&B, z' = x&C ^ z&D.

    Read off the replay of each Clifford's reversed gates on X (row 0) and Z (row 1).
    """
    table = []
    for index in range(24):
        xs, zs = [0b01], [0b10]
        for g in reversed(single_qubit_clifford_gates(index, 0)):
            _apply_gate(xs, zs, 0, g)
        table.append((xs[0] & 1, xs[0] >> 1, zs[0] & 1, zs[0] >> 1))
    return np.array(table, dtype=bool)


_LOCAL_MAPS = _local_clifford_maps()


def _segments(bits: np.ndarray, rows: int) -> list[int]:
    """Per row of a (masks, shots) bool array, the int with bits s·rows to
    (s+1)·rows − 1 set where the row is set at shot s."""
    packed = np.packbits(np.repeat(bits, rows, axis=1), axis=1, bitorder="little")
    raw, size = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[i * size : (i + 1) * size], "little") for i in range(len(packed))]


def _gadget_bits(c: LogicalCircuit, uniforms: np.ndarray) -> list[np.ndarray]:
    """Per sampled layer in walk order, its shots' gadgets as (2 + 5(n−1), shots) mask bits.

    The rows are the S bit and qubit 0's support, then per other qubit t its
    spread bit and the bits A, B, C, D of the map that its local Clifford's
    reversed gates make, x' = x&A ^ z&B and z' = x&C ^ z&D (the identity off
    the spread set).  The layers of one twirl mode are decoded in one call.
    """
    sampled = [layer for layer in reversed(c.layers) if isinstance(layer, RotationLayer) and layer.is_sampled]
    starts = np.cumsum([0] + [layer.gadget_width for layer in sampled])
    groups: dict[tuple, list[int]] = {}
    for j, layer in enumerate(sampled):
        groups.setdefault((layer.twirl_mode, layer.k), []).append(j)
    out = [None] * len(sampled)
    shots, m = len(uniforms), c.n - 1
    for (mode, k), members in groups.items():
        columns = starts[members][:, None] + np.arange(sampled[members[0]].gadget_width)
        spread, local, s_bit = decode_gadgets(c.n, mode, k, uniforms[:, columns])
        maps = _LOCAL_MAPS[local] & spread[..., None]
        maps[..., 0] |= ~spread
        maps[..., 3] |= ~spread
        per_qubit = np.concatenate([spread[..., None], maps], axis=-1).reshape(shots, len(members), 5 * m)
        bits = np.concatenate([s_bit[..., None], (s_bit | spread.any(axis=-1))[..., None], per_qubit], axis=-1)
        for j, layer_bits in zip(members, bits.transpose(1, 2, 0)):
            out[j] = layer_bits
    return out


def _rotation_step(
    layer: RotationLayer,
    xs: list[int],
    zs: list[int],
    rows: int,
    lam: np.ndarray,
    gadgets: np.ndarray | None,
) -> None:
    """Back-propagate the batch through one rotation layer, updating lam (shots, rows).

    A copy of the rows is taken through the frame.  In the sampled modes
    ``gadgets`` holds the layer's ``_gadget_bits``; the framed columns are
    replicated once per shot, stacked shot-major in the bit width (shot s
    holds bits s·rows to (s+1)·rows − 1), and each shot's gadget acts
    inverted, sign-free, on its own copy through segment masks.  The letter,
    the weight and both depolarizing factors are read off the copies.  The
    rows take the rotation as P → P·Q where the framed qubit-0 x-bit is set:
    a gadget fixes Z on qubit 0, so that bit is the anticommutation of P with
    the axis for every shot, and the rotation leaves the weight on the
    gadget's support alone.
    """
    n = layer.n
    fx, fz = list(xs), list(zs)
    for g in layer.frame_gates:
        _apply_gate(fx, fz, 0, g)
    table = _fidelity_table(n, layer.rates, layer.twirl_mode, layer.k)

    if gadgets is None:
        columns, rest = table.size // 4, 0  # 1: bare noise; 2: the full twirl, weight 0 or not; n: every weight
        for t in range(1, n if columns == 2 else 1):
            rest |= fx[t] | fz[t]
        x0, z0, acted = _unpack([fx[0], fz[0], rest], rows)
        if columns > 2:
            lam *= table[x0 + 2 * z0, _weight(fx, fz, range(1, n), rows)]
        else:  # flat index: letter alone, or 2·letter + acted
            lam *= table.take((x0 + 2 * z0) * columns + acted)
    else:  # sampled tables are bare noise: one letter column
        shots, p_d = len(lam), layer.gadget_noise_rate
        masks = _segments(gadgets, rows)
        copies = sum(1 << s * rows for s in range(shots))
        x0, z0 = fx[0] * copies, fz[0] * copies
        # per qubit of the support, the rows acting there on the framed copy and on the gadget copy
        on_framed, on_gadget = [(x0 | z0) & masks[1]], []
        z0 ^= x0 & masks[0]  # the S
        fan = 0
        for t in range(1, n):
            spread, a, b, c, d = masks[5 * t - 3 : 5 * t + 2]
            if spread:
                x, z = fx[t] * copies, fz[t] * copies
                zt = x & c ^ z & d  # the local Clifford
                fan ^= zt & spread  # the fan's CNOT, which also sets x ^= x0
                if p_d > 0:
                    on_framed.append((x | z) & spread)
                    on_gadget.append((x & a ^ z & b ^ x0 & spread | zt) & spread)
        z0 ^= fan
        stacked = [x0, z0]
        if p_d > 0:
            stacked += [*on_framed, (x0 | z0) & masks[1], *on_gadget]
        bits = _unpack(stacked, shots * rows).reshape(len(stacked), shots, rows)
        letters = table.take(bits[0] + 2 * bits[1])
        if p_d > 0:
            powers = (1 - 4 * p_d / 3) ** np.arange(n + 1)
            before, after = bits[2:].reshape(2, len(on_framed), shots, rows).sum(axis=1, dtype=np.uint16)
            lam *= powers.take(before)
            lam *= letters
            lam *= powers.take(after)
        else:
            lam *= letters

    kind = layer.rotation_kind
    anti = fx[0]
    if kind == "quarter" and anti:
        axis = layer.axis
        for q in range((axis.x | axis.z).bit_length()):
            if axis.x >> q & 1:
                xs[q] ^= anti
            if axis.z >> q & 1:
                zs[q] ^= anti
    elif kind == "generic" and anti:
        raise ValueError(
            "non-Clifford rotation angle: deterministic propagation only supports "
            "observables that commute with the axis (use the dense oracle instead)"
        )


def _walk(c: LogicalCircuit, xs: list[int], zs: list[int], rows: int, uniforms: np.ndarray) -> np.ndarray:
    """One back-propagation pass of a copy of the columns for a chunk of shots.

    ``uniforms[s]`` holds shot s's gadget draws, each sampled layer's
    ``gadget_width`` columns in walk order; a circuit without sampled layers
    is the one-shot case of width 0.  Returns the (shots, rows) fidelities.
    """
    xs, zs = list(xs), list(zs)
    lam = np.ones((len(uniforms), rows))
    gadgets = iter(_gadget_bits(c, uniforms))
    for layer in reversed(c.layers):
        if isinstance(layer, RotationLayer):
            _rotation_step(layer, xs, zs, rows, lam, next(gadgets) if layer.is_sampled else None)
        elif isinstance(layer, CliffordLayer):
            for g in reversed(layer.gates):
                _apply_gate(xs, zs, 0, g)
        else:
            lam *= fidelity_batch(layer.channel, xs, zs, rows)
    return lam


def _mean_stderr(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error (ddof 1) along axis 0; the error of one sample is 0."""
    mean = samples.mean(axis=0)
    if len(samples) == 1:
        return mean, np.zeros_like(mean)
    return mean, samples.std(axis=0, ddof=1) / math.sqrt(len(samples))


def effective_fidelity_batch(
    c: LogicalCircuit,
    paulis: list[PauliOp],
    shots: int = 1000,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Effective Pauli fidelities for a batch of observables.

    Returns the per-observable mean and standard error of
    2^{-n}·tr[N_eff(P)·P], where N_eff is the circuit's noise commuted past
    the ideal unitary.  Deterministic circuits need a single pass and report
    zero error; sampled twirl modes Monte-Carlo average over gadget draws,
    sharing draws across the batch (common random numbers — each
    per-observable mean stays unbiased).  The shots run in chunks of
    consecutive shots: a chunk draws its gadgets as one array of uniform
    doubles, shot-major and in walk order within a shot (the stream of one
    ``draw_gadget`` per shot and layer), then walks the layers once,
    replaying the frames and Clifford layers once for all its shots.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    for p in paulis:
        if p.n != c.n:
            raise ValueError("observable dimension mismatch")
        if p.x == 0 and p.z == 0:
            raise ValueError("observables must be nonidentity")
    xs, zs = _columns(paulis, c.n)
    rows = len(paulis)
    if not c.is_sampled:
        return _walk(c, xs, zs, rows, np.empty((1, 0)))[0], np.zeros(rows)
    if rng is None:
        raise ValueError("sampled twirl modes need an rng")
    sampled = [layer for layer in c.layers if isinstance(layer, RotationLayer) and layer.is_sampled]
    width = sum(layer.gadget_width for layer in sampled)
    chunk = max(1, _CHUNK // max(rows, len(sampled)))
    samples = np.empty((shots, rows))
    for start in range(0, shots, chunk):
        uniforms = rng.random((min(chunk, shots - start), width))
        samples[start : start + len(uniforms)] = _walk(c, xs, zs, rows, uniforms)
    return _mean_stderr(samples)


def effective_fidelity(
    c: LogicalCircuit,
    p: PauliOp,
    shots: int = 1000,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Effective Pauli fidelity of one observable (see the batch variant)."""
    mean, stderr = effective_fidelity_batch(c, [p], shots, rng)
    return float(mean[0]), float(stderr[0])


# ---------------------------------------------------------------------------
# rescaling and the bias metric
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _frame_channel(n: int, rates: tuple[float, float, float], mode: str, k: int | None) -> PauliChannel:
    """The rotation layer's noise channel on n qubits, in the axis frame."""
    base = make_single_qubit_pauli_noise(n, 0, *rates)
    if mode == "none":
        return base
    if mode in ("full", "analytic_full"):
        return twirl_channel(base, SymmetrySpec.rz_first_qubit(n))
    return twirl_channel_ksparse(base, k)


@lru_cache(maxsize=None)
def _fidelity_table(n: int, rates: tuple[float, float, float], mode: str, k: int | None) -> np.ndarray:
    """A rotation layer's fidelity in its frame, by letter x0 + 2·z0 and weight on qubits 1..n−1.

    Tables whose weight columns agree (bare noise) are cut to the letter
    column, and those whose columns 1..n−1 agree (the full twirl) to two
    columns, read by whether a row acts on qubits 1..n−1; the k-sparse ones
    keep every weight.  The cuts compare the doubles, so no value changes.
    Sampled modes draw their gadgets in the walk: bare noise too.
    """
    if _draws_gadgets(mode):
        mode, k = "none", None
    rest = [((1 << t) - 1) << 1 for t in range(n)]  # X on qubits 1..t
    probes = [PauliOp(n, (letter & 1) | r, letter >> 1) for letter in range(4) for r in rest]
    table = fidelity_batch(_frame_channel(n, rates, mode, k), *_columns(probes, n), len(probes)).reshape(4, n)
    if (table == table[:, :1]).all():
        table = table[:, 0].copy()
    elif (table[:, 1:] == table[:, 1:2]).all():
        table = table[:, :2].copy()
    table.flags.writeable = False
    return table


def layer_noise_channel(layer: RotationLayer) -> PauliChannel:
    """Full n-qubit channel the layer's noise averages to under its twirl.

    Sampled modes use the same averaged channel as their analytic twins;
    gadget depolarizing noise is not included.
    """
    return _frame_channel(layer.n, layer.rates, layer.twirl_mode, layer.k)


def optimal_rescale_coefficient(c: LogicalCircuit) -> float:
    """Product over noisy layers of s/u — the rescaling that undoes decay.

    For L identical layers this is (s/u)^L, with s the mean and u the mean
    square of the channel's Pauli fidelities over nonidentity Paulis.
    """
    result = 1.0
    seen: dict[PauliChannel, float] = {}
    for layer in c.layers:
        if isinstance(layer, CliffordLayer):
            continue
        ch = layer_noise_channel(layer) if isinstance(layer, RotationLayer) else layer.channel
        if ch not in seen:
            u = unitarity(ch)
            if u <= 0:
                raise ValueError("layer channel has nonpositive unitarity")
            seen[ch] = avg_noise_strength(ch) / u
        result *= seen[ch]
    return result


def average_bias(
    c: LogicalCircuit,
    num_paulis: int = 1000,
    shots: int = 1000,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Mean over random nonidentity P of |R·|fidelity(P)| − 1|.

    R is the rescaling coefficient of the circuit, so a channel that acts as
    global white noise scores exactly zero.  The reported error is the
    standard error over the observable sample.
    """
    if num_paulis < 1:
        raise ValueError("need at least one observable")
    if rng is None:
        raise ValueError("an explicit seeded rng is required")
    paulis = random_paulis(c.n, num_paulis, exclude_identity=True, rng=rng)
    means, _ = effective_fidelity_batch(c, paulis, shots, rng)
    r = optimal_rescale_coefficient(c)
    mean, stderr = _mean_stderr(np.abs(r * np.abs(means) - 1.0))
    return float(mean), float(stderr)


# ---------------------------------------------------------------------------
# overhead and bias bounds
# ---------------------------------------------------------------------------


def overhead_rescaling(p_err: float, num_layers: int, n: int) -> float:
    """Sampling overhead of rescaled estimation under white-noise decay."""
    if not 0 <= p_err < 1:
        raise ValueError("error probability must lie in [0, 1)")
    return (1 - _goodness(n) * p_err) ** (-2 * num_layers)


def overhead_pec(p_err: float, num_layers: int) -> float:
    """Sampling overhead of probabilistic error cancellation."""
    if not 0 <= p_err < 1:
        raise ValueError("error probability must lie in [0, 1)")
    return (1 + 2 * p_err) ** (2 * num_layers)


def overhead_lower_bound(p_err: float, num_layers: int, n: int) -> float:
    """Fundamental lower bound on mitigation overhead, first order in p."""
    if not 0 <= p_err < 1:
        raise ValueError("error probability must lie in [0, 1)")
    return (1 + 2 * _goodness(n) * p_err) ** num_layers - (2**n - 2) / (4**n - 1)


def whitenoise_bias_bound(s: float, u: float, num_layers: int, n: int) -> float:
    """Worst-case bias of rescaled estimation vs. exact white noise."""
    if not 0 < u <= 1:
        raise ValueError("unitarity must lie in (0, 1]")
    if not 0 <= s <= 1:
        raise ValueError("noise strength parameter must lie in [0, 1]")
    ratio = min(s * s / u, 1.0)
    return math.sqrt((2**n - 1) / (2**n + 1) * (1 - ratio**num_layers))


def corollary_bound(v: float, p_tot: float, num_layers: int) -> float:
    """Large-L simplification of the white-noise bias bound: v·p_tot/√L."""
    if num_layers < 1:
        raise ValueError("need at least one layer")
    return v * p_tot / math.sqrt(num_layers)
