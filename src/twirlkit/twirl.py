"""Scrambling Pauli noise with Cliffords that commute with a gate's symmetry group.

A non-Clifford gate whose Pauli expansion is supported on a stabilizer-like
subgroup Q (e.g. {I, Z⊗I…I} for a Z-axis rotation on qubit 0) commutes with
every Clifford that fixes Q element-wise.  Averaging the noise over such
Cliffords spreads a local error into a structured uniform ensemble without
disturbing the gate itself.  This module provides:

* ``SymmetrySpec`` — the register decomposition and Clifford frame describing Q;
* ``twirl_channel`` / ``twirl_channel_ksparse`` — the exact averaged channel;
* ``decode_gadgets`` — the one sampling rule: rows of uniform doubles
  (``gadget_width`` per draw) decoded into gadgets' spread sets,
  local-Clifford indices and S bits, whose average realizes the exact
  channel.  The engine applies the decoded arrays as bit masks;
* ``sample_full_twirl_gate`` / ``sample_ksparse_twirl_gate`` — one decoded
  row assembled as a ``TwirlGadget`` of gates, for the dense oracle and the
  exact checks;
* ``enumerate_sampler_distribution`` — the samplers' exact finite outcome
  distribution with rational weights, for verification;
* ``pauli_subgroup_of_unitary`` — recover Q from a dense unitary.

Gadget orientation: a gadget D is placed as D† before the rotation and D
after it, so a noise element E occurring after the rotation is transformed
into D E D† (``gadget.conjugate_pauli(E)``).  Assembled gadgets and
symmetry frames are kept as gate lists; no tableau is built for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct

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
)
from .paulis import PauliOp, identity, weight
from .tableau import (
    GateSpec,
    _check_qubits,
    apply_gates,
    clifford_mapping_z0_to,
    gate,
    invert_gates,
    single_qubit_clifford_gates,
)

_ENUMERATION_CAP = 1_000_000
_S0 = gate("S", 0)  # the gadgets' S on qubit 0, validated once


# ---------------------------------------------------------------------------
# symmetry descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetrySpec:
    """Register split (n1, n2, n3) and Clifford frame W describing the symmetry group.

    W is kept as its gate list ``w_gates`` (applied left to right).  In the
    frame (after conjugating by W), the group is the diagonal {I,Z}-strings
    on the middle register: qubits [n1, n1+n2).  The first n1 qubits are
    untouched spectators and the last n3 are fully free.
    """

    n1: int
    n2: int
    n3: int
    w_gates: tuple[GateSpec, ...]

    def __post_init__(self) -> None:
        if min(self.n1, self.n2, self.n3) < 0 or self.n2 == 0:
            raise ValueError("register sizes must be nonnegative with a nonempty middle register")
        object.__setattr__(self, "w_gates", tuple(self.w_gates))
        _check_qubits(self.n, self.w_gates)

    @property
    def n(self) -> int:
        return self.n1 + self.n2 + self.n3

    @property
    def is_rz_type(self) -> bool:
        """Single-qubit-generator rotation shape: one middle qubit, no spectators."""
        return self.n1 == 0 and self.n2 == 1

    @cached_property
    def _frame_inv_gates(self) -> tuple[GateSpec, ...]:
        return tuple(invert_gates(list(self.w_gates)))

    @property
    def registers(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        a, b = self.n1, self.n1 + self.n2
        return tuple(range(a)), tuple(range(a, b)), tuple(range(b, self.n))

    @staticmethod
    def rz_first_qubit(n: int) -> "SymmetrySpec":
        return SymmetrySpec(0, 1, n - 1, ())

    @staticmethod
    def toffoli(n: int) -> "SymmetrySpec":
        if n < 3:
            raise ValueError("a Toffoli needs at least three qubits")
        return SymmetrySpec(0, 3, n - 3, (gate("H", 2),))

    @staticmethod
    def pauli_rotation(axis: PauliOp) -> "SymmetrySpec":
        return SymmetrySpec(0, 1, axis.n - 1, clifford_mapping_z0_to(axis))


# ---------------------------------------------------------------------------
# twirl gadgets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwirlGadget:
    """A sampled scrambling Clifford, kept as its gate sequence."""

    n: int
    gates: tuple[GateSpec, ...]
    support: frozenset[int]

    def conjugate_pauli(self, p: PauliOp) -> PauliOp:
        """D p D† straight off the gate list (no tableau build)."""
        return apply_gates(p, self.gates)


def _assemble_gadget(n: int, targets: tuple[int, ...], local_indices: tuple[int, ...], s_fired: bool) -> TwirlGadget:
    gates: list[GateSpec] = []
    if targets:
        gates.append(GateSpec("MULTICNOT", (0, *targets)))
    for q, idx in zip(targets, local_indices):
        gates.extend(single_qubit_clifford_gates(idx, q))
    if s_fired:
        gates.append(_S0)
    support = set(targets)
    if targets or s_fired:
        support.add(0)
    return TwirlGadget(n, tuple(gates), frozenset(support))


def gadget_width(n: int, mode: str) -> int:
    """Uniform doubles one gadget draw reads: n−1 spread keys, n−1 local indices and
    the S bit, plus one for the spread size in ``ksparse``."""
    if mode not in ("full", "ksparse"):
        raise ValueError(f"twirl mode {mode!r} draws no gadgets")
    return 2 * n - 1 if mode == "full" else 2 * n


def decode_gadgets(n: int, mode: str, k: int | None, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gadgets of uniforms on [0, 1), one row of ``gadget_width`` along the last axis per draw.

    Returns, with the leading axes of ``u``: the spread sets (…, n−1) bool,
    entry t−1 for qubit t; the local-Clifford indices (…, n−1), ⌊24u⌋, read
    only inside the spread set; and the S bits (…), u < 1/2.  In ``full``
    each other qubit joins the spread set where its u < 3/4.  In ``ksparse``
    the first u picks the spread size j < k with probability ∝ 3^j·C(n−1, j)
    by inverse CDF, and the qubits of the j smallest of the next n−1 u join.
    """
    m = n - 1
    if mode == "full":
        spread = u[..., :m] < 0.75
    elif mode == "ksparse":
        weights = [3**j * math.comb(m, j) for j in range(k)]
        sizes = np.searchsorted(np.cumsum(weights), u[..., 0] * sum(weights), side="right")
        u = u[..., 1:]
        spread = u[..., :m].argsort(axis=-1).argsort(axis=-1) < np.minimum(sizes, k - 1)[..., None]
    else:
        raise ValueError(f"twirl mode {mode!r} draws no gadgets")
    return spread, (u[..., m : 2 * m] * 24).astype(np.intp), u[..., 2 * m] < 0.5


def _draw_gadget(n: int, mode: str, k: int | None, rng: np.random.Generator) -> TwirlGadget:
    """One gadget: one row of uniforms decoded and assembled as gates."""
    spread, local, s_bit = decode_gadgets(n, mode, k, rng.random((1, gadget_width(n, mode))))
    targets = tuple(int(t) + 1 for t in np.flatnonzero(spread[0]))
    return _assemble_gadget(n, targets, tuple(int(local[0, t - 1]) for t in targets), bool(s_bit[0]))


def sample_full_twirl_gate(n: int, rng: np.random.Generator) -> TwirlGadget:
    """One random scrambling gadget for a Z-rotation on qubit 0.

    Each other qubit joins the spread set with probability 3/4; a fan of
    CNOTs from qubit 0 covers the set; each covered qubit gets a uniform
    single-qubit Clifford; an S lands on qubit 0 with probability 1/2.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    return _draw_gadget(n, "full", None, rng)


def sample_ksparse_twirl_gate(n: int, k: int, rng: np.random.Generator) -> TwirlGadget:
    """Weight-limited variant: the spread set covers at most k−1 other qubits.

    The spread size j is drawn with probability 3^j·C(n−1,j) / Σ_{j'<k} 3^{j'}·C(n−1,j'),
    then a uniform j-subset; the remaining steps match the full sampler.
    """
    if not 1 <= k <= n:
        raise ValueError("sparsity k must lie in [1, n]")
    gadget = _draw_gadget(n, "ksparse", k, rng)
    assert len(gadget.support) <= k
    return gadget


def enumerate_sampler_distribution(
    n: int, mode: str = "full", k: int | None = None
) -> list[tuple[Fraction, TwirlGadget]]:
    """The exact finite outcome distribution of either sampler (rational weights).

    The full sampler's spread-set weight (3/4)^j·(1/4)^(n−1−j) is the k-sparse one at k = n.
    """
    m = n - 1
    if mode == "full":
        k = n
    elif mode != "ksparse":
        raise ValueError(f"unknown mode {mode!r}")
    if k is None or not 1 <= k <= n:
        raise ValueError("ksparse mode needs k in [1, n]")
    total = sum(3**j * math.comb(m, j) for j in range(k))
    count = sum(math.comb(m, j) * 24**j for j in range(k)) * 2
    if count > _ENUMERATION_CAP:
        raise ValueError(f"enumeration would produce {count} gadgets (cap {_ENUMERATION_CAP})")

    out: list[tuple[Fraction, TwirlGadget]] = []
    others = list(range(1, n))
    for mask in range(1 << m):
        targets = tuple(others[i] for i in range(m) if mask >> i & 1)
        if len(targets) >= k:
            continue
        base = Fraction(3 ** len(targets), total) * Fraction(1, 24) ** len(targets) * Fraction(1, 2)
        for local_indices in iproduct(range(24), repeat=len(targets)):
            for s_fired in (False, True):
                out.append((base, _assemble_gadget(n, targets, tuple(local_indices), s_fired)))
    assert sum(w for w, _ in out) == 1
    return out


# ---------------------------------------------------------------------------
# exact twirled channels
# ---------------------------------------------------------------------------


def _point_member(e: PauliEnsemble) -> PauliOp:
    if e.cardinality != 1:
        raise ValueError(
            "twirling is defined here for channels of fixed Pauli errors only; "
            "got a structured (already-scrambled) ensemble"
        )
    return next(iter(e.members()))


def twirl_channel(ch: PauliChannel, spec: SymmetrySpec) -> PauliChannel:
    """Exact average of the channel over the full symmetric Clifford group.

    Each fixed error P is decomposed in the symmetry's frame into (P1, P2, P3)
    on the three registers.  If P2 anticommutes with part of the diagonal
    group (it has an X/Y letter), P spreads to its full compatibility class:
    fixed P1, the {X,Y}/{I,Z} coset pattern of P2, everything on register 3.
    If P2 is diagonal but P3 is not trivial, the orbit is every diagonal
    register-2 string with any nonidentity register-3 part.  Otherwise P
    commutes with the whole group and is left untouched.
    """
    if ch.n != spec.n:
        raise ValueError("channel and symmetry dimensions differ")
    reg1, reg2, reg3 = spec.registers
    new_atoms: list[tuple[float, PauliEnsemble]] = []
    for prob, e in ch.atoms:
        p = _point_member(e)
        pf = apply_gates(p, spec.w_gates).unsigned()
        p2 = pf.restrict(reg2)
        p3 = pf.restrict(reg3) if reg3 else None
        if p2.x != 0:
            factors: list = []
            if reg1:
                factors.append(PointFactor(reg1, pf.restrict(reg1)))
            for i, q in enumerate(reg2):
                if p2.x >> i & 1:
                    factors.append(XYSetFactor((q,)))
                else:
                    factors.append(DiagonalIZFactor((q,)))
            if reg3:
                factors.append(FullGroupFactor(reg3))
            new_atoms.append((prob, PauliEnsemble(ch.n, tuple(factors), spec._frame_inv_gates)))
        elif p3 is not None and not p3.is_identity:
            factors = []
            if reg1:
                factors.append(PointFactor(reg1, pf.restrict(reg1)))
            factors.append(DiagonalIZFactor(reg2))
            factors.append(FullGroupMinusIdentityFactor(reg3))
            new_atoms.append((prob, PauliEnsemble(ch.n, tuple(factors), spec._frame_inv_gates)))
        else:
            new_atoms.append((prob, e))
    return PauliChannel(ch.n, tuple(new_atoms))


def twirl_channel_ksparse(ch: PauliChannel, k: int) -> PauliChannel:
    """Weight-limited average for a Z-rotation on qubit 0.

    Only single-qubit fixed errors on qubit 0 are supported: X/Y errors
    spread to {X,Y} on qubit 0 times all weight-≤(k−1) Paulis elsewhere;
    Z errors are invariant.
    """
    if not 1 <= k <= ch.n:
        raise ValueError("sparsity k must lie in [1, n]")
    rest = tuple(range(1, ch.n))
    new_atoms: list[tuple[float, PauliEnsemble]] = []
    for prob, e in ch.atoms:
        p = _point_member(e)
        if weight(p) != 1 or p.letter_at(0) == "I":
            raise ValueError("weight-limited twirling expects single-qubit errors on qubit 0")
        if p.letter_at(0) == "Z":
            new_atoms.append((prob, e))
        else:
            factors: tuple = (XYSetFactor((0,)),)
            if rest:
                factors += (WeightAtMostFactor(rest, k - 1),)
            new_atoms.append((prob, PauliEnsemble(ch.n, factors)))
    return PauliChannel(ch.n, tuple(new_atoms))


def twirl_general_noise(
    pauli_part: PauliChannel, coherent_angle: float, spec: SymmetrySpec
) -> tuple[PauliChannel, float]:
    """Twirl the Pauli part of (Pauli ∘ coherent-over-rotation) noise.

    Every gadget commutes with the rotation generator, so the coherent angle
    passes through unchanged; only the Pauli part is scrambled.
    """
    if not spec.is_rz_type:
        raise ValueError("coherent pass-through is established for single-generator rotations only")
    return twirl_channel(pauli_part, spec), float(coherent_angle)


# ---------------------------------------------------------------------------
# recovering the symmetry group from a dense unitary
# ---------------------------------------------------------------------------


def pauli_subgroup_of_unitary(u_matrix: np.ndarray, tol: float = 1e-9) -> list[PauliOp]:
    """Independent generators of the Pauli group supporting U's expansion.

    Collects every Pauli with a nonzero trace overlap against U, closes the
    set into a group (GF(2) span of bit vectors, phases dropped), and returns
    a basis.  Traces use index arithmetic only — no Pauli matrices are built.
    """
    dim = u_matrix.shape[0]
    m = dim.bit_length() - 1
    if u_matrix.shape != (dim, dim) or 2**m != dim:
        raise ValueError("input must be a square matrix of size 2^m")
    if m > 6:
        raise ValueError("dense scan capped at 6 qubits")
    defect = np.abs(u_matrix @ u_matrix.conj().T - np.eye(dim)).max()
    if defect > max(tol, 1e-7):
        raise ValueError(f"input is not unitary (defect {defect:.2e})")

    rows = np.arange(dim)
    qubit_bits = [(rows >> (m - 1 - q)) & 1 for q in range(m)]
    support: list[PauliOp] = []
    for x in range(2**m):
        x_idx = 0
        for q in range(m):
            if x >> q & 1:
                x_idx |= 1 << (m - 1 - q)
        cols = rows ^ x_idx
        for z in range(2**m):
            par = np.zeros(dim, dtype=np.int64)
            for q in range(m):
                if z >> q & 1:
                    par ^= qubit_bits[q]
            coef = np.sum(np.where(par == 1, -1.0, 1.0) * u_matrix[rows, cols])
            if abs(coef) > tol * dim:
                support.append(PauliOp(m, x, z))

    # GF(2) row reduction of the (x|z) bit vectors
    basis: list[PauliOp] = []
    pivots: list[int] = []
    for p in support:
        vec = p.x | (p.z << m)
        for b, piv in zip(basis, pivots):
            if vec >> piv & 1:
                vec ^= b.x | (b.z << m)
        if vec:
            piv = vec.bit_length() - 1
            basis.append(PauliOp(m, vec & ((1 << m) - 1), vec >> m))
            pivots.append(piv)
    return basis


def pauli_group_span(generators: list[PauliOp], n: int | None = None) -> set[PauliOp]:
    """All unsigned products of the generators (small groups only)."""
    if not generators:
        if n is None:
            raise ValueError("the trivial group needs an explicit qubit count")
        return {identity(n)}
    out = {identity(generators[0].n)}
    for g in generators:
        out |= {PauliOp(g.n, p.x ^ g.x, p.z ^ g.z) for p in out}
    return out
