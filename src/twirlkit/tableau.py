"""Clifford operators as symplectic tableaus acting on Paulis by conjugation.

A Clifford C is stored by the signed images C X_i C† and C Z_i C† of the 2n
Pauli generators.  Global phases are quotiented out: two unitaries equal up to
phase have the same tableau, and only the conjugation action is ever used.

Conjugation of an arbitrary Pauli decomposes it through the generator images::

    P = i**k * i**(x.z) * prod_i X_i^{x_i} Z_i^{z_i}

so C P C† is the ordered product of the stored images with the same prefactor.

Elementary gates act on Paulis through one set of closed-form bit/sign rules
(verified exhaustively against a dense-matrix reference in the test suite),
applied to a batch held as qubit-indexed columns: the CHP column form
(Aaronson & Gottesman, arXiv:quant-ph/0406196), stored qubit-major as in
Stim (Gidney, arXiv:2103.02202).  xs[q] is an int whose bit r is the x bit
of row r on qubit q, zs[q] holds the z bits, and a sign int holds one bit
per row, so a gate costs a few int operations whatever the batch width.
A single Pauli, a tableau's 2n generator images and the engine's
observables are all such batches.
Uniform random sampling uses the exact canonical-form construction over the
binary symplectic group (Koenig & Smolin, arXiv:1406.2170: transvection-based,
rejection-free), plus uniform sign bits — every tableau is produced with
equal probability.  Its symplectic vectors are Python ints in interleaved
order (bit 2q is x_q, bit 2q+1 is z_q), like every other bit vector here; the
even-bit mask of the symplectic form is sized per call, so any n works.

Tableaus are for sampling, synthesis and checks.  Everywhere else a Clifford
is kept as its gate list (rotation frames, symmetry frames, Clifford layers,
twirling gadgets) and acts on Paulis through ``apply_gates`` or, on column
batches, ``_apply_gate``.  Tableau algebra goes through gate lists too:
``from_gates`` builds every tableau that composition, inversion and the
identity return, and ``conjugate`` is the one action on the stored images.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .paulis import PauliOp, _columns, _transpose, commutes, pauli_mul, random_bits, single

_ONE_QUBIT_KINDS = ("H", "S", "X", "Y", "Z")
_TWO_QUBIT_KINDS = ("CNOT", "CZ", "SWAP")


@dataclass(frozen=True)
class GateSpec:
    """An elementary Clifford gate: kind plus ordered qubit indices.

    Kinds: H, S, X, Y, Z (one qubit); CNOT (control, target), CZ, SWAP
    (two qubits); MULTICNOT (control, then any number of distinct targets).
    """

    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        kind = self.kind.upper()
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "qubits", tuple(map(int, self.qubits)))
        if kind in _ONE_QUBIT_KINDS:
            if len(self.qubits) != 1:
                raise ValueError(f"{kind} takes one qubit, got {self.qubits}")
        elif kind in _TWO_QUBIT_KINDS:
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError(f"{kind} takes two distinct qubits, got {self.qubits}")
        elif kind == "MULTICNOT":
            control, *targets = self.qubits
            if not targets:
                raise ValueError("MULTICNOT needs at least one target")
            if len(set(targets)) != len(targets) or control in targets:
                raise ValueError("MULTICNOT targets must be distinct and exclude the control")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if min(self.qubits) < 0:  # every kind above holds at least one qubit
            raise ValueError(f"{kind} qubits must be non-negative, got {self.qubits}")


def gate(kind: str, *qubits: int) -> GateSpec:
    return GateSpec(kind, tuple(qubits))


def _apply_gate(xs, zs, sign: int, g: GateSpec) -> int:
    """g P g† for every row of a column batch: columns in place, new sign bits returned.

    ``xs[q]``/``zs[q]`` are the x/z bits of qubit q, one bit per row, and bit r
    of ``sign`` is set where row r carries −1; any container indexed by qubit
    works.  Callers that track no sign pass 0 and drop the result: the bit
    rules are involutions (S and S† agree there), so replaying a reversed
    gate list undoes them.
    """
    kind = g.kind
    if kind == "H":
        (q,) = g.qubits
        x, z = xs[q], zs[q]
        xs[q], zs[q] = z, x
        return sign ^ x & z
    if kind == "S":
        (q,) = g.qubits
        x, z = xs[q], zs[q]
        zs[q] = z ^ x
        return sign ^ x & z
    if kind == "CNOT" or kind == "MULTICNOT":  # a fan of CNOTs sharing one control
        c, *targets = g.qubits
        xc = xs[c]
        for t in targets:
            zt = zs[t]
            sign ^= xc & zt & ~(xs[t] ^ zs[c])
            xs[t] ^= xc
            zs[c] ^= zt
        return sign
    if kind == "CZ":
        a, b = g.qubits
        xa, xb = xs[a], xs[b]
        sign ^= xa & xb & (zs[a] ^ zs[b])
        zs[a] ^= xb
        zs[b] ^= xa
        return sign
    if kind == "SWAP":
        a, b = g.qubits
        xs[a], xs[b] = xs[b], xs[a]
        zs[a], zs[b] = zs[b], zs[a]
        return sign
    (q,) = g.qubits  # a Pauli gate flips the sign of the rows it anticommutes with
    if kind == "X":
        return sign ^ zs[q]
    if kind == "Z":
        return sign ^ xs[q]
    return sign ^ xs[q] ^ zs[q]


@dataclass(frozen=True)
class CliffordOp:
    """Clifford conjugation action: signed images of the X_i and Z_i generators."""

    n: int
    image_x: tuple[PauliOp, ...]
    image_z: tuple[PauliOp, ...]

    def is_valid(self) -> bool:
        """Symplectic tableau conditions (pairwise commutation pattern)."""
        for i in range(self.n):
            if commutes(self.image_x[i], self.image_z[i]):
                return False
            for j in range(i + 1, self.n):
                if not commutes(self.image_x[i], self.image_x[j]):
                    return False
                if not commutes(self.image_z[i], self.image_z[j]):
                    return False
                if not commutes(self.image_x[i], self.image_z[j]):
                    return False
                if not commutes(self.image_z[i], self.image_x[j]):
                    return False
        return True

    def is_identity(self) -> bool:
        return self == identity_clifford(self.n)


def identity_clifford(n: int) -> CliffordOp:
    return from_gates(n, ())


def conjugate(c: CliffordOp, p: PauliOp) -> PauliOp:
    """C p C† with exact sign."""
    if c.n != p.n:
        raise ValueError(f"dimension mismatch: Clifford on {c.n}, Pauli on {p.n} qubits")
    acc = PauliOp(p.n, 0, 0, (p.phase + (p.x & p.z).bit_count()) % 4)
    support = p.x | p.z
    q = 0
    while support >> q:
        if p.x >> q & 1:
            acc = pauli_mul(acc, c.image_x[q])
        if p.z >> q & 1:
            acc = pauli_mul(acc, c.image_z[q])
        q += 1
    return acc


def compose(a: CliffordOp, b: CliffordOp) -> CliffordOp:
    """Tableau of "apply b, then a" (the operator product a·b): b's gates, then a's."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n} qubits")
    return from_gates(a.n, decompose_gates(b) + decompose_gates(a))


def inverse(c: CliffordOp) -> CliffordOp:
    """Tableau of C†: the reversed, inverted gate list of C."""
    return from_gates(c.n, invert_gates(decompose_gates(c)))


def _check_qubits(n: int, gates: list[GateSpec] | tuple[GateSpec, ...]) -> None:
    """Reject a gate that addresses a qubit outside 0..n−1."""
    for g in gates:
        if max(g.qubits) >= n:
            raise ValueError(f"gate {g} addresses qubit >= n={n}")


def _generator_columns(n: int, gates) -> tuple[list[int], list[int], int]:
    """Columns and sign of the images of X_0..X_{n-1} (rows 0..n-1) and Z_0..Z_{n-1} (rows n..2n-1)."""
    xs = [1 << q for q in range(n)]
    zs = [1 << n + q for q in range(n)]
    sign = 0
    for g in gates:
        sign = _apply_gate(xs, zs, sign, g)
    return xs, zs, sign


def from_gates(n: int, gates: list[GateSpec] | tuple[GateSpec, ...]) -> CliffordOp:
    """Tableau of a gate sequence applied left to right."""
    _check_qubits(n, gates)
    xs, zs, sign = _generator_columns(n, gates)
    images = [
        PauliOp(n, x, z, 2 * (sign >> r & 1))
        for r, (x, z) in enumerate(zip(_transpose(xs, 2 * n), _transpose(zs, 2 * n)))
    ]
    return CliffordOp(n, tuple(images[:n]), tuple(images[n:]))


def apply_gates(p: PauliOp, gates: list[GateSpec] | tuple[GateSpec, ...]) -> PauliOp:
    """(g_m ... g_1) p (g_m ... g_1)† without building a tableau: a width-1 column batch."""
    if not gates:
        return p
    touched = {q for g in gates for q in g.qubits}
    xs = {q: p.x >> q & 1 for q in touched}
    zs = {q: p.z >> q & 1 for q in touched}
    sign = 0
    for g in gates:
        sign = _apply_gate(xs, zs, sign, g)
    keep = ~sum(1 << q for q in touched)
    x = p.x & keep | sum(xs[q] << q for q in touched)
    z = p.z & keep | sum(zs[q] << q for q in touched)
    return PauliOp(p.n, x, z, p.phase ^ 2 * sign)


def invert_gates(gates: list[GateSpec] | tuple[GateSpec, ...]) -> list[GateSpec]:
    """Gate sequence of the inverse operator (S† expands to three S gates)."""
    out: list[GateSpec] = []
    for g in reversed(gates):
        out.extend([g] * (3 if g.kind == "S" else 1))
    return out


# ---------------------------------------------------------------------------
# single-qubit Clifford group (24 tableau-distinct elements)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def single_qubit_clifford_words() -> tuple[tuple[str, ...], ...]:
    """Shortest {H,S} words for all 24 single-qubit Clifford tableaus (BFS)."""
    start = (single(1, 0, "X"), single(1, 0, "Z"))  # a tableau as its (X, Z) images
    seen: dict[tuple, tuple[str, ...]] = {start: ()}
    frontier = [start]
    while frontier:
        nxt = []
        for images in frontier:
            for kind in ("H", "S"):
                key = tuple(apply_gates(p, (GateSpec(kind, (0,)),)) for p in images)
                if key not in seen:
                    seen[key] = seen[images] + (kind,)
                    nxt.append(key)
        frontier = nxt
    assert len(seen) == 24
    return tuple(sorted(seen.values()))


@lru_cache(maxsize=None)
def single_qubit_clifford_gates(index: int, qubit: int) -> tuple[GateSpec, ...]:
    """Gate sequence of the index-th single-qubit Clifford, placed on ``qubit`` (memoized)."""
    word = single_qubit_clifford_words()[index]
    return tuple(GateSpec(kind, (qubit,)) for kind in word)


# ---------------------------------------------------------------------------
# uniform n-qubit Clifford sampling (exact, rejection-free)
# ---------------------------------------------------------------------------
#
# Binary symplectic vectors are Python ints in the interleaved order
# (x_0, z_0, x_1, z_1, ...): bit 2q is x_q and bit 2q+1 is z_q.  The form
# <u,v> = sum_q x_q(u) z_q(v) + z_q(u) x_q(v) mod 2 is the parity of the even
# bits of (u & v>>1) ^ (u>>1 & v); its odd bits mix neighbouring qubits and
# are masked off with 0b0101...01.  Any such mask at least as wide as the
# operands works, so there is no qubit cap: (4**n - 1) // 3 is the n-qubit
# one, and _sympl_inner sizes its own from the bit length.
# A transvection Z_h maps v -> v ^ h when <v,h> = 1 (else fixes v) and is
# symplectic for every h.  The sampler draws the canonical-form data of a
# uniformly random symplectic matrix level by level: a uniform nonzero image
# f1 of the first basis vector, mapped there by at most two transvections,
# plus 2j-1 free bits per level.


def _sympl_inner(u: int, v: int) -> int:
    t = u & v >> 1 ^ u >> 1 & v  # bit 2q: x_q(u) z_q(v) ^ z_q(u) x_q(v)
    width = t.bit_length()
    return (t & (1 << width + (width & 1)) // 3).bit_count() & 1


def _transvect(h: int, v: int) -> int:
    return v ^ h if _sympl_inner(v, h) else v


def _low_partner(v: int) -> int:
    """A vector with form 1 against v (nonzero), on v's lowest nonzero qubit only."""
    i = (v & -v).bit_length() - 1 & ~1
    return (0b01 if (v >> i & 3) == 0b10 else 0b10) << i


def _find_transvections(x: int, y: int) -> tuple[int, int]:
    """Two vectors (h_first, h_second) with Z_{h_second} Z_{h_first} x = y."""
    if x == y:
        return 0, 0
    if _sympl_inner(x, y):
        return x ^ y, 0
    # a qubit where x and y are both nonzero: z there has form 1 with both
    for i in range(0, min(x, y).bit_length(), 2):
        xp, yp = x >> i & 3, y >> i & 3
        if xp and yp:
            z = (xp ^ yp or (0b10 if xp == 0b11 else 0b11)) << i
            return x ^ z, z ^ y
    # otherwise x and y sit on disjoint qubits: z pairs with each on its lowest one
    z = _low_partner(x) | _low_partner(y)
    return x ^ z, z ^ y


def _random_symplectic(n: int, rng: np.random.Generator) -> list[int]:
    """Uniform 2n x 2n binary symplectic matrix as 2n int rows (images of the basis vectors)."""
    dim = 2 * n
    f1 = 0
    while not f1:  # uniform nonzero first image
        f1 = random_bits(dim, rng)
    t_first, t_second = _find_transvections(1, f1)
    bits = random_bits(dim - 1, rng)
    eprime = 1 | (bits << 1 & ~0b11)
    h0 = _transvect(t_second, _transvect(t_first, eprime))
    if bits & 1:
        f1 = 0
    rows = [0b01, 0b10]
    if n > 1:
        rows += [row << 2 for row in _random_symplectic(n - 1, rng)]
    return [_transvect(f1, _transvect(h0, _transvect(t_second, _transvect(t_first, row)))) for row in rows]


def random_clifford(n: int, rng: np.random.Generator) -> CliffordOp:
    """Uniform over all n-qubit Clifford tableaus (symplectic part x signs)."""
    rows = _random_symplectic(n, rng)
    signs = random_bits(2 * n, rng)

    def row_to_pauli(j: int) -> PauliOp:
        row = rows[j]
        x = sum((row >> 2 * q & 1) << q for q in range(n))
        z = sum((row >> 2 * q + 1 & 1) << q for q in range(n))
        return PauliOp(n, x, z, 2 * (signs >> j & 1))

    return CliffordOp(
        n,
        tuple(row_to_pauli(2 * i) for i in range(n)),
        tuple(row_to_pauli(2 * i + 1) for i in range(n)),
    )


# ---------------------------------------------------------------------------
# synthesis: tableau -> elementary gate sequence
# ---------------------------------------------------------------------------


def decompose_gates(c: CliffordOp) -> list[GateSpec]:
    """Elementary gate sequence whose from_gates tableau equals ``c``.

    Column-elimination: conjugating the tableau by prepended gates reduces it
    to the identity; the answer is the reversed, inverted gate list.  The 2n
    images are one signed column batch: row i is C X_i C†, row n + i is C Z_i C†.
    """
    n = c.n
    images = c.image_x + c.image_z
    xs, zs = _columns(images, n)
    sign = sum((p.phase >> 1) << r for r, p in enumerate(images))
    applied: list[GateSpec] = []

    def apply(g: GateSpec) -> None:
        nonlocal sign
        applied.append(g)
        sign = _apply_gate(xs, zs, sign, g)

    for i in range(n):
        zi = n + i  # the row of C Z_i C†
        # pivot: an X component at some qubit >= i
        pivot = next((q for q in range(i, n) if xs[q] >> i & 1), None)
        if pivot is None:
            pivot = next(q for q in range(i, n) if zs[q] >> i & 1)
            apply(gate("H", pivot))
        if pivot != i:
            apply(gate("SWAP", i, pivot))
        for q in range(n):
            if q != i and xs[q] >> i & 1:
                apply(gate("CNOT", i, q))
        for q in range(n):
            if q != i and zs[q] >> i & 1:
                apply(gate("CZ", i, q))
        if zs[i] >> i & 1:
            apply(gate("S", i))
        # row i is now +-X_i; bring row n + i to +-Z_i with gates fixing X_i
        for q in range(n):
            if q == i:
                continue
            if xs[q] >> zi & zs[q] >> zi & 1:
                apply(gate("S", q))
            if xs[q] >> zi & 1:
                apply(gate("H", q))
            if zs[q] >> zi & 1:
                apply(gate("CNOT", q, i))
        if xs[i] >> zi & 1:  # letter Y at the pivot: sqrt(X) fixes X_i
            apply(gate("H", i))
            apply(gate("S", i))
            apply(gate("H", i))
    for i in range(n):
        if sign >> i & 1:
            apply(gate("Z", i))
        if sign >> n + i & 1:
            apply(gate("X", i))
    assert (xs, zs, sign) == _generator_columns(n, ())
    return invert_gates(applied)


def clifford_mapping_z0_to(axis: PauliOp) -> tuple[GateSpec, ...]:
    """Deterministic gates of a V with V·axis·V† == +Z on qubit 0.

    Construction: per-support-qubit letter rotations to Z (H for X; S, H, X
    for Y, which is H·S† up to phase), a CNOT fan folding the Z string onto
    the first support qubit, then a SWAP to qubit 0.  The result is checked
    once on a tableau of the qubits the gates touch (the support and qubit
    0), which equals the full-register check.  Requires a non-identity axis
    with sign +1.
    """
    if axis.is_identity:
        raise ValueError("rotation axis must be a non-identity Pauli")
    if axis.phase != 0:
        raise ValueError("rotation axis must carry sign +1 (fold signs into the angle)")
    support = [q for q in range(axis.n) if (axis.x | axis.z) >> q & 1]
    gates: list[GateSpec] = []
    for q in support:
        letter = axis.letter_at(q)
        if letter == "Y":
            gates.extend([gate("S", q), gate("H", q), gate("X", q)])
        elif letter == "X":
            gates.append(gate("H", q))
    head = support[0]
    for q in support[1:]:
        gates.append(gate("CNOT", q, head))
    if head != 0:
        gates.append(gate("SWAP", head, 0))
    qubits = sorted({0, *support})
    sub = [GateSpec(g.kind, tuple(map(qubits.index, g.qubits))) for g in gates]
    check = conjugate(from_gates(len(qubits), sub), axis.restrict(tuple(qubits)))
    assert check == single(len(qubits), 0, "Z"), f"axis frame construction failed: {check}"
    return tuple(gates)
