"""Bit-packed n-qubit Pauli operators with exact group algebra.

A Pauli operator is stored as two Python integers used as bit vectors (bit i
corresponds to qubit i, qubit 0 is the leftmost letter in text form) plus a
global phase exponent ``k`` with sign = i**k:

    (x_bit, z_bit) = (0,0) -> I   (1,0) -> X   (0,1) -> Z   (1,1) -> Y

The letter bits describe the Pauli string itself (so (1,1) means the Hermitian
letter Y, not the product XZ); the phase exponent carries everything else.
Python integers have no width limit, so the qubit count is a plain runtime
parameter with no fixed cap.  For vectorized work, a batch of unsigned Paulis
is held by qubit, as columns: one int per qubit whose bit r belongs to row r
(private helpers at the bottom).

Internally the product formula converts through the symplectic normal form
P = i**(x.z) X^x Z^z, which gives the phase of a product as

    k(a*b) = k(a) + k(b) + x_a.z_a + x_b.z_b + 2*(z_a.x_b) - x_c.z_c  (mod 4)

with c the XOR of the bit vectors and "." the integer dot product of bit
vectors (a popcount of an AND).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SIGN_CHARS = {0: "", 1: "i", 2: "-", 3: "-i"}
_SIGN_VALUES = {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}
_LETTERS = "IXZY"  # indexed by x_bit + 2*z_bit
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


@dataclass(frozen=True)
class PauliOp:
    """Immutable signed Pauli string on ``n`` qubits.

    Attributes:
        n: Qubit count.
        x: X-component bit vector (bit i = qubit i).
        z: Z-component bit vector.
        phase: Exponent k of the global sign i**k, canonicalized to 0..3.
    """

    n: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"qubit count must be positive, got {self.n}")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("bit vector has bits outside the register")
        object.__setattr__(self, "phase", self.phase % 4)

    @property
    def sign(self) -> complex:
        return _SIGN_VALUES[self.phase]

    @property
    def is_identity(self) -> bool:
        """True for the identity bit pattern regardless of sign."""
        return self.x == 0 and self.z == 0

    def letter_at(self, qubit: int) -> str:
        bit = 1 << qubit
        return _LETTERS[(1 if self.x & bit else 0) + 2 * (1 if self.z & bit else 0)]

    def unsigned(self) -> "PauliOp":
        return self if self.phase == 0 else PauliOp(self.n, self.x, self.z, 0)

    def with_phase(self, phase: int) -> "PauliOp":
        return PauliOp(self.n, self.x, self.z, phase)

    def restrict(self, qubits: tuple[int, ...]) -> "PauliOp":
        """Pauli on the sub-register formed by ``qubits`` (sign dropped)."""
        x = z = 0
        for out_bit, q in enumerate(qubits):
            if self.x >> q & 1:
                x |= 1 << out_bit
            if self.z >> q & 1:
                z |= 1 << out_bit
        return PauliOp(len(qubits), x, z)

    def __str__(self) -> str:
        return format_pauli(self)

    def __repr__(self) -> str:
        return f"PauliOp({format_pauli(self)!r})"


def identity(n: int) -> PauliOp:
    return PauliOp(n, 0, 0)


def single(n: int, qubit: int, letter: str, phase: int = 0) -> PauliOp:
    """Single-letter Pauli: ``letter`` on ``qubit``, identity elsewhere."""
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for n={n}")
    xb, zb = _LETTER_BITS[letter]
    return PauliOp(n, xb << qubit, zb << qubit, phase)


def _check_same_n(a: PauliOp, b: PauliOp) -> None:
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n} qubits")


def pauli_mul(a: PauliOp, b: PauliOp) -> PauliOp:
    """Group product a*b with the exact accumulated phase."""
    _check_same_n(a, b)
    x = a.x ^ b.x
    z = a.z ^ b.z
    phase = (
        a.phase
        + b.phase
        + (a.x & a.z).bit_count()
        + (b.x & b.z).bit_count()
        + 2 * (a.z & b.x).bit_count()
        - (x & z).bit_count()
    )
    return PauliOp(a.n, x, z, phase % 4)


def commutes(a: PauliOp, b: PauliOp) -> bool:
    """True iff ab = ba (even binary symplectic inner product)."""
    _check_same_n(a, b)
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


def weight(p: PauliOp) -> int:
    """Number of qubits carrying a non-identity letter."""
    return (p.x | p.z).bit_count()


def random_bits(n: int, rng: np.random.Generator) -> int:
    """Uniform n-bit integer (any n): the value and generator state of ``rng.bytes(⌈n/8⌉)``."""
    value = 0
    for i in range(max(1, (n + 31) // 32)):  # the uint32 words rng.bytes reads, lowest first
        value |= int(rng.integers(0, 2**32, dtype=np.uint32)) << (32 * i)
    return value & ((1 << n) - 1)


def random_pauli(
    n: int, exclude_identity: bool = False, rng: np.random.Generator | None = None
) -> PauliOp:
    """Uniform random Pauli with sign +1.

    Args:
        n: Qubit count.
        exclude_identity: If True, sample uniformly from the 4**n - 1
            non-identity strings (by rejection).
        rng: Seeded numpy Generator; owned by the caller.
    """
    return random_paulis(n, 1, exclude_identity, rng)[0]


def random_paulis(
    n: int, count: int, exclude_identity: bool = False, rng: np.random.Generator | None = None
) -> list[PauliOp]:
    """``count`` draws of ``random_pauli(n, exclude_identity, rng)`` in bulk.

    Each draw reads its x bits, then its z bits, as ``random_bits(n, rng)``
    would, and rejected identities are redrawn.  ``rng.bytes(k)`` reads
    ⌈k/4⌉ uint32 words, little-endian, cut to k bytes, so one ``integers``
    draw of those words reads the same stream and leaves the generator in
    the same state; after rejections only the deficit is drawn.
    """
    if rng is None:
        raise ValueError("an explicit seeded rng is required")
    words = ((n + 7) // 8 + 3) // 4  # uint32 words per random_bits call
    mask = (1 << n) - 1
    out: list[PauliOp] = []
    while len(out) < count:
        raw = rng.integers(0, 2**32, size=(count - len(out), 2, words), dtype=np.uint32).astype("<u4")
        for row in raw:
            x = int.from_bytes(row[0].tobytes(), "little") & mask
            z = int.from_bytes(row[1].tobytes(), "little") & mask
            if not (exclude_identity and x == 0 and z == 0):
                out.append(PauliOp(n, x, z))
    return out


def parse_pauli(s: str) -> PauliOp:
    """Parse text like "XIZ", "-iY" or "+ZZ" into a PauliOp.

    Raises:
        ValueError: On an invalid letter, reporting its index in the input.
    """
    phase = 0
    body = s
    for prefix, k in (("-i", 3), ("+i", 1), ("i", 1), ("-", 2), ("+", 0)):
        if s.startswith(prefix):
            phase = k
            body = s[len(prefix) :]
            break
    if not body:
        raise ValueError(f"empty Pauli string in {s!r}")
    offset = len(s) - len(body)
    x = z = 0
    for idx, ch in enumerate(body):
        if ch not in _LETTER_BITS:
            raise ValueError(f"invalid Pauli letter {ch!r} at index {idx + offset} in {s!r}")
        xb, zb = _LETTER_BITS[ch]
        x |= xb << idx
        z |= zb << idx
    return PauliOp(len(body), x, z, phase)


def format_pauli(p: PauliOp) -> str:
    """Text form with qubit 0 leftmost and a sign prefix for non-+1 signs."""
    letters = "".join(p.letter_at(q) for q in range(p.n))
    return _SIGN_CHARS[p.phase] + letters


# ---------------------------------------------------------------------------
# column batches: xs[q] holds bit r = x bit of row r on qubit q (CHP columns,
# qubit-major as in Stim), zs[q] the z bits the same way
# ---------------------------------------------------------------------------


def _unpack(vectors: list[int], width: int) -> np.ndarray:
    """(len(vectors), width) uint8 array: entry [i, j] is bit j of vectors[i]."""
    size = (width + 7) // 8
    raw = np.frombuffer(b"".join(v.to_bytes(size, "little") for v in vectors), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(vectors), size), axis=1, count=width, bitorder="little")


def _transpose(vectors: list[int], width: int) -> list[int]:
    """``width`` ints whose bit j at index i is bit i of vectors[j]: the bit-matrix transpose."""
    packed = np.packbits(_unpack(vectors, width).T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _columns(paulis: list[PauliOp], n: int) -> tuple[list[int], list[int]]:
    """The unsigned rows as n x columns and n z columns."""
    return _transpose([p.x for p in paulis], n), _transpose([p.z for p in paulis], n)


def _weight(xs, zs, qubits, rows: int) -> np.ndarray:
    """Per row, the number of ``qubits`` it acts on."""
    return _unpack([xs[q] | zs[q] for q in qubits], rows).sum(axis=0, dtype=np.int64)
