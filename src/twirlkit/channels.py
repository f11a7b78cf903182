"""Pauli noise channels as mixtures over structured Pauli ensembles.

A channel is `identity_prob * id + sum_a prob_a * (uniform over ensemble_a)`.
Each ensemble is a tensor product of primitive factors over disjoint qubit
registers (point Pauli, full Pauli group, full group minus identity, the
diagonal {I,Z}^m strings, the single-qubit {X,Y} pair, or all Paulis of
bounded weight), optionally conjugated member-by-member through a Clifford
frame.  Cardinalities are exact big integers and every statistical query
(mean commutation sign, fidelities, distances, unitarity) has a closed form
in those cardinalities, so channels stay tractable at hundreds of qubits.
The same closed forms are evaluated on column batches (``fidelity_batch``:
xs[q] and zs[q] hold one bit per row, as in ``tableau``), which is how the
circuit engine reads every layer's Pauli fidelities.

Members are unsigned (Hermitian, sign +1) Paulis: conjugation `E rho E†`
is insensitive to the sign of E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .paulis import PauliOp, _unpack, _weight, commutes, identity, random_bits, random_pauli, weight
from .tableau import GateSpec, _apply_gate, _check_qubits, apply_gates, invert_gates

_PROB_TOL = 1e-12
_ENUM_CAP = 1 << 16  # largest ensemble we will materialize when merging overlaps


def _check_register(register: tuple[int, ...]) -> tuple[int, ...]:
    register = tuple(int(q) for q in register)
    if not register or len(set(register)) != len(register) or sorted(register) != list(register):
        raise ValueError(f"register must be a sorted tuple of distinct qubits, got {register}")
    return register


def _place(register: tuple[int, ...], local: PauliOp) -> tuple[int, int]:
    """Scatter a local Pauli's bits onto global qubit positions."""
    x = z = 0
    for i, q in enumerate(register):
        x |= ((local.x >> i) & 1) << q
        z |= ((local.z >> i) & 1) << q
    return x, z


def _acts_on(rows: int, register: tuple[int, ...], *columns) -> np.ndarray:
    """Per row, 1 where one of the column lists has a bit on a register qubit, else 0."""
    support = 0
    for cols in columns:
        for q in register:
            support |= cols[q]
    return _unpack([support], rows)[0]


# ---------------------------------------------------------------------------
# primitive factors: ``mean_chi_local`` is the exact mean commutation sign on
# the register, ``chi_batch`` the same closed form on column rows, in floats.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointFactor:
    """A single fixed Pauli on its register."""

    register: tuple[int, ...]
    pauli: PauliOp

    def __post_init__(self) -> None:
        object.__setattr__(self, "register", _check_register(self.register))
        if self.pauli.n != len(self.register):
            raise ValueError("point Pauli size must match register size")
        if self.pauli.phase != 0:
            raise ValueError("ensemble members are unsigned; point Pauli must have sign +1")

    @property
    def cardinality(self) -> int:
        return 1

    def mean_chi_local(self, q: PauliOp) -> Fraction:
        return Fraction(1) if commutes(self.pauli, q) else Fraction(-1)

    def chi_batch(self, xs, zs, rows: int) -> np.ndarray:
        odd = 0  # the symplectic form, one bit per row
        for i, q in enumerate(self.register):
            if self.pauli.z >> i & 1:
                odd ^= xs[q]
            if self.pauli.x >> i & 1:
                odd ^= zs[q]
        return 1.0 - 2.0 * _unpack([odd], rows)[0]

    def contains_local(self, q: PauliOp) -> bool:
        return q == self.pauli

    def sample_local(self, rng: np.random.Generator) -> PauliOp:
        return self.pauli

    def members_local(self):
        yield self.pauli


@dataclass(frozen=True)
class FullGroupFactor:
    """All 4^m unsigned Paulis on the register."""

    register: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "register", _check_register(self.register))

    @property
    def cardinality(self) -> int:
        return 4 ** len(self.register)

    def mean_chi_local(self, q: PauliOp) -> Fraction:
        return Fraction(1) if q.is_identity else Fraction(0)

    def chi_batch(self, xs, zs, rows: int) -> np.ndarray:
        return 1.0 - _acts_on(rows, self.register, xs, zs)

    def contains_local(self, q: PauliOp) -> bool:
        return True

    def sample_local(self, rng: np.random.Generator) -> PauliOp:
        return random_pauli(len(self.register), rng=rng)

    def members_local(self):
        m = len(self.register)
        for x in range(1 << m):
            for z in range(1 << m):
                yield PauliOp(m, x, z)


@dataclass(frozen=True)
class FullGroupMinusIdentityFactor:
    """All 4^m − 1 nonidentity unsigned Paulis on the register."""

    register: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "register", _check_register(self.register))

    @property
    def cardinality(self) -> int:
        return 4 ** len(self.register) - 1

    def mean_chi_local(self, q: PauliOp) -> Fraction:
        if q.is_identity:
            return Fraction(1)
        # the full group averages to zero; removing the identity leaves -1
        return Fraction(-1, self.cardinality)

    def chi_batch(self, xs, zs, rows: int) -> np.ndarray:
        return np.where(_acts_on(rows, self.register, xs, zs), -1 / self.cardinality, 1.0)

    def contains_local(self, q: PauliOp) -> bool:
        return not q.is_identity

    def sample_local(self, rng: np.random.Generator) -> PauliOp:
        return random_pauli(len(self.register), exclude_identity=True, rng=rng)

    def members_local(self):
        m = len(self.register)
        for x in range(1 << m):
            for z in range(1 << m):
                if x or z:
                    yield PauliOp(m, x, z)


@dataclass(frozen=True)
class DiagonalIZFactor:
    """All 2^m strings over {I, Z} on the register."""

    register: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "register", _check_register(self.register))

    @property
    def cardinality(self) -> int:
        return 2 ** len(self.register)

    def mean_chi_local(self, q: PauliOp) -> Fraction:
        # each qubit where q has an X or Y letter averages (+1 - 1)/2 = 0
        return Fraction(1) if q.x == 0 else Fraction(0)

    def chi_batch(self, xs, zs, rows: int) -> np.ndarray:
        return 1.0 - _acts_on(rows, self.register, xs)

    def contains_local(self, q: PauliOp) -> bool:
        return q.x == 0

    def sample_local(self, rng: np.random.Generator) -> PauliOp:
        m = len(self.register)
        return PauliOp(m, 0, random_bits(m, rng))

    def members_local(self):
        m = len(self.register)
        for z in range(1 << m):
            yield PauliOp(m, 0, z)


@dataclass(frozen=True)
class XYSetFactor:
    """The pair {X, Y} on a single qubit."""

    register: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "register", _check_register(self.register))
        if len(self.register) != 1:
            raise ValueError("XY factor lives on exactly one qubit")

    @property
    def cardinality(self) -> int:
        return 2

    def mean_chi_local(self, q: PauliOp) -> Fraction:
        letter = q.letter_at(0)
        if letter == "I":
            return Fraction(1)
        if letter == "Z":
            return Fraction(-1)
        return Fraction(0)  # X or Y: one partner commutes, the other does not

    def chi_batch(self, xs, zs, rows: int) -> np.ndarray:
        q = self.register[0]
        x, z = _unpack([xs[q], zs[q]], rows)
        return (1.0 - x) * (1.0 - 2.0 * z)

    def contains_local(self, q: PauliOp) -> bool:
        return q.letter_at(0) in ("X", "Y")

    def sample_local(self, rng: np.random.Generator) -> PauliOp:
        return PauliOp(1, 1, int(rng.integers(2)))

    def members_local(self):
        yield PauliOp(1, 1, 0)
        yield PauliOp(1, 1, 1)


@dataclass(frozen=True)
class WeightAtMostFactor:
    """All unsigned Paulis of weight ≤ max_weight on the register."""

    register: tuple[int, ...]
    max_weight: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "register", _check_register(self.register))
        if not 0 <= self.max_weight <= len(self.register):
            raise ValueError("max weight must lie in [0, register size]")

    @property
    def cardinality(self) -> int:
        m = len(self.register)
        return sum(3**j * math.comb(m, j) for j in range(self.max_weight + 1))

    def mean_chi_local(self, q: PauliOp) -> Fraction:
        """Average commutation sign against all members, in closed form.

        Members of weight j with `a` of their letters on q's support
        contribute (−1)^a on average over letter choices at supported sites
        (one of three letters commutes) and a factor 3 per unsupported site.
        """
        m = len(self.register)
        t = weight(q)
        total = 0
        for j in range(self.max_weight + 1):
            for a in range(min(j, t) + 1):
                total += (-1) ** a * math.comb(t, a) * math.comb(m - t, j - a) * 3 ** (j - a)
        return Fraction(total, self.cardinality)

    @cached_property
    def _chi_by_weight(self) -> np.ndarray:
        probes = [PauliOp(len(self.register), (1 << t) - 1, 0) for t in range(len(self.register) + 1)]
        return np.array([float(self.mean_chi_local(q)) for q in probes])

    def chi_batch(self, xs, zs, rows: int) -> np.ndarray:
        return self._chi_by_weight[_weight(xs, zs, self.register, rows)]

    def contains_local(self, q: PauliOp) -> bool:
        return weight(q) <= self.max_weight

    def sample_local(self, rng: np.random.Generator) -> PauliOp:
        m = len(self.register)
        card = self.cardinality
        # draw the weight class with its exact probability, then a uniform member
        r = _random_below(card, rng)
        j = 0
        acc = 0
        for j in range(self.max_weight + 1):
            acc += 3**j * math.comb(m, j)
            if r < acc:
                break
        support = rng.choice(m, size=j, replace=False) if j else np.array([], dtype=int)
        x = z = 0
        for q in support:
            letter = int(rng.integers(3))  # 0: X, 1: Y, 2: Z
            if letter != 2:
                x |= 1 << int(q)
            if letter != 0:
                z |= 1 << int(q)
        return PauliOp(m, x, z)

    def members_local(self):
        from itertools import combinations, product

        m = len(self.register)
        for j in range(self.max_weight + 1):
            for support in combinations(range(m), j):
                for letters in product("XYZ", repeat=j):
                    x = z = 0
                    for q, letter in zip(support, letters):
                        if letter != "Z":
                            x |= 1 << q
                        if letter != "X":
                            z |= 1 << q
                    yield PauliOp(m, x, z)


Factor = (
    PointFactor
    | FullGroupFactor
    | FullGroupMinusIdentityFactor
    | DiagonalIZFactor
    | XYSetFactor
    | WeightAtMostFactor
)


def _random_below(bound: int, rng: np.random.Generator) -> int:
    """Uniform integer in [0, bound) for arbitrarily large bounds."""
    bits = bound.bit_length()
    while True:
        r = random_bits(bits, rng)
        if r < bound:
            return r


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PauliEnsemble:
    """Uniform distribution over a structured set of unsigned n-qubit Paulis.

    The factors' registers must partition {0, …, n−1}.  An optional Clifford
    frame, kept only as its gate sequence (``()`` when there is none),
    conjugates every member;
    statistical queries replay the inverse gate list on the query Pauli
    instead of materializing the conjugated set.
    """

    n: int
    factors: tuple[Factor, ...]
    frame_gates: tuple[GateSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "frame_gates", tuple(self.frame_gates or ()))  # None reads as no frame
        _check_qubits(self.n, self.frame_gates)
        covered: set[int] = set()
        for f in self.factors:
            if covered & set(f.register):
                raise ValueError("factor registers overlap")
            covered |= set(f.register)
        if covered != set(range(self.n)):
            raise ValueError(f"factor registers must partition 0..{self.n - 1}")

    @cached_property
    def _frame_inv_gates(self) -> tuple[GateSpec, ...]:
        return tuple(invert_gates(self.frame_gates))

    @property
    def cardinality(self) -> int:
        out = 1
        for f in self.factors:
            out *= f.cardinality
        return out

    @property
    def contains_identity(self) -> bool:
        return self.contains(identity(self.n))

    def mean_chi_exact(self, p: PauliOp) -> Fraction:
        if p.n != self.n:
            raise ValueError("dimension mismatch")
        q = apply_gates(p, self._frame_inv_gates)
        out = Fraction(1)
        for f in self.factors:
            out *= f.mean_chi_local(q.restrict(f.register))
            if out == 0:
                return out
        return out

    def chi_batch(self, xs, zs, rows: int) -> np.ndarray:
        """mean_chi_exact of every column-batch row, in floating point."""
        if self.frame_gates:
            xs, zs = list(xs), list(zs)
            for g in reversed(self.frame_gates):  # the inverse frame, sign-free
                _apply_gate(xs, zs, 0, g)
        out = np.ones(rows)
        for f in self.factors:
            out *= f.chi_batch(xs, zs, rows)
        return out

    def contains(self, p: PauliOp) -> bool:
        if p.phase != 0:
            return False
        q = apply_gates(p, self._frame_inv_gates).unsigned()
        return all(f.contains_local(q.restrict(f.register)) for f in self.factors)

    def sample(self, rng: np.random.Generator) -> PauliOp:
        x = z = 0
        for f in self.factors:
            dx, dz = _place(f.register, f.sample_local(rng))
            x |= dx
            z |= dz
        return apply_gates(PauliOp(self.n, x, z), self.frame_gates).unsigned()

    def members(self):
        """Iterate all members; only sensible for small cardinalities."""
        from itertools import product as iproduct

        locals_per_factor = [list(f.members_local()) for f in self.factors]
        for choice in iproduct(*locals_per_factor):
            x = z = 0
            for f, local in zip(self.factors, choice):
                dx, dz = _place(f.register, local)
                x |= dx
                z |= dz
            yield apply_gates(PauliOp(self.n, x, z), self.frame_gates).unsigned()


def point_ensemble(p: PauliOp) -> PauliEnsemble:
    """The one-element ensemble {p} (p unsigned, covering all qubits)."""
    return PauliEnsemble(p.n, (PointFactor(tuple(range(p.n)), p),))


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PauliChannel:
    """Probabilistic Pauli channel: identity with the leftover probability,
    otherwise a uniform member of one of the atom ensembles."""

    n: int
    atoms: tuple[tuple[float, PauliEnsemble], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple((float(p), e) for p, e in self.atoms))
        total = 0.0
        for prob, ensemble in self.atoms:
            if not 0.0 < prob <= 1.0:
                raise ValueError(f"atom probability {prob} outside (0, 1]")
            if ensemble.n != self.n:
                raise ValueError("atom ensemble dimension mismatch")
            if ensemble.contains_identity:
                raise ValueError("atom ensembles must not contain the identity Pauli")
            total += prob
        if total > 1.0 + _PROB_TOL:
            raise ValueError(f"atom probabilities sum to {total} > 1")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass field hash, computed once: layers look channels up by it."""
        return hash((self.n, self.atoms))

    @property
    def p_err(self) -> float:
        return min(1.0, sum(p for p, _ in self.atoms))

    @property
    def identity_prob(self) -> float:
        return max(0.0, 1.0 - sum(p for p, _ in self.atoms))


def make_single_qubit_pauli_noise(n: int, target_qubit: int, px: float, py: float, pz: float) -> PauliChannel:
    """X/Y/Z noise on one qubit of an n-qubit register (zero rates omitted)."""
    if min(px, py, pz) < 0 or px + py + pz > 1 + _PROB_TOL:
        raise ValueError("rates must be nonnegative and sum to at most 1")
    if not 0 <= target_qubit < n:
        raise ValueError("target qubit out of range")
    from .paulis import single

    atoms = []
    for letter, rate in (("X", px), ("Y", py), ("Z", pz)):
        if rate > 0:
            atoms.append((rate, point_ensemble(single(n, target_qubit, letter))))
    return PauliChannel(n, tuple(atoms))


def make_white_noise(n: int, p_err: float) -> PauliChannel:
    """Uniform noise over all nonidentity n-qubit Paulis with total weight p_err."""
    if not 0 <= p_err <= 1:
        raise ValueError("p_err must lie in [0, 1]")
    if p_err == 0:
        return PauliChannel(n, ())
    ensemble = PauliEnsemble(n, (FullGroupMinusIdentityFactor(tuple(range(n))),))
    return PauliChannel(n, ((p_err, ensemble),))


def pauli_fidelity(ch: PauliChannel, p: PauliOp) -> float:
    """tr[N(P) P] / 2^n: the eigenvalue of the channel on the Pauli P."""
    if p.n != ch.n:
        raise ValueError("dimension mismatch")
    acc = 0.0
    for prob, ensemble in ch.atoms:
        acc += prob * float(ensemble.mean_chi_exact(p))
    return ch.identity_prob + acc


def fidelity_batch(ch: PauliChannel, xs, zs, rows: int) -> np.ndarray:
    """pauli_fidelity of every row of a column batch: ch.n x and z columns of ``rows`` bits.

    Evaluated as 1 − Σ p·(1 − χ) over the atoms, atoms that share an
    ensemble merged first.  Point atoms then contribute exactly 0 or 2·p, so
    bare Pauli noise comes out as 1 − 2·(sum of anticommuting rates).
    """
    if len(xs) != ch.n or len(zs) != ch.n:
        raise ValueError("column batch does not match the channel's qubit count")
    loss = np.zeros(rows)
    for prob, ensemble in _merged_atoms(ch):
        loss += prob * (1.0 - ensemble.chi_batch(xs, zs, rows))
    return 1.0 - loss


# ---------------------------------------------------------------------------
# disjointness handling for distance/unitarity closed forms
# ---------------------------------------------------------------------------


def _merged_atoms(ch: PauliChannel) -> list[tuple[float, PauliEnsemble]]:
    """The channel's atoms with the probabilities of equal ensembles added."""
    combined: dict[PauliEnsemble, float] = {}
    for prob, ensemble in ch.atoms:
        combined[ensemble] = combined.get(ensemble, 0.0) + prob
    return [(prob, ensemble) for ensemble, prob in combined.items()]


def _registers_aligned(a: PauliEnsemble, b: PauliEnsemble) -> bool:
    return [f.register for f in a.factors] == [f.register for f in b.factors]


def _factor_intersection_empty(fa: Factor, fb: Factor) -> bool:
    """Whether two same-register factors share no member (exact, closed form)."""
    if isinstance(fa, PointFactor):
        return not fb.contains_local(fa.pauli)
    if isinstance(fb, PointFactor):
        return not fa.contains_local(fb.pauli)
    pairs = {type(fa), type(fb)}
    if pairs == {DiagonalIZFactor, XYSetFactor}:
        return True
    if pairs == {FullGroupMinusIdentityFactor, WeightAtMostFactor}:
        wam = fa if isinstance(fa, WeightAtMostFactor) else fb
        return wam.cardinality == 1  # only the identity has weight ≤ 0
    # every other non-point combination shares at least one member
    return False


def _ensembles_disjoint(a: PauliEnsemble, b: PauliEnsemble) -> bool | None:
    """True/False when decidable in closed form or by small enumeration; None otherwise."""
    if a.frame_gates == b.frame_gates and _registers_aligned(a, b):
        return any(_factor_intersection_empty(fa, fb) for fa, fb in zip(a.factors, b.factors))
    small, big = (a, b) if a.cardinality <= b.cardinality else (b, a)
    if small.cardinality <= _ENUM_CAP:
        return not any(big.contains(m) for m in small.members())
    return None


def _disjoint_pieces(ch: PauliChannel) -> list[tuple[int, float]]:
    """(cardinality, probability) pieces with pairwise-disjoint supports.

    Atoms with the same ensemble merge by adding probabilities.  An atom
    proven disjoint from every other atom stays one closed-form piece; every
    other atom is expanded member by member into one mass map, which
    requires it to be enumerable.  One map serves all overlapping atoms:
    atoms that do not overlap each other were proven disjoint, so they add
    mass to different members.
    """
    atoms = _merged_atoms(ch)
    overlapping: set[int] = set()
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            if _ensembles_disjoint(atoms[i][1], atoms[j][1]) is not True:
                overlapping |= {i, j}
    pieces: list[tuple[int, float]] = []
    masses: dict[tuple[int, int], float] = {}
    for i, (prob, ensemble) in enumerate(atoms):
        if i not in overlapping:
            pieces.append((ensemble.cardinality, prob))
            continue
        if ensemble.cardinality > _ENUM_CAP:
            raise ValueError(
                "overlapping atoms are too large to merge exactly; "
                "restructure the channel into disjoint ensembles"
            )
        share = prob / ensemble.cardinality
        for m in ensemble.members():
            masses[(m.x, m.z)] = masses.get((m.x, m.z), 0.0) + share
    return pieces + [(1, mass) for mass in masses.values()]


def _whitenoise_gap(ch: PauliChannel, norm) -> float:
    """Σ over nonidentity Paulis P of norm(q(P) − 1/(4^n−1)), q the normalized error distribution."""
    if ch.p_err <= 0:
        raise ValueError("distance is undefined for a noiseless channel")
    uniform = 1.0 / (4**ch.n - 1)
    total = 0.0
    covered = 0
    for card, prob in _disjoint_pieces(ch):
        total += card * norm(prob / ch.p_err / card - uniform)
        covered += card
    return total + (4**ch.n - 1 - covered) * norm(uniform)


def distance_v(ch: PauliChannel) -> float:
    """2-norm distance of the normalized error distribution from white noise."""
    return math.sqrt(_whitenoise_gap(ch, lambda d: d**2))


def diamond_distance_normalized(ch: PauliChannel) -> float:
    """1-norm analogue of distance_v (diamond-norm distance scaled by p_err)."""
    return _whitenoise_gap(ch, abs)


def _goodness(n: int) -> float:
    """The white-noise factor 4^n/(4^n−1)."""
    return 4**n / (4**n - 1)


def unitarity(ch: PauliChannel) -> float:
    """Expected output purity parameter u of the Pauli channel."""
    g = _goodness(ch.n)
    p = sum(prob for prob, _ in ch.atoms)
    sum_sq = sum(prob**2 / card for card, prob in _disjoint_pieces(ch)) if ch.atoms else 0.0
    return 1 - 2 * g * p + g * (p**2 + sum_sq)


def avg_noise_strength(ch: PauliChannel) -> float:
    """The parameter s = 1 − p_err·4^n/(4^n−1) (uniform Pauli-fidelity mean)."""
    return 1 - _goodness(ch.n) * sum(prob for prob, _ in ch.atoms)


def sample_error(ch: PauliChannel, rng: np.random.Generator) -> PauliOp | None:
    """Draw one error: None for the identity branch, else an ensemble member."""
    r = float(rng.random())
    acc = 0.0
    for prob, ensemble in ch.atoms:
        acc += prob
        if r < acc:
            return ensemble.sample(rng)
    return None


def expand(ch: PauliChannel, max_qubits: int = 6) -> dict[PauliOp, float]:
    """Explicit Pauli→probability map; refuses beyond max_qubits."""
    if ch.n > max_qubits:
        raise ValueError(f"refusing to expand a {ch.n}-qubit channel (cap {max_qubits})")
    out: dict[PauliOp, float] = {}
    ident = identity(ch.n)
    if ch.identity_prob > 0:
        out[ident] = ch.identity_prob
    for prob, ensemble in ch.atoms:
        share = prob / ensemble.cardinality
        for m in ensemble.members():
            out[m] = out.get(m, 0.0) + share
    return out
