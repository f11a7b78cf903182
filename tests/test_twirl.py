"""Symmetric twirling: exact sampler averages, orbit checks, group recovery.

Verification strategy, since the full symmetric Clifford group is huge:

* The gate samplers have an exactly enumerable outcome distribution; their
  average action on an error is compared entry-wise (rational arithmetic)
  against the claimed closed-form ensembles.
* Averaging conjugation over any *group* makes the result uniform over each
  orbit (orbit–stabilizer), so exact twirled channels are verified by
  (a) breadth-first closure of the claimed ensemble under explicit symmetric
  gates — orbit at least covers the claim — and (b) a commutation-pattern
  invariant that no Pauli outside the claim can share — orbit at most the
  claim.
* For the three-qubit doubly-controlled case the symmetric group itself is
  small (512 elements: the diagonal-frame Cliffords) and is enumerated
  outright for a direct average-channel comparison.
"""

import hashlib
import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

import reference as ref
from helpers import gates_to_dense
from twirlkit.channels import (
    DiagonalIZFactor,
    FullGroupFactor,
    FullGroupMinusIdentityFactor,
    PauliChannel,
    PauliEnsemble,
    WeightAtMostFactor,
    XYSetFactor,
    distance_v,
    expand,
    point_ensemble,
)
from twirlkit.paulis import PauliOp, commutes, identity, parse_pauli, random_pauli, single
from twirlkit.tableau import apply_gates, conjugate, from_gates, gate, single_qubit_clifford_words
from twirlkit.twirl import (
    SymmetrySpec,
    _assemble_gadget,
    decode_gadgets,
    enumerate_sampler_distribution,
    gadget_width,
    pauli_group_span,
    pauli_subgroup_of_unitary,
    sample_full_twirl_gate,
    sample_ksparse_twirl_gate,
    twirl_channel,
    twirl_channel_ksparse,
    twirl_general_noise,
)

Z0_3 = parse_pauli("ZII")


def gadget_average(dist, p):
    """Exact mass map of conjugate(D, p) over an enumerated distribution."""
    masses = {}
    for w, gdg in dist:
        q = gdg.conjugate_pauli(p).unsigned()
        masses[q] = masses.get(q, Fraction(0)) + w
    return masses


def uniform_masses(ensemble):
    card = ensemble.cardinality
    return {m: Fraction(1, card) for m in ensemble.members()}


def orbit_under(gates, start, n):
    """BFS closure of a Pauli under conjugation by a gate set (signs dropped)."""
    seen = {start.unsigned()}
    frontier = [start.unsigned()]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gates:
                q = apply_gates(p, [g]).unsigned()
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# symmetry specs
# ---------------------------------------------------------------------------


def test_rz_spec_shape():
    spec = SymmetrySpec.rz_first_qubit(4)
    assert (spec.n1, spec.n2, spec.n3) == (0, 1, 3)
    assert spec.is_rz_type
    assert from_gates(4, spec.w_gates).is_identity()
    assert spec.registers == ((), (0,), (1, 2, 3))


def test_toffoli_spec_shape():
    spec = SymmetrySpec.toffoli(5)
    assert (spec.n1, spec.n2, spec.n3) == (0, 3, 2)
    assert not spec.is_rz_type
    # frame is a Hadamard on the third qubit
    assert conjugate(from_gates(5, spec.w_gates), single(5, 2, "X")) == single(5, 2, "Z")


def test_pauli_rotation_spec_frames_axis_to_z0():
    axis = parse_pauli("IXY")
    spec = SymmetrySpec.pauli_rotation(axis)
    assert spec.is_rz_type
    assert conjugate(from_gates(3, spec.w_gates), axis) == single(3, 0, "Z")


def test_spec_validation():
    with pytest.raises(ValueError):  # a frame gate on qubit 4 >= n = 4
        SymmetrySpec(0, 1, 3, (gate("H", 0), gate("CNOT", 1, 4)))
    with pytest.raises(ValueError):
        SymmetrySpec.toffoli(2)


# ---------------------------------------------------------------------------
# gate samplers
# ---------------------------------------------------------------------------


def test_full_sampler_fixes_rotation_generator():
    rng = np.random.default_rng(50)
    z0 = single(5, 0, "Z")
    for _ in range(2000):
        gdg = sample_full_twirl_gate(5, rng)
        assert gdg.conjugate_pauli(z0) == z0


def test_ksparse_sampler_fixes_rotation_generator_and_support_cap():
    rng = np.random.default_rng(51)
    z0 = single(6, 0, "Z")
    for k in (1, 2, 3):
        for _ in range(700):
            gdg = sample_ksparse_twirl_gate(6, k, rng)
            assert gdg.conjugate_pauli(z0) == z0
            assert len(gdg.support) <= k


def test_full_sampler_spread_size_binomial():
    rng = np.random.default_rng(52)
    n, draws = 4, 8000
    counts = [0, 0, 0, 0]
    for _ in range(draws):
        gdg = sample_full_twirl_gate(n, rng)
        counts[len(gdg.support - {0})] += 1
    for j in range(4):
        p = math.comb(3, j) * 0.75**j * 0.25 ** (3 - j)
        assert abs(counts[j] - p * draws) < 5 * math.sqrt(draws * p * (1 - p)) + 5


def test_ksparse_spread_probabilities_frozen():
    # five qubits, k = 2: weights 1 : 3*4 over spread sizes {0, 1}
    rng = np.random.default_rng(53)
    draws = 13000
    spread = 0
    for _ in range(draws):
        gdg = sample_ksparse_twirl_gate(5, 2, rng)
        spread += bool(gdg.support - {0})
    want = 12 / 13
    assert abs(spread / draws - want) < 4 * math.sqrt(want * (1 - want) / draws)


def test_support_bookkeeping():
    # no spread and no S on qubit 0 => empty support and no gates
    rng = np.random.default_rng(54)
    seen_empty = seen_s_only = False
    for _ in range(400):
        gdg = sample_ksparse_twirl_gate(3, 1, rng)
        if not gdg.gates:
            assert gdg.support == frozenset()
            seen_empty = True
        elif all(g.kind == "S" for g in gdg.gates):
            assert gdg.support == frozenset({0})
            seen_s_only = True
    assert seen_empty and seen_s_only


# For each case, 20 draws at seeds 0..19, one line per seed: the gates
# ("MULTICNOT0,1 H1 S0"), the sorted support and the generator's next random()
# as float.hex, joined by "|".  The value is the first 16 hex digits of the
# SHA-256 of those lines joined by newlines.  Every sampled CSV row reads
# these streams, so a change to them must show here and be declared.
FROZEN_SAMPLER_STREAMS = [
    ("full", 1, None, "253ae4ed4bbc8d28"),
    ("full", 2, None, "dff6406a11032f0d"),
    ("full", 9, None, "aa92796c221d5aaa"),
    ("full", 16, None, "7ffdde3121bafd76"),
    ("ksparse", 1, 1, "c475f707e2b63859"),
    ("ksparse", 2, 1, "b06aeebbf7761df9"),
    ("ksparse", 2, 2, "f73eddbbe60d2b5f"),
    ("ksparse", 9, 1, "fe50431ba38f8dd0"),
    ("ksparse", 9, 2, "e64db06b1565e020"),
    ("ksparse", 16, 1, "ff963d7709c68eca"),
    ("ksparse", 16, 2, "73349fa37996960b"),
]


@pytest.mark.parametrize("mode, n, k, digest", FROZEN_SAMPLER_STREAMS)
def test_sampler_streams_are_frozen(mode, n, k, digest):
    lines = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        gdg = sample_full_twirl_gate(n, rng) if mode == "full" else sample_ksparse_twirl_gate(n, k, rng)
        gates = " ".join(f"{g.kind}{','.join(map(str, g.qubits))}" for g in gdg.gates)
        lines.append(f"{gates}|{','.join(map(str, sorted(gdg.support)))}|{rng.random().hex()}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == digest


# ---------------------------------------------------------------------------
# the gadget decoder's distribution
# ---------------------------------------------------------------------------


def _intervals(points):
    return list(zip(points, points[1:]))


def decoder_cells(n, mode, k):
    """(row of uniforms, exact mass) for every cell on which the decoder is constant.

    Each spread, local and S coordinate is cut at the decoder's thresholds
    (3/4, i/24, 1/2, and the ksparse size CDF), and the cell's mass is the
    product of its interval lengths.  The ksparse keys act only through their
    order, and each of the (n−1)! orders has mass 1/(n−1)!.
    """
    m = n - 1
    axes = [_intervals([Fraction(i, 24) for i in range(25)])] * m + [_intervals([0, Fraction(1, 2), 1])]
    if mode == "full":
        axes = [_intervals([0, Fraction(3, 4), 1])] * m + axes
        heads = [((), Fraction(1))]
    else:
        weights = [3**j * math.comb(m, j) for j in range(k)]
        cdf = [Fraction(sum(weights[:j]), sum(weights)) for j in range(k + 1)]
        heads = [
            ((float((lo + hi) / 2), *((r + 0.5) / m for r in order)), (hi - lo) / math.factorial(m))
            for lo, hi in _intervals(cdf)
            for order in permutations(range(m))
        ]
    cells = []
    for head, mass in heads:
        for box in product(*axes):
            row = head + tuple(float((lo + hi) / 2) for lo, hi in box)
            cells.append((row, mass * math.prod(hi - lo for lo, hi in box)))
    return cells


def decoded_gadgets(n, mode, k, u):
    spread, local, s_bit = decode_gadgets(n, mode, k, u)
    for row_spread, row_local, s in zip(spread, local, s_bit):
        targets = tuple(int(t) + 1 for t in np.flatnonzero(row_spread))
        yield targets, tuple(int(row_local[t - 1]) for t in targets), bool(s)


@pytest.mark.parametrize(
    "n, mode, k",
    [(1, "full", None), (2, "full", None), (3, "full", None)]
    + [(n, "ksparse", k) for n in (1, 2, 3) for k in range(1, n + 1)],
)
def test_decoder_masses_equal_the_enumeration(n, mode, k):
    cells = decoder_cells(n, mode, k)
    u = np.array([row for row, _ in cells]).reshape(len(cells), gadget_width(n, mode))
    got = {}
    for (_, mass), draw in zip(cells, decoded_gadgets(n, mode, k, u)):
        gadget = _assemble_gadget(n, *draw)
        got[gadget] = got.get(gadget, 0) + mass
    want = {}
    for weight, gadget in enumerate_sampler_distribution(n, mode, k):
        want[gadget] = want.get(gadget, 0) + weight
    assert got == want


def test_decoder_rejects_modes_without_gadgets():
    for mode in ("none", "analytic_full", "analytic_ksparse"):
        with pytest.raises(ValueError):
            gadget_width(3, mode)
        with pytest.raises(ValueError):
            decode_gadgets(3, mode, 2, np.zeros((1, 6)))


def _gadget_class(gadget):
    """Spread set, S bit and the local words on the first two spread qubits."""
    fan = [g for g in gadget.gates if g.kind == "MULTICNOT"]
    targets = fan[0].qubits[1:] if fan else ()
    words = tuple(tuple(g.kind for g in gadget.gates if g.qubits == (t,)) for t in targets[:2])
    return targets, gate("S", 0) in gadget.gates, words


@pytest.mark.parametrize("mode, k", [("full", None), ("ksparse", 2)])
def test_decoder_frequencies_match_the_enumeration_at_four_qubits(mode, k):
    n, draws = 4, 120_000
    want = {}
    for weight, gadget in enumerate_sampler_distribution(n, mode, k):
        key = _gadget_class(gadget)
        want[key] = want.get(key, 0) + weight
    words = single_qubit_clifford_words()
    counts = dict.fromkeys(want, 0)
    u = np.random.default_rng(57).random((draws, gadget_width(n, mode)))
    for targets, local, s in decoded_gadgets(n, mode, k, u):
        counts[targets, s, tuple(words[i] for i in local[:2])] += 1
    assert min(want.values()) * draws > 10  # every class is well populated
    chi2 = sum((counts[key] - float(p) * draws) ** 2 / (float(p) * draws) for key, p in want.items())
    dof = len(want) - 1
    assert chi2 < dof + 5 * math.sqrt(2 * dof)


# ---------------------------------------------------------------------------
# exact sampler distributions
# ---------------------------------------------------------------------------


def test_enumeration_count_two_qubits():
    dist = enumerate_sampler_distribution(2, "full")
    assert len(dist) == 50  # (no spread: 2) + (spread {1}: 24 * 2)
    z0 = single(2, 0, "Z")
    for _, gdg in dist:
        assert gdg.conjugate_pauli(z0) == z0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_full_enumeration_is_ksparse_at_k_equal_n(n):
    assert enumerate_sampler_distribution(n, "full") == enumerate_sampler_distribution(n, "ksparse", n)


def test_enumeration_refuses_oversize():
    with pytest.raises(ValueError):
        enumerate_sampler_distribution(6, "full")


def test_full_sampler_average_equals_exact_twirl():
    """Average of D X D† over the exact sampler distribution, three qubits."""
    dist = enumerate_sampler_distribution(3, "full")
    got = gadget_average(dist, single(3, 0, "X"))
    want = uniform_masses(PauliEnsemble(3, (XYSetFactor((0,)), FullGroupFactor((1, 2)))))
    assert got == want
    # Y errors scramble to the same ensemble
    assert gadget_average(dist, single(3, 0, "Y")) == want


def test_full_sampler_average_fixes_z():
    dist = enumerate_sampler_distribution(3, "full")
    assert gadget_average(dist, Z0_3) == {Z0_3: Fraction(1)}


def test_ksparse_sampler_average_equals_exact_twirl():
    dist = enumerate_sampler_distribution(4, "ksparse", k=2)
    assert len(dist) == (1 + 3 * 24) * 2
    got = gadget_average(dist, single(4, 0, "X"))
    want = uniform_masses(
        PauliEnsemble(4, (XYSetFactor((0,)), WeightAtMostFactor((1, 2, 3), 1)))
    )
    assert got == want
    assert gadget_average(dist, single(4, 0, "Z")) == {single(4, 0, "Z"): Fraction(1)}


def test_sampler_statistics_match_enumeration():
    """Monte-Carlo frequencies of gadget tableaus agree with exact weights."""
    rng = np.random.default_rng(56)
    dist = enumerate_sampler_distribution(2, "full")
    weights = {}
    for w, gdg in dist:
        tab = from_gates(2, gdg.gates)
        weights[tab] = weights.get(tab, Fraction(0)) + w
    draws = 20000
    counts = {}
    for _ in range(draws):
        tab = from_gates(2, sample_full_twirl_gate(2, rng).gates)
        counts[tab] = counts.get(tab, 0) + 1
    assert set(counts) <= set(weights)
    chi2 = sum(
        (counts.get(tab, 0) - float(w) * draws) ** 2 / (float(w) * draws)
        for tab, w in weights.items()
    )
    assert chi2 < 48 + 5 * math.sqrt(2 * 47)  # 48 distinct tableaus observed


# ---------------------------------------------------------------------------
# exact twirled channels (rotation on qubit 0)
# ---------------------------------------------------------------------------


def test_twirl_channel_x_error_structure():
    ch = PauliChannel(3, ((0.25, point_ensemble(single(3, 0, "X"))),))
    out = twirl_channel(ch, SymmetrySpec.rz_first_qubit(3))
    assert out.p_err == pytest.approx(0.25)
    (prob, e), = out.atoms
    assert prob == pytest.approx(0.25)
    assert set(e.members()) == set(
        PauliEnsemble(3, (XYSetFactor((0,)), FullGroupFactor((1, 2)))).members()
    )


def test_twirl_channel_z_error_invariant():
    ch = PauliChannel(3, ((0.1, point_ensemble(Z0_3)),))
    out = twirl_channel(ch, SymmetrySpec.rz_first_qubit(3))
    assert out.atoms == ch.atoms


def test_twirl_preserves_error_budget():
    rng = np.random.default_rng(57)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        atoms = tuple(
            (float(rng.uniform(0.01, 0.2)), point_ensemble(random_pauli(n, exclude_identity=True, rng=rng)))
            for _ in range(int(rng.integers(1, 4)))
        )
        ch = PauliChannel(n, atoms)
        out = twirl_channel(ch, SymmetrySpec.rz_first_qubit(n))
        assert out.p_err == pytest.approx(ch.p_err)
        assert out.identity_prob == pytest.approx(ch.identity_prob)


def test_twirl_rejects_structured_atoms():
    ch = PauliChannel(2, ((0.1, PauliEnsemble(2, (XYSetFactor((0,)), FullGroupFactor((1,))))),))
    with pytest.raises(ValueError):
        twirl_channel(ch, SymmetrySpec.rz_first_qubit(2))


def rz_symmetric_gates(n):
    """Generators (as gates) of Cliffords fixing Z on qubit 0 exactly."""
    gates = [gate("S", 0)]
    for q in range(1, n):
        gates += [gate("CZ", 0, q), gate("CNOT", 0, q), gate("H", q), gate("S", q)]
    for q in range(1, n):
        for r in range(1, n):
            if q != r:
                gates.append(gate("CNOT", q, r))
    return gates


def test_case_two_orbit_is_diag_times_nonidentity():
    """A Z⊗X error spreads to {I,Z}⊗(anything nonidentity): orbit closure
    matches, and the commutation invariant plus the fixed-point set show the
    orbit cannot be larger."""
    start = parse_pauli("ZXI")
    claimed = PauliEnsemble(
        3, (DiagonalIZFactor((0,)), FullGroupMinusIdentityFactor((1, 2)))
    )
    claimed_set = set(claimed.members())
    orbit = orbit_under(rz_symmetric_gates(3), start, 3)
    assert orbit == claimed_set
    # invariant side: members commute with Z0 and are not in {I, Z0}
    z0 = single(3, 0, "Z")
    for m in claimed_set:
        assert commutes(m, z0)
        assert m not in (identity(3), z0)


def test_case_one_orbit_matches_xy_ensemble():
    start = single(3, 0, "Y")
    claimed = set(PauliEnsemble(3, (XYSetFactor((0,)), FullGroupFactor((1, 2)))).members())
    assert orbit_under(rz_symmetric_gates(3), start, 3) == claimed


def test_twirl_case_two_channel_structure():
    ch = PauliChannel(3, ((0.2, point_ensemble(parse_pauli("ZXI"))),))
    out = twirl_channel(ch, SymmetrySpec.rz_first_qubit(3))
    (prob, e), = out.atoms
    assert e.cardinality == 2 * 15
    assert set(e.members()) == set(
        PauliEnsemble(3, (DiagonalIZFactor((0,)), FullGroupMinusIdentityFactor((1, 2)))).members()
    )


def test_twirl_scrambling_reduces_distance():
    for n in (2, 3, 4):
        ch = PauliChannel(
            n,
            (
                (0.05, point_ensemble(single(n, 0, "X"))),
                (0.05, point_ensemble(single(n, 0, "Y"))),
                (0.05, point_ensemble(single(n, 0, "Z"))),
            ),
        )
        out = twirl_channel(ch, SymmetrySpec.rz_first_qubit(n))
        assert distance_v(out) <= distance_v(ch) + 1e-12


def test_ksparse_monotone_in_k():
    n = 6
    ch = PauliChannel(n, ((0.1, point_ensemble(single(n, 0, "X"))),))
    dists = [distance_v(twirl_channel_ksparse(ch, k)) for k in range(1, n + 1)]
    for a, b in zip(dists, dists[1:]):
        assert b <= a + 1e-12


def test_ksparse_k_equals_n_matches_full():
    n = 4
    ch = PauliChannel(n, ((0.3, point_ensemble(single(n, 0, "X"))),))
    full = expand(twirl_channel(ch, SymmetrySpec.rz_first_qubit(n)))
    sparse = expand(twirl_channel_ksparse(ch, n))
    assert set(full) == set(sparse)
    for p, v in full.items():
        assert sparse[p] == pytest.approx(v, abs=1e-14)


def test_ksparse_k1_is_local():
    ch = PauliChannel(3, ((0.2, point_ensemble(single(3, 0, "X"))),))
    out = twirl_channel_ksparse(ch, 1)
    (_, e), = out.atoms
    assert set(e.members()) == {single(3, 0, "X"), single(3, 0, "Y")}


def test_ksparse_cardinality_formula():
    n, k = 6, 3
    ch = PauliChannel(n, ((0.1, point_ensemble(single(n, 0, "Y"))),))
    (_, e), = twirl_channel_ksparse(ch, k).atoms
    want = 2 * sum(3**j * math.comb(n - 1, j) for j in range(k))
    assert e.cardinality == want


def test_ksparse_rejects_offqubit_errors():
    ch = PauliChannel(3, ((0.1, point_ensemble(parse_pauli("IXI"))),))
    with pytest.raises(ValueError):
        twirl_channel_ksparse(ch, 2)


# ---------------------------------------------------------------------------
# doubly-controlled (three-qubit) symmetry: exact 512-element group average
# ---------------------------------------------------------------------------


def toffoli_symmetric_group():
    """All Cliffords commuting with the doubly-controlled-NOT's Pauli support.

    In the Hadamard frame on qubit 2 the group must fix Z0, Z1, Z2 exactly;
    such a Clifford sends X_i to ±X_i·(Z-string) with a symmetric coupling
    matrix, so it is generated by S, CZ and Z gates: 2^6 couplings × 2^3
    signs = 512 elements, every one enumerated here as a gate word.
    """
    words = []
    for bits in range(2**9):
        gates = [gate("H", 2)]
        for i, q in enumerate((0, 1, 2)):
            if bits >> i & 1:
                gates.append(gate("S", q))
        for i, (a, b) in enumerate(((0, 1), (0, 2), (1, 2))):
            if bits >> (3 + i) & 1:
                gates.append(gate("CZ", a, b))
        for i, q in enumerate((0, 1, 2)):
            if bits >> (6 + i) & 1:
                gates.append(gate("Z", q))
        gates.append(gate("H", 2))
        words.append(tuple(gates))
    return words


def test_toffoli_group_is_512_and_fixes_generators():
    words = toffoli_symmetric_group()
    gens = [parse_pauli("ZII"), parse_pauli("IZI"), parse_pauli("IIX")]
    tabs = set()
    for w in words:
        for g in gens:
            assert apply_gates(g, list(w)) == g
        tabs.add(from_gates(3, list(w)))
    assert len(tabs) == 512


def test_toffoli_twirl_matches_group_average():
    """twirl_channel equals the exact average over the full 512-element group."""
    words = toffoli_symmetric_group()
    spec = SymmetrySpec.toffoli(3)
    for label in ("XII", "YZI", "IZI", "ZZX"):
        start = parse_pauli(label)
        masses = {}
        for w in words:
            q = apply_gates(start, list(w)).unsigned()
            masses[q] = masses.get(q, Fraction(0)) + Fraction(1, 512)
        ch = PauliChannel(3, ((1.0, point_ensemble(start)),))
        out = twirl_channel(ch, spec)
        (_, e), = out.atoms
        want = uniform_masses(e)
        assert masses == want


def test_toffoli_case_two_orbit_at_four_qubits():
    """Diagonal middle register with a live tail register: orbit closure in
    the Hadamard frame equals {I,Z}^3 ⊗ (nonidentity), checked at n=4."""
    frame_gates = [gate("S", 0), gate("S", 1), gate("S", 2), gate("Z", 0),
                   gate("CZ", 0, 1), gate("CZ", 0, 2), gate("CZ", 1, 2),
                   gate("H", 3), gate("S", 3),
                   gate("CZ", 0, 3), gate("CZ", 1, 3), gate("CZ", 2, 3),
                   gate("CNOT", 0, 3), gate("CNOT", 1, 3)]
    z_gens = [parse_pauli("ZIII"), parse_pauli("IZII"), parse_pauli("IIZI")]
    for g in frame_gates:
        for zg in z_gens:
            assert apply_gates(zg, [g]) == zg
    start = parse_pauli("IZIX")
    claimed = set(
        PauliEnsemble(4, (DiagonalIZFactor((0, 1, 2)), FullGroupMinusIdentityFactor((3,)))).members()
    )
    assert orbit_under(frame_gates, start, 4) == claimed

    spec = SymmetrySpec.toffoli(4)
    w = from_gates(4, spec.w_gates)
    ch = PauliChannel(4, ((0.5, point_ensemble(conjugate(w, start).unsigned())),))
    (_, e), = twirl_channel(ch, spec).atoms
    assert {conjugate(w, m).unsigned() for m in e.members()} == claimed


def test_pauli_rotation_twirl_consistent_with_frame_conjugation():
    """Twirling about an arbitrary axis == frame-conjugated qubit-0 twirl."""
    rng = np.random.default_rng(58)
    for _ in range(6):
        n = 3
        axis = random_pauli(n, exclude_identity=True, rng=rng)
        spec = SymmetrySpec.pauli_rotation(axis)
        err = random_pauli(n, exclude_identity=True, rng=rng)
        ch = PauliChannel(n, ((0.4, point_ensemble(err)),))
        out = expand(twirl_channel(ch, spec))

        err_f = conjugate(from_gates(n, spec.w_gates), err).unsigned()
        ch_f = PauliChannel(n, ((0.4, point_ensemble(err_f)),))
        out_f = expand(twirl_channel(ch_f, SymmetrySpec.rz_first_qubit(n)))
        mapped = {}
        w_inv_gates = list(spec._frame_inv_gates)
        for p, v in out_f.items():
            mapped[apply_gates(p, w_inv_gates).unsigned()] = v
        assert set(out) == set(mapped)
        for p, v in out.items():
            assert v == pytest.approx(mapped[p], abs=1e-14)


# ---------------------------------------------------------------------------
# coherent pass-through and group recovery
# ---------------------------------------------------------------------------


def test_general_noise_passthrough():
    ch = PauliChannel(2, ((0.2, point_ensemble(parse_pauli("XI"))),))
    twirled, angle = twirl_general_noise(ch, 0.01, SymmetrySpec.rz_first_qubit(2))
    assert angle == 0.01
    assert twirled.p_err == pytest.approx(0.2)
    empty = PauliChannel(2, ())
    out, angle = twirl_general_noise(empty, 0.5, SymmetrySpec.rz_first_qubit(2))
    assert out.atoms == () and angle == 0.5
    with pytest.raises(ValueError):
        twirl_general_noise(ch, 0.1, SymmetrySpec.toffoli(3))


def rz_dense(theta):
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


def test_subgroup_of_rz():
    gens = pauli_subgroup_of_unitary(rz_dense(0.3))
    assert gens == [PauliOp(1, 0, 1)]


def test_subgroup_of_t_gate():
    t = np.diag([1.0, np.exp(1j * np.pi / 4)])
    assert pauli_subgroup_of_unitary(t) == [PauliOp(1, 0, 1)]


def test_subgroup_of_toffoli():
    u = np.eye(8, dtype=complex)
    u[[6, 7]] = u[[7, 6]]
    gens = pauli_subgroup_of_unitary(u)
    got = pauli_group_span(gens)
    want = pauli_group_span([parse_pauli("ZII"), parse_pauli("IZI"), parse_pauli("IIX")])
    assert got == want
    assert len(got) == 8


def test_subgroup_of_cz():
    u = np.diag([1.0, 1, 1, -1]).astype(complex)
    span = pauli_group_span(pauli_subgroup_of_unitary(u))
    assert span == {identity(2), parse_pauli("ZI"), parse_pauli("IZ"), parse_pauli("ZZ")}


def test_subgroup_rejects_nonunitary():
    with pytest.raises(ValueError):
        pauli_subgroup_of_unitary(np.ones((2, 2), dtype=complex))


def test_subgroup_on_embedded_rotation():
    u = gates_to_dense([], 2) @ ref.embed(rz_dense(0.7), [1], 2)
    assert pauli_subgroup_of_unitary(u) == [parse_pauli("IZ")]
