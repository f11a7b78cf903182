"""Structured Pauli channels: closed forms vs enumeration, frozen examples."""

import math

import numpy as np
import pytest

from twirlkit.channels import (
    DiagonalIZFactor,
    FullGroupFactor,
    FullGroupMinusIdentityFactor,
    PauliChannel,
    PauliEnsemble,
    PointFactor,
    WeightAtMostFactor,
    XYSetFactor,
    _disjoint_pieces,
    _merged_atoms,
    avg_noise_strength,
    diamond_distance_normalized,
    distance_v,
    expand,
    fidelity_batch,
    make_single_qubit_pauli_noise,
    make_white_noise,
    pauli_fidelity,
    point_ensemble,
    sample_error,
    unitarity,
)
from twirlkit.paulis import PauliOp, _columns, commutes, identity, parse_pauli, random_pauli, single
from twirlkit.tableau import conjugate, decompose_gates, gate, random_clifford
from twirlkit.twirl import SymmetrySpec, twirl_channel, twirl_channel_ksparse


def full_register(n):
    return tuple(range(n))


def brute_fidelity(ch, p):
    return sum(prob * (1 if commutes(e, p) else -1) for e, prob in expand(ch).items())


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def test_single_qubit_noise_construction():
    ch = make_single_qubit_pauli_noise(2, 0, 0.1, 0.1, 0.1)
    assert ch.n == 2
    assert len(ch.atoms) == 3
    assert ch.p_err == pytest.approx(0.3)
    assert ch.identity_prob == pytest.approx(0.7)


def test_single_qubit_noise_omits_zero_rates():
    ch = make_single_qubit_pauli_noise(4, 0, 0.05, 0.05, 0.0)
    assert len(ch.atoms) == 2
    assert ch.p_err == pytest.approx(0.1)


def test_noiseless_channel():
    ch = make_single_qubit_pauli_noise(1, 0, 0, 0, 0)
    assert ch.atoms == ()
    assert ch.identity_prob == 1.0


def test_single_qubit_noise_validation():
    with pytest.raises(ValueError):
        make_single_qubit_pauli_noise(2, 0, 0.6, 0.6, 0.0)
    with pytest.raises(ValueError):
        make_single_qubit_pauli_noise(2, 3, 0.1, 0, 0)
    with pytest.raises(ValueError):
        make_single_qubit_pauli_noise(2, 0, -0.1, 0.2, 0)


def test_white_noise_expansion_frozen():
    got = expand(make_white_noise(1, 0.3))
    want = {
        identity(1): 0.7,
        parse_pauli("X"): 0.1,
        parse_pauli("Y"): 0.1,
        parse_pauli("Z"): 0.1,
    }
    assert set(got) == set(want)
    for k, v in want.items():
        assert got[k] == pytest.approx(v)


def test_white_noise_zero_rate_is_identity_channel():
    ch = make_white_noise(2, 0.0)
    assert ch.atoms == ()


def test_channel_rejects_identity_bearing_ensembles():
    full = PauliEnsemble(1, (FullGroupFactor((0,)),))
    with pytest.raises(ValueError):
        PauliChannel(1, ((0.5, full),))


def test_channel_rejects_bad_probabilities():
    e = point_ensemble(parse_pauli("X"))
    with pytest.raises(ValueError):
        PauliChannel(1, ((1.3, e),))
    with pytest.raises(ValueError):
        PauliChannel(1, ((0.6, e), (0.7, e)))


def test_ensemble_register_partition_enforced():
    with pytest.raises(ValueError):
        PauliEnsemble(3, (XYSetFactor((0,)),))  # qubits 1, 2 uncovered
    with pytest.raises(ValueError):
        PauliEnsemble(2, (XYSetFactor((0,)), XYSetFactor((0,))))
    with pytest.raises(ValueError):
        XYSetFactor((0, 1))
    with pytest.raises(ValueError):
        PointFactor((0,), parse_pauli("-X"))
    with pytest.raises(ValueError):  # a frame gate on qubit 2 >= n = 2
        PauliEnsemble(2, (XYSetFactor((0,)), XYSetFactor((1,))), (gate("CNOT", 0, 2),))


def test_no_frame_has_one_spelling():
    factors = (XYSetFactor((0,)), FullGroupFactor((1,)))
    default, empty, none = (PauliEnsemble(2, factors), PauliEnsemble(2, factors, ()), PauliEnsemble(2, factors, None))
    assert default.frame_gates == empty.frame_gates == none.frame_gates == ()
    assert default == empty == none and hash(default) == hash(empty) == hash(none)
    ch = PauliChannel(2, ((0.1, default), (0.2, empty), (0.05, none)))
    assert _merged_atoms(ch) == [(pytest.approx(0.35), default)]
    assert _disjoint_pieces(ch) == [(8, pytest.approx(0.35))]


# ---------------------------------------------------------------------------
# mean commutation sign
# ---------------------------------------------------------------------------


def test_mean_chi_point_frozen():
    e = point_ensemble(parse_pauli("ZI"))
    assert float(e.mean_chi_exact(parse_pauli("XI"))) == -1.0
    assert float(e.mean_chi_exact(parse_pauli("ZZ"))) == 1.0


def test_mean_chi_full_group_balanced():
    e = PauliEnsemble(2, (FullGroupFactor((0,)), PointFactor((1,), identity(1))))
    assert float(e.mean_chi_exact(parse_pauli("ZI"))) == 0.0
    assert float(e.mean_chi_exact(parse_pauli("IX"))) == 1.0


def test_mean_chi_weight_at_most_vs_enumeration():
    e = PauliEnsemble(3, (WeightAtMostFactor((0, 1, 2), 1),))
    members = list(e.members())
    assert len(members) == 10  # 1 + 3*3
    q = parse_pauli("XZI")  # weight 2 on the register
    brute = sum(1 if commutes(m, q) else -1 for m in members) / len(members)
    assert float(e.mean_chi_exact(q)) == pytest.approx(brute, abs=1e-15)


def test_mean_chi_factorizes_and_matches_enumeration():
    rng = np.random.default_rng(31)
    factories = [
        lambda reg: PointFactor(reg, random_pauli(len(reg), rng=rng)),
        lambda reg: FullGroupFactor(reg),
        lambda reg: FullGroupMinusIdentityFactor(reg),
        lambda reg: DiagonalIZFactor(reg),
        lambda reg: WeightAtMostFactor(reg, int(rng.integers(len(reg) + 1))),
    ]
    for _ in range(25):
        n = 4
        cut = int(rng.integers(1, n))
        reg_a, reg_b = tuple(range(cut)), tuple(range(cut, n))
        fa = factories[int(rng.integers(len(factories)))](reg_a)
        fb = factories[int(rng.integers(len(factories)))](reg_b)
        frame = None
        if rng.random() < 0.5:
            frame = tuple(decompose_gates(random_clifford(n, rng)))
        e = PauliEnsemble(n, (fa, fb), frame)
        members = list(e.members())
        assert len(members) == e.cardinality
        for _ in range(6):
            q = random_pauli(n, rng=rng)
            brute = sum(1 if commutes(m, q) else -1 for m in members) / len(members)
            assert float(e.mean_chi_exact(q)) == pytest.approx(brute, abs=1e-12)


def test_frame_members_are_conjugated():
    rng = np.random.default_rng(41)
    tab = random_clifford(2, rng)
    gates = tuple(decompose_gates(tab))
    bare = PauliEnsemble(2, (XYSetFactor((0,)), DiagonalIZFactor((1,))))
    framed = PauliEnsemble(2, bare.factors, gates)
    want = {conjugate(tab, m).unsigned() for m in bare.members()}
    assert set(framed.members()) == want
    for m in want:
        assert framed.contains(m)


# ---------------------------------------------------------------------------
# fidelities
# ---------------------------------------------------------------------------


def test_pauli_fidelity_depolarizing_frozen():
    ch = make_single_qubit_pauli_noise(1, 0, 0.1, 0.1, 0.1)
    assert pauli_fidelity(ch, parse_pauli("Z")) == pytest.approx(0.6)
    assert pauli_fidelity(ch, parse_pauli("X")) == pytest.approx(0.6)
    assert pauli_fidelity(ch, identity(1)) == pytest.approx(1.0)


def test_pauli_fidelity_white_noise_closed_form():
    for n in (1, 2, 3):
        ch = make_white_noise(n, 0.25)
        want = 1 - 0.25 * 4**n / (4**n - 1)
        for _ in range(5):
            p = random_pauli(n, exclude_identity=True, rng=np.random.default_rng(n))
            assert pauli_fidelity(ch, p) == pytest.approx(want, abs=1e-12)


def test_pauli_fidelity_matches_expansion():
    rng = np.random.default_rng(55)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        ch = _random_channel(n, rng)
        for _ in range(8):
            p = random_pauli(n, rng=rng)
            assert pauli_fidelity(ch, p) == pytest.approx(brute_fidelity(ch, p), abs=1e-12)


def _random_channel(n, rng):
    atoms = []
    budget = 0.8
    for _ in range(int(rng.integers(1, 4))):
        prob = float(rng.uniform(0.01, budget / 3))
        kind = int(rng.integers(4))
        if kind == 0:
            e = point_ensemble(random_pauli(n, exclude_identity=True, rng=rng))
        elif kind == 1:
            e = PauliEnsemble(n, (FullGroupMinusIdentityFactor(full_register(n)),))
        elif kind == 2 and n >= 2:
            e = PauliEnsemble(
                n, (XYSetFactor((0,)), FullGroupFactor(tuple(range(1, n)))),
                tuple(decompose_gates(random_clifford(n, rng))) if rng.random() < 0.5 else None,
            )
        else:
            e = PauliEnsemble(
                n, (XYSetFactor((0,)),) + ((WeightAtMostFactor(tuple(range(1, n)), 1),) if n > 1 else ()),
            )
        atoms.append((prob, e))
    return PauliChannel(n, tuple(atoms))


# ---------------------------------------------------------------------------
# packed-batch fidelities
# ---------------------------------------------------------------------------


def _point_noise(n, rng):
    """Point atoms of every twirl branch: random strings, Z on qubit 0 alone
    (left invariant) and with a partner on the last qubit (diagonal orbit)."""
    atoms = [(0.01 * (i + 1), point_ensemble(random_pauli(n, exclude_identity=True, rng=rng))) for i in range(4)]
    atoms.append((0.02, point_ensemble(single(n, 0, "Z"))))
    z0 = single(n, 0, "Z")
    atoms.append((0.015, point_ensemble(PauliOp(n, 1 << (n - 1), z0.z))))
    return PauliChannel(n, tuple(atoms))


def _batch_channels(n):
    rng = np.random.default_rng(n)
    rest = tuple(range(1, n))
    axis = PauliOp(n, (1 << 1) | (1 << (n - 1)), (1 << 1) | (1 << (n - 2)))  # Y, Z, X
    xy_rest = PauliEnsemble(n, (XYSetFactor((0,)), FullGroupFactor(rest)))
    diagonal = PauliEnsemble(n, (DiagonalIZFactor((0, 1)), FullGroupMinusIdentityFactor(tuple(range(2, n)))))
    point_and_capped = PauliEnsemble(n, (PointFactor((0, 1), parse_pauli("XY")), WeightAtMostFactor(tuple(range(2, n)), 2)))
    return {
        "point": make_single_qubit_pauli_noise(n, n - 1, 0.01, 0.02, 0.03),
        "point_strings": _point_noise(n, rng),
        "white": make_white_noise(n, 0.07),
        "full_group": PauliChannel(n, ((0.04, xy_rest),)),
        "diagonal": PauliChannel(n, ((0.03, diagonal),)),
        "weight_at_most": twirl_channel_ksparse(make_single_qubit_pauli_noise(n, 0, 0.01, 0.02, 0.005), 3),
        "point_and_capped": PauliChannel(n, ((0.02, point_and_capped),)),
        "toffoli": twirl_channel(_point_noise(n, rng), SymmetrySpec.toffoli(n)),
        "pauli_rotation": twirl_channel(_point_noise(n, rng), SymmetrySpec.pauli_rotation(axis)),
    }


def _batch_probes(n, rng):
    """Random strings, the identity, and low-weight strings for weight tables,
    half of them on the qubits that frames touch and around the word edge,
    and every string on the support of the rotation axis in _batch_channels."""
    axis_support = (1, n - 2, n - 1)
    probes = [random_pauli(n, rng=rng) for _ in range(30)]
    for letters in range(64):
        x = sum((letters >> (2 * i) & 1) << q for i, q in enumerate(axis_support))
        z = sum((letters >> (2 * i + 1) & 1) << q for i, q in enumerate(axis_support))
        probes.append(PauliOp(n, x, z))
    edges = sorted({0, 1, 2, 63, 64, n - 3, n - 2, n - 1} & set(range(n)))
    for w in range(1, 5):
        for i in range(12):
            support = rng.choice(edges if i % 2 else n, size=w, replace=False)
            letters = rng.integers(1, 4, size=w)
            x = sum(int(b & 1) << int(q) for q, b in zip(support, letters))
            z = sum(int(b >> 1) << int(q) for q, b in zip(support, letters))
            probes.append(PauliOp(n, x, z))
    return probes


@pytest.mark.parametrize("n", [4, 70])
@pytest.mark.parametrize("kind", list(_batch_channels(4)))
def test_fidelity_batch_matches_pauli_fidelity(kind, n):
    ch = _batch_channels(n)[kind]
    probes = _batch_probes(n, np.random.default_rng(7 * n))
    got = fidelity_batch(ch, *_columns(probes, n), len(probes))
    want = np.array([pauli_fidelity(ch, p) for p in probes])
    assert np.abs(got - want).max() <= 1e-15


def test_fidelity_batch_bare_noise_is_exact():
    # point atoms contribute exactly 0 or 2·p: no rounding beyond the rates' sum
    px, py, pz = 0.013, 0.027, 0.0041
    ch = make_single_qubit_pauli_noise(1, 0, px, py, pz)
    got = fidelity_batch(ch, *_columns([parse_pauli(s) for s in "IXZY"], 1), 4)
    assert list(got) == [1.0, 1.0 - 2 * (py + pz), 1.0 - 2 * (px + py), 1.0 - 2 * (px + pz)]


def test_fidelity_batch_rejects_mismatched_rows():
    ch = make_white_noise(70, 0.1)
    xs, zs = _columns([identity(3)], 3)
    with pytest.raises(ValueError):
        fidelity_batch(ch, xs, zs, 1)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_distance_white_noise_is_zero():
    for n in (1, 3, 6, 30):
        ch = make_white_noise(n, 0.37)
        assert distance_v(ch) == 0.0
        assert diamond_distance_normalized(ch) == pytest.approx(0.0, abs=1e-12)


def test_distance_v_depolarizing_leading_order():
    ch = make_single_qubit_pauli_noise(8, 0, 0.1, 0.1, 0.1)
    assert distance_v(ch) == pytest.approx(1 / math.sqrt(3), abs=1e-4)


def test_diamond_distance_point_frozen():
    ch = make_single_qubit_pauli_noise(1, 0, 0.0, 0.0, 0.2)
    assert diamond_distance_normalized(ch) == pytest.approx(4 / 3, abs=1e-12)


def test_distances_match_brute_force():
    rng = np.random.default_rng(77)
    for _ in range(12):
        n = int(rng.integers(1, 4))
        ch = _random_channel(n, rng)
        dist = expand(ch)
        dist.pop(identity(n), None)
        uniform = 1 / (4**n - 1)
        v2 = sum((p / ch.p_err - uniform) ** 2 for p in dist.values())
        v2 += (4**n - 1 - len(dist)) * uniform**2
        d1 = sum(abs(p / ch.p_err - uniform) for p in dist.values())
        d1 += (4**n - 1 - len(dist)) * uniform
        assert distance_v(ch) == pytest.approx(math.sqrt(v2), abs=1e-12)
        assert diamond_distance_normalized(ch) == pytest.approx(d1, abs=1e-12)


def _brute_distances(ch):
    """distance_v, diamond_distance_normalized and unitarity from the expanded channel."""
    dist = expand(ch)
    dist.pop(identity(ch.n), None)
    rest = 4**ch.n - 1 - len(dist)
    uniform = 1 / (4**ch.n - 1)
    v2 = sum((p / ch.p_err - uniform) ** 2 for p in dist.values()) + rest * uniform**2
    d1 = sum(abs(p / ch.p_err - uniform) for p in dist.values()) + rest * uniform
    lams = [brute_fidelity(ch, PauliOp(ch.n, x, z)) for x in range(2**ch.n) for z in range(2**ch.n) if x or z]
    return math.sqrt(v2), d1, float(np.mean(np.square(lams)))


def test_distances_merge_overlapping_atoms():
    # the point mass X on qubit 0 is also a member of the group-minus-identity atom
    e1 = point_ensemble(parse_pauli("XI"))
    e2 = PauliEnsemble(2, (FullGroupMinusIdentityFactor((0, 1)),))
    ch = PauliChannel(2, ((0.1, e1), (0.3, e2)))
    assert distance_v(ch) == pytest.approx(_brute_distances(ch)[0], abs=1e-12)

    # two overlapping clusters, disjoint from each other, and one atom disjoint from both:
    # {XII} ⊂ {XII, YII} and {IZI} ⊂ I ⊗ (nonidentity on qubits 1, 2), then {ZII}
    ident = PointFactor((0,), parse_pauli("I"))
    a_point = point_ensemble(parse_pauli("XII"))
    a_set = PauliEnsemble(3, (XYSetFactor((0,)), PointFactor((1, 2), parse_pauli("II"))))
    b_point = point_ensemble(parse_pauli("IZI"))
    b_set = PauliEnsemble(3, (ident, FullGroupMinusIdentityFactor((1, 2))))
    lone = point_ensemble(parse_pauli("ZII"))
    ch = PauliChannel(3, ((0.02, a_point), (0.03, b_point), (0.05, lone), (0.04, a_set), (0.06, b_set)))
    v, d1, u = _brute_distances(ch)
    assert distance_v(ch) == pytest.approx(v, abs=1e-12)
    assert diamond_distance_normalized(ch) == pytest.approx(d1, abs=1e-12)
    assert unitarity(ch) == pytest.approx(u, abs=1e-12)


def test_distance_undefined_for_noiseless():
    with pytest.raises(ValueError):
        distance_v(make_white_noise(2, 0.0))


# ---------------------------------------------------------------------------
# unitarity / average noise strength
# ---------------------------------------------------------------------------


def test_unitarity_frozen_depolarizing():
    ch = make_single_qubit_pauli_noise(1, 0, 0.1, 0.1, 0.1)
    assert avg_noise_strength(ch) == pytest.approx(0.6, abs=1e-12)
    assert unitarity(ch) == pytest.approx(0.36, abs=1e-12)


def test_unitarity_identity_channel():
    ch = make_white_noise(3, 0.0)
    assert unitarity(ch) == 1.0
    assert avg_noise_strength(ch) == 1.0


def test_unitarity_white_noise_is_s_squared():
    ch = make_white_noise(2, 0.4)
    s = avg_noise_strength(ch)
    assert unitarity(ch) == pytest.approx(s**2, abs=1e-12)


def test_unitarity_matches_fidelity_moments():
    """u and s equal the mean of λ_P² and λ_P over nonidentity Paulis."""
    rng = np.random.default_rng(99)
    for _ in range(8):
        n = int(rng.integers(1, 4))
        ch = _random_channel(n, rng)
        lams = []
        for x in range(2**n):
            for z in range(2**n):
                if x or z:
                    lams.append(brute_fidelity(ch, PauliOp(n, x, z)))
        assert avg_noise_strength(ch) == pytest.approx(np.mean(lams), abs=1e-12)
        assert unitarity(ch) == pytest.approx(np.mean(np.square(lams)), abs=1e-12)


def test_bounds_on_u_and_s():
    rng = np.random.default_rng(101)
    for _ in range(10):
        ch = _random_channel(int(rng.integers(1, 4)), rng)
        assert unitarity(ch) <= 1 + 1e-12
        assert avg_noise_strength(ch) <= 1 + 1e-12


# ---------------------------------------------------------------------------
# sampling and expansion
# ---------------------------------------------------------------------------


def test_sample_error_identity_channel():
    rng = np.random.default_rng(1)
    ch = make_white_noise(2, 0.0)
    assert all(sample_error(ch, rng) is None for _ in range(50))


def test_sample_error_white_noise_statistics():
    rng = np.random.default_rng(2)
    ch = make_white_noise(1, 0.3)
    counts = {"none": 0, "X": 0, "Y": 0, "Z": 0}
    draws = 12000
    for _ in range(draws):
        e = sample_error(ch, rng)
        counts["none" if e is None else e.letter_at(0)] += 1
    assert abs(counts["none"] - 0.7 * draws) < 4 * math.sqrt(draws * 0.7 * 0.3)
    for letter in "XYZ":
        assert abs(counts[letter] - 0.1 * draws) < 5 * math.sqrt(draws * 0.1)


def test_sample_uniform_over_structured_ensemble():
    rng = np.random.default_rng(3)
    e = PauliEnsemble(3, (XYSetFactor((0,)), FullGroupFactor((1, 2))))
    assert e.cardinality == 32
    counts = {}
    draws = 9600
    for _ in range(draws):
        m = e.sample(rng)
        counts[m] = counts.get(m, 0) + 1
    assert len(counts) == 32
    expected = draws / 32
    chi2 = sum((v - expected) ** 2 / expected for v in counts.values())
    assert chi2 < 80  # 31 dof


def test_weight_at_most_sampling_uniform():
    rng = np.random.default_rng(4)
    e = PauliEnsemble(4, (WeightAtMostFactor((0, 1, 2, 3), 2),))
    card = e.cardinality
    assert card == 1 + 12 + 54
    counts = {}
    draws = 6700
    for _ in range(draws):
        m = e.sample(rng)
        counts[m] = counts.get(m, 0) + 1
    assert len(counts) == card
    expected = draws / card
    chi2 = sum((v - expected) ** 2 / expected for v in counts.values())
    assert chi2 < 67 + 5 * math.sqrt(2 * 66)


def test_expand_sums_to_one():
    rng = np.random.default_rng(5)
    for _ in range(6):
        ch = _random_channel(int(rng.integers(1, 4)), rng)
        assert sum(expand(ch).values()) == pytest.approx(1.0, abs=1e-12)


def test_expand_refuses_large_n():
    with pytest.raises(ValueError):
        expand(make_white_noise(7, 0.1))


def test_twirled_depolarizing_expansion_shape():
    # channel with a Z point and an {X,Y}⊗(full group) atom on two qubits
    atoms = (
        (0.1, point_ensemble(parse_pauli("ZI"))),
        (0.2, PauliEnsemble(2, (XYSetFactor((0,)), FullGroupFactor((1,))))),
    )
    ch = PauliChannel(2, atoms)
    got = expand(ch)
    assert len(got) == 1 + 8 + 1  # identity + XY⊗group + Z point
