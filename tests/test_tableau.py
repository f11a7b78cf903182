"""Clifford tableau layer: gate rules, conjugation, sampling, synthesis.

Every elementary gate rule is checked exhaustively against dense matrix
conjugation; higher-level operations are checked structurally and against
the dense reference through synthesized gate lists.
"""

import numpy as np
import pytest

import reference as ref
from helpers import gates_to_dense, pauli_dense, pauli_label
from twirlkit import tableau
from twirlkit.paulis import PauliOp, _columns, _transpose, format_pauli, identity, parse_pauli, random_pauli, single
from twirlkit.tableau import (
    CliffordOp,
    GateSpec,
    _apply_gate,
    _find_transvections,
    _random_symplectic,
    _sympl_inner,
    _transvect,
    apply_gates,
    clifford_mapping_z0_to,
    compose,
    conjugate,
    decompose_gates,
    from_gates,
    gate,
    identity_clifford,
    inverse,
    invert_gates,
    random_clifford,
    single_qubit_clifford_gates,
    single_qubit_clifford_words,
)


def all_signed_paulis(n):
    for x in range(2**n):
        for z in range(2**n):
            for phase in range(4):
                yield PauliOp(n, x, z, phase)


# ---------------------------------------------------------------------------
# elementary gate rules, exhaustively vs dense conjugation
# ---------------------------------------------------------------------------


def check_gate_rule(g, n):
    """g P g† for every signed n-qubit P against the dense reference.

    Each P goes through ``apply_gates`` alone; then all 4^n Paulis, each with
    both Hermitian signs, go through one signed column batch.
    """
    u = gates_to_dense([g], n)
    singles = list(all_signed_paulis(n))
    batch = [p for p in singles if p.phase % 2 == 0]
    xs, zs = _columns(batch, n)
    sign = _apply_gate(xs, zs, sum((p.phase >> 1) << r for r, p in enumerate(batch)), g)
    rows = zip(_transpose(xs, len(batch)), _transpose(zs, len(batch)))
    batched = [PauliOp(n, x, z, 2 * (sign >> r & 1)) for r, (x, z) in enumerate(rows)]
    cases = [(p, apply_gates(p, [g])) for p in singles] + list(zip(batch, batched, strict=True))
    for p, got in cases:
        assert (pauli_label(got), got.phase) == ref.conjugate_dense(u, pauli_label(p), p.phase)


@pytest.mark.parametrize("kind", ["H", "S", "X", "Y", "Z"])
def test_one_qubit_gate_rules_exhaustive(kind):
    for q in (0, 1):
        check_gate_rule(gate(kind, q), 2)


@pytest.mark.parametrize("kind", ["CNOT", "CZ", "SWAP"])
@pytest.mark.parametrize("qubits", [(0, 1), (1, 0), (0, 2)])
def test_two_qubit_gate_rules_exhaustive(kind, qubits):
    check_gate_rule(gate(kind, *qubits), 3)


def test_multicnot_rules():
    g = gate("MULTICNOT", 0, 1, 2)
    tab = from_gates(3, [g])
    assert pauli_label(conjugate(tab, parse_pauli("XII"))) == "XXX"
    assert pauli_label(conjugate(tab, parse_pauli("IZI"))) == "ZZI"
    assert conjugate(tab, parse_pauli("ZII")) == parse_pauli("ZII")
    got = conjugate(tab, parse_pauli("YII"))
    assert (pauli_label(got), got.phase) == ("YXX", 0)
    check_gate_rule(g, 3)


def test_gate_spec_validation():
    with pytest.raises(ValueError):
        GateSpec("H", (0, 1))
    with pytest.raises(ValueError):
        GateSpec("CNOT", (1, 1))
    with pytest.raises(ValueError):
        GateSpec("MULTICNOT", (0,))
    with pytest.raises(ValueError):
        GateSpec("FOO", (0,))
    assert GateSpec("h", (3,)).kind == "H"


def test_gate_spec_rejects_negative_qubits():
    # -1 would index the last qubit's column, not a qubit outside the register
    for kind, qubits in (("H", (-1,)), ("CNOT", (0, -1)), ("MULTICNOT", (0, 1, -2))):
        with pytest.raises(ValueError, match="non-negative"):
            GateSpec(kind, qubits)


# ---------------------------------------------------------------------------
# tableau operations
# ---------------------------------------------------------------------------


def test_from_gates_frozen_example():
    tab = from_gates(1, [gate("H", 0), gate("S", 0)])
    assert (pauli_label(tab.image_x[0]), tab.image_x[0].phase) == ("Z", 0)
    assert (pauli_label(tab.image_z[0]), tab.image_z[0].phase) == ("Y", 0)


def test_s_gate_conjugation_frozen():
    s = from_gates(1, [gate("S", 0)])
    got = conjugate(s, parse_pauli("X"))
    assert (pauli_label(got), got.phase) == ("Y", 0)
    got = conjugate(s, parse_pauli("Y"))
    assert (pauli_label(got), got.phase) == ("X", 2)


def test_inverse_of_s_frozen():
    s_inv = inverse(from_gates(1, [gate("S", 0)]))
    got = conjugate(s_inv, parse_pauli("X"))
    assert (pauli_label(got), got.phase) == ("Y", 2)


def test_compose_frozen_example():
    a = from_gates(2, [gate("CNOT", 0, 1)])
    b = from_gates(2, [gate("CNOT", 1, 0)])
    got = conjugate(compose(a, b), parse_pauli("XI"))
    assert (pauli_label(got), got.phase) == ("XX", 0)


def test_cz_conjugation_frozen():
    cz = from_gates(2, [gate("CZ", 0, 1)])
    assert pauli_label(conjugate(cz, parse_pauli("XI"))) == "XZ"
    assert pauli_label(conjugate(cz, parse_pauli("ZI"))) == "ZI"
    assert pauli_label(conjugate(cz, parse_pauli("IX"))) == "ZX"


def test_conjugate_matches_dense_for_random_cliffords():
    rng = np.random.default_rng(21)
    for n in (2, 3):
        for _ in range(8):
            tab = random_clifford(n, rng)
            u = gates_to_dense(decompose_gates(tab), n)
            for _ in range(12):
                p = random_pauli(n, rng=rng).with_phase(int(rng.integers(4)))
                got = conjugate(tab, p)
                label, phase = ref.conjugate_dense(u, pauli_label(p), p.phase)
                assert (pauli_label(got), got.phase) == (label, phase)


def test_conjugate_is_automorphism():
    rng = np.random.default_rng(33)
    from twirlkit.paulis import pauli_mul

    for _ in range(25):
        tab = random_clifford(4, rng)
        a = random_pauli(4, rng=rng).with_phase(int(rng.integers(4)))
        b = random_pauli(4, rng=rng).with_phase(int(rng.integers(4)))
        assert conjugate(tab, pauli_mul(a, b)) == pauli_mul(
            conjugate(tab, a), conjugate(tab, b)
        )
        assert conjugate(tab, identity(4)) == identity(4)


def test_compose_against_gate_concatenation():
    # compose and inverse are built from gate lists; conjugate reads the stored
    # images, so it checks them independently
    rng = np.random.default_rng(5)
    for n in range(1, 7):
        for _ in range(4):
            a, b, c = (random_clifford(n, rng) for _ in range(3))
            ab, c_inv = compose(a, b), inverse(c)
            for _ in range(6):
                p = random_pauli(n, rng=rng).with_phase(int(rng.integers(4)))
                assert conjugate(ab, p) == conjugate(a, conjugate(b, p))
                assert conjugate(c_inv, conjugate(c, p)) == p


def test_inverse_roundtrip():
    rng = np.random.default_rng(17)
    for n in (1, 2, 4, 6):
        for _ in range(6):
            tab = random_clifford(n, rng)
            assert compose(tab, inverse(tab)).is_identity()
            assert compose(inverse(tab), tab).is_identity()


def test_apply_gates_matches_tableau():
    rng = np.random.default_rng(8)
    cases = [
        (3, [gate("H", 0), gate("CNOT", 0, 2), gate("S", 1), gate("CZ", 1, 2), gate("SWAP", 0, 1)]),
        # qubits 3 and 4 untouched: their generator images stay as they are
        (5, [gate("X", 0), gate("H", 1), gate("MULTICNOT", 1, 0, 2), gate("Y", 2), gate("S", 0),
             gate("Z", 1), gate("CNOT", 2, 0), gate("Y", 1), gate("MULTICNOT", 0, 2, 1)]),
    ]
    for n, gates in cases:
        tab = from_gates(n, gates)
        u = gates_to_dense(gates, n)
        for _ in range(20):
            p = random_pauli(n, rng=rng).with_phase(int(rng.integers(4)))
            got = conjugate(tab, p)
            assert apply_gates(p, gates) == got
            assert (pauli_label(got), got.phase) == ref.conjugate_dense(u, pauli_label(p), p.phase)


def test_invert_gates():
    gates = [gate("H", 0), gate("S", 1), gate("CNOT", 0, 1), gate("MULTICNOT", 0, 1, 2)]
    inv = invert_gates(gates)
    assert from_gates(3, gates + inv).is_identity()


def test_is_valid_flags_broken_tableau():
    good = identity_clifford(2)
    assert good.is_valid()
    bad = CliffordOp(2, (single(2, 0, "X"), single(2, 1, "X")), (single(2, 0, "Z"), single(2, 1, "X")))
    assert not bad.is_valid()


# ---------------------------------------------------------------------------
# single-qubit group and uniform sampling
# ---------------------------------------------------------------------------


def test_single_qubit_group_has_24_elements():
    words = single_qubit_clifford_words()
    assert len(words) == 24
    tabs = {from_gates(1, [gate(k, 0) for k in w]) for w in words}
    assert len(tabs) == 24


def test_single_qubit_clifford_gates_placement():
    gates = single_qubit_clifford_gates(5, qubit=3)
    assert all(g.qubits == (3,) for g in gates)
    again = single_qubit_clifford_gates(5, qubit=3)
    assert isinstance(again, tuple) and again == gates


def test_two_qubit_clifford_group_order_by_enumeration():
    """BFS over {H,S,CNOT} tableau products finds exactly 11520 elements."""
    gens = [
        from_gates(2, [gate("H", 0)]),
        from_gates(2, [gate("H", 1)]),
        from_gates(2, [gate("S", 0)]),
        from_gates(2, [gate("S", 1)]),
        from_gates(2, [gate("CNOT", 0, 1)]),
    ]
    seen = {identity_clifford(2)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for tab in frontier:
            for g in gens:
                prod = compose(g, tab)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    assert len(seen) == 11520


def test_random_clifford_first_image_uniform():
    """C X_0 C† for uniform C is uniform over all 30 signed non-identity Paulis."""
    rng = np.random.default_rng(4)
    draws = 6000
    counts = {}
    for _ in range(draws):
        tab = random_clifford(2, rng)
        img = tab.image_x[0]
        counts[(img.x, img.z, img.phase)] = counts.get((img.x, img.z, img.phase), 0) + 1
    assert len(counts) == 30
    expected = draws / 30
    chi2 = sum((v - expected) ** 2 / expected for v in counts.values())
    assert chi2 < 75  # 29 dof


def test_random_clifford_n1_covers_group_uniformly():
    rng = np.random.default_rng(6)
    counts = {}
    draws = 4800
    for _ in range(draws):
        tab = random_clifford(1, rng)
        counts[(tab.image_x[0], tab.image_z[0])] = counts.get((tab.image_x[0], tab.image_z[0]), 0) + 1
    assert len(counts) == 24
    expected = draws / 24
    chi2 = sum((v - expected) ** 2 / expected for v in counts.values())
    assert chi2 < 60


def test_random_clifford_validity_large_n():
    rng = np.random.default_rng(12)
    for n, draws in [(n, 24) for n in range(1, 9)] + [(12, 6), (33, 2)]:
        for _ in range(draws):
            assert random_clifford(n, rng).is_valid()


# random_clifford(n, default_rng(seed)): images as text, then the generator's
# next integers(2**31).  The random-Clifford bias check, the distance scans'
# measurement bases and the dense-distance benchmark all read this stream, so
# a change to it must show here and be declared.
FROZEN_CLIFFORD_DRAWS = [
    (1, 5, ["-Z"], ["Y"], 1006851808),
    (2, 6, ["-ZY", "-IY"], ["-YI", "-YZ"], 792565862),
    (4, 7, ["-YZIZ", "-IXXX", "YIZZ", "-YXXX"], ["YIXX", "ZIZX", "IXIX", "XZIY"], 644602188),
    (
        7,
        8,
        ["-IXYYYIZ", "ZZZYIXZ", "XIXZZXY", "YZIYXZI", "ZIYXXII", "IXYXXZI", "-XIZZZYY"],
        ["ZXIIXZZ", "-YZIYXIZ", "-IYIZZYY", "IYZZXXI", "YYXYXXX", "-ZXZZXYY", "-ZZYZZYX"],
        800472174,
    ),
]


@pytest.mark.parametrize("n, seed, image_x, image_z, next_draw", FROZEN_CLIFFORD_DRAWS)
def test_random_clifford_stream_is_frozen(n, seed, image_x, image_z, next_draw):
    rng = np.random.default_rng(seed)
    tab = random_clifford(n, rng)
    assert [format_pauli(p) for p in tab.image_x] == image_x
    assert [format_pauli(p) for p in tab.image_z] == image_z
    assert int(rng.integers(2**31)) == next_draw


# ---------------------------------------------------------------------------
# symplectic internals
# ---------------------------------------------------------------------------


def test_transvection_is_symplectic():
    rng = np.random.default_rng(3)
    for _ in range(50):
        dim = 6
        h, u, v = (int(b) for b in rng.integers(0, 1 << dim, 3))
        assert _sympl_inner(_transvect(h, u), _transvect(h, v)) == _sympl_inner(u, v)


def test_find_transvections_maps_x_to_y():
    rng = np.random.default_rng(14)
    for _ in range(200):
        dim = 8
        x, y = (int(b) for b in rng.integers(0, 1 << dim, 2))
        if not x or not y:
            continue
        t_first, t_second = _find_transvections(x, y)
        got = _transvect(t_second, _transvect(t_first, x))
        assert got == y


def test_random_symplectic_preserves_form():
    rng = np.random.default_rng(15)
    m = _random_symplectic(4, rng)
    dim = 8
    for j in range(dim):
        for k in range(dim):
            want = 1 if (j // 2 == k // 2 and j != k) else 0
            assert _sympl_inner(m[j], m[k]) == want


# ---------------------------------------------------------------------------
# synthesis and axis frames
# ---------------------------------------------------------------------------


def test_decompose_roundtrip():
    rng = np.random.default_rng(19)
    for n in (1, 2, 3, 5):
        for _ in range(8):
            tab = random_clifford(n, rng)
            assert from_gates(n, decompose_gates(tab)) == tab


def test_decompose_identity_is_empty_or_trivial():
    gates = decompose_gates(identity_clifford(3))
    assert from_gates(3, gates).is_identity()


# Gate lists of the Cliffords drawn from default_rng(20261), two per n for
# n = 1..6 in order, recorded before synthesis moved onto column batches.
# Gate kind and qubits are written as in "CNOT1,0".
DECOMPOSE_FROZEN = [
    (1, 0, "Z0 H0 S0 S0 S0 H0 S0 S0 S0"),
    (1, 1, "Z0 H0"),
    (2, 0, "X1 Z1 Z0 H0 S0 S0 S0 H0 CNOT1,0 S0 S0 S0"),
    (2, 1, "X1 Z1 X0 Z0 H1 S1 S1 S1 H1 H1 H0 S0 S0 S0 H0 SWAP0,1 H1"),
    (3, 0, "X1 Z0 H2 S2 S2 S2 H2 S2 S2 S2 CNOT2,1 H2 S2 S2 S2 CZ1,2 H1 CNOT1,0 H1 CZ0,2 CNOT0,2 SWAP0,1"),
    (
        3,
        1,
        "X2 Z2 X1 Z0 H2 S2 S2 S2 H2 H2 H1 S1 S1 S1 H1 CNOT2,1 S1 S1 S1 CNOT2,0 CNOT1,0 H1 S0 S0 "
        "S0 CZ0,2 CNOT0,2 CNOT0,1",
    ),
    (
        4,
        0,
        "X3 Z2 Z0 H2 S2 S2 S2 H2 CNOT3,2 H3 S2 S2 S2 CNOT2,3 H1 S1 S1 S1 H1 CNOT2,1 H2 SWAP1,2 H2 "
        "H0 S0 S0 S0 H0 CNOT3,0 H3 S3 S3 S3 CNOT2,0 CZ0,2 CZ0,1 CNOT0,2 SWAP0,1",
    ),
    (
        4,
        1,
        "Z3 X0 H3 S3 S3 S3 H3 S3 S3 S3 S2 S2 S2 CNOT2,3 H1 S1 S1 S1 H1 CNOT3,1 H3 S3 S3 S3 CZ1,2 "
        "H1 CNOT3,0 H3 S3 S3 S3 CNOT2,0 CNOT1,0 H1 CNOT0,3 CNOT0,2 SWAP0,1",
    ),
    (
        5,
        0,
        "X4 Z3 X2 X1 Z0 H4 CNOT4,3 H4 CNOT3,4 CNOT4,2 CNOT3,2 H3 CZ2,4 H1 S1 S1 S1 H1 CNOT4,1 "
        "CNOT3,1 H3 S3 S3 S3 CNOT2,1 CZ1,4 CZ1,2 CNOT1,3 H0 S0 S0 S0 H0 CNOT4,0 CNOT3,0 H3 "
        "CNOT2,0 H2 S0 S0 S0 CZ0,4 CNOT0,4 CNOT0,2 SWAP0,1",
    ),
    (
        5,
        1,
        "X4 X3 Z1 Z0 H4 S4 S4 S4 H4 S4 S4 S4 H3 S3 S3 S3 H3 CNOT4,3 H4 SWAP3,4 H4 H2 S2 S2 S2 H2 "
        "CNOT4,2 H4 CNOT3,2 S2 S2 S2 CZ2,4 CZ2,3 CNOT2,4 CNOT4,1 H4 CNOT3,1 H3 CZ1,4 CZ1,2 "
        "CNOT1,3 CNOT1,2 CNOT2,0 H2 S0 S0 S0 CZ0,3 CZ0,2 CNOT0,3 CNOT0,2 CNOT0,1",
    ),
    (
        6,
        0,
        "Z5 Z4 X3 Z3 X1 Z1 X0 Z0 S5 S5 S5 S4 S4 S4 CZ4,5 SWAP4,5 CNOT5,3 H5 CNOT4,3 H4 S3 S3 S3 "
        "CZ3,4 SWAP3,5 H2 S2 S2 S2 H2 CNOT5,2 H5 S5 S5 S5 CNOT4,2 CNOT3,2 CZ2,4 CZ2,3 CNOT2,5 "
        "SWAP2,4 H1 S1 S1 S1 H1 CNOT5,1 H5 CNOT3,1 H3 CZ1,4 CZ1,3 SWAP1,5 H0 S0 S0 S0 H0 CNOT4,0 "
        "H4 CNOT3,0 H3 CNOT2,0 H2 S2 S2 S2 CNOT1,0 H1 S1 S1 S1 S0 S0 S0 CZ0,3 CNOT0,5 CNOT0,3 "
        "CNOT0,2 SWAP0,1",
    ),
    (
        6,
        1,
        "X4 Z4 X3 X2 X1 Z1 X0 Z0 H5 S5 S5 S5 H5 CNOT5,4 H5 S5 S5 S5 SWAP4,5 H5 CNOT5,3 H5 S3 S3 "
        "S3 CZ3,5 CZ3,4 CNOT3,5 SWAP3,4 CNOT3,2 H3 S3 S3 S3 CZ2,4 CNOT2,3 H1 S1 S1 S1 H1 CNOT5,1 "
        "H5 S5 S5 S5 CNOT3,1 CNOT2,1 H2 S1 S1 S1 CZ1,4 CNOT1,5 CNOT1,2 H0 S0 S0 S0 H0 CNOT5,0 "
        "CNOT4,0 CNOT3,0 CNOT2,0 H2 CNOT1,0 S0 S0 S0 CZ0,4 CZ0,2 CNOT0,5 SWAP0,4",
    ),
]


def test_decompose_gates_frozen():
    rng = np.random.default_rng(20261)
    drawn = {(n, k): random_clifford(n, rng) for n in range(1, 7) for k in range(2)}
    for n, k, want in DECOMPOSE_FROZEN:
        got = " ".join(g.kind + ",".join(map(str, g.qubits)) for g in decompose_gates(drawn[n, k]))
        assert got == want


def test_clifford_mapping_z0_frozen_cases():
    gates = clifford_mapping_z0_to(parse_pauli("ZII"))
    assert conjugate(from_gates(3, gates), parse_pauli("ZII")) == single(3, 0, "Z")
    assert gates == ()

    gates = clifford_mapping_z0_to(parse_pauli("IXY"))
    assert conjugate(from_gates(3, gates), parse_pauli("IXY")) == single(3, 0, "Z")


def test_clifford_mapping_z0_random_axes():
    """The frame is checked inside on the qubits its gates touch; the reference
    here is the full-register check, on every axis at n <= 3 and on random
    axes up to n = 25."""
    rng = np.random.default_rng(23)
    axes = [PauliOp(n, x, z) for n in (1, 2, 3) for x in range(2**n) for z in range(2**n) if x or z]
    axes += [random_pauli(n, exclude_identity=True, rng=rng) for n in (1, 2, 4, 6, 16, 25) for _ in range(10)]
    for axis in axes:
        n = axis.n
        gates = clifford_mapping_z0_to(axis)
        assert conjugate(from_gates(n, gates), axis) == single(n, 0, "Z")
        assert apply_gates(axis, gates) == single(n, 0, "Z")


@pytest.mark.parametrize("label", ["XIII", "IIXZ", "ZIYIX", "IIIIIIIIIIIIIIIX"])
def test_clifford_mapping_z0_check_catches_a_wrong_frame(monkeypatch, label):
    """With every H built as an S the frame no longer maps the axis to Z on
    qubit 0, and the check on the touched qubits raises."""
    build = tableau.gate
    monkeypatch.setattr(tableau, "gate", lambda kind, *qubits: build("S" if kind == "H" else kind, *qubits))
    with pytest.raises(AssertionError, match="axis frame construction failed"):
        clifford_mapping_z0_to(parse_pauli(label))


def test_clifford_mapping_z0_y_letter_costs_one_s():
    """A Y letter is rotated by S, H, X: one S where S, S, S, H (= H·S†) had
    three, with the same tableau, signs included."""
    rng = np.random.default_rng(29)
    axes = [parse_pauli("YZY"), parse_pauli("XYIY")]
    axes += [random_pauli(n, exclude_identity=True, rng=rng) for n in (1, 2, 3, 5) for _ in range(6)]
    for axis in axes:
        n = axis.n
        gates = clifford_mapping_z0_to(axis)
        letters = [axis.letter_at(q) for q in range(n)]
        assert sum(g.kind == "S" for g in gates) == letters.count("Y")
        old = []
        for g in gates:
            if g.kind == "S":
                old += [g, g]
            if g.kind != "X":
                old.append(g)
        assert from_gates(n, old) == from_gates(n, gates)


def test_clifford_mapping_z0_rejects_identity_and_signs():
    with pytest.raises(ValueError):
        clifford_mapping_z0_to(identity(2))
    with pytest.raises(ValueError):
        clifford_mapping_z0_to(parse_pauli("-XZ"))
