"""Pauli algebra: frozen dense-reference values plus algebraic properties."""

import numpy as np
import pytest

import reference as ref
from twirlkit.paulis import (
    PauliOp,
    _columns,
    _transpose,
    _weight,
    commutes,
    format_pauli,
    identity,
    parse_pauli,
    pauli_mul,
    random_bits,
    random_pauli,
    random_paulis,
    single,
    weight,
)


def dense(p: PauliOp) -> np.ndarray:
    return ref.pauli_matrix(format_pauli(p.with_phase(0)).lstrip("+"), p.phase)


def test_letter_encoding_roundtrip():
    p = parse_pauli("XYZI")
    assert p.n == 4
    assert [p.letter_at(q) for q in range(4)] == ["X", "Y", "Z", "I"]
    assert format_pauli(p) == "XYZI"


def test_sign_prefixes():
    assert parse_pauli("-iY").phase == 3
    assert parse_pauli("iZ").phase == 1
    assert parse_pauli("-XX").phase == 2
    assert parse_pauli("+Z").phase == 0
    assert format_pauli(parse_pauli("-iY")) == "-iY"
    assert format_pauli(PauliOp(2, 0b01, 0b10, 3)) == "-iXZ"


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_pauli("XA")
    with pytest.raises(ValueError):
        parse_pauli("")


def test_product_matches_frozen_value():
    # (X tensor Z) * (Z tensor Z) = -i (Y tensor I)
    a = parse_pauli("XZ")
    b = parse_pauli("ZZ")
    c = pauli_mul(a, b)
    assert format_pauli(c) == "-iYI"


def test_product_matches_dense_reference():
    rng = np.random.default_rng(7)
    for _ in range(60):
        a = random_pauli(3, rng=rng).with_phase(int(rng.integers(4)))
        b = random_pauli(3, rng=rng).with_phase(int(rng.integers(4)))
        c = pauli_mul(a, b)
        np.testing.assert_allclose(dense(a) @ dense(b), dense(c), atol=1e-12)


def test_commutation_matches_frozen_value():
    assert commutes(parse_pauli("XYI"), parse_pauli("ZZX"))
    assert not commutes(parse_pauli("X"), parse_pauli("Z"))


def test_commutation_matches_dense_reference():
    rng = np.random.default_rng(11)
    for _ in range(40):
        a = random_pauli(3, rng=rng)
        b = random_pauli(3, rng=rng)
        com = dense(a) @ dense(b) - dense(b) @ dense(a)
        assert commutes(a, b) == (np.abs(com).max() < 1e-12)


def test_weight():
    assert weight(parse_pauli("IXYI")) == 2
    assert weight(identity(5)) == 0
    assert weight(parse_pauli("ZZZZ")) == 4


def test_single_constructor():
    p = single(4, 2, "Y", phase=2)
    assert format_pauli(p) == "-IIYI"
    assert p.letter_at(2) == "Y"


def test_group_properties():
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = random_pauli(4, rng=rng).with_phase(int(rng.integers(4)))
        b = random_pauli(4, rng=rng)
        c = random_pauli(4, rng=rng)
        assert pauli_mul(a, identity(4)) == a
        assert pauli_mul(pauli_mul(a, b), c) == pauli_mul(a, pauli_mul(b, c))
        # squares of Hermitian Paulis are the identity
        h = a.with_phase(a.phase & 2)
        assert pauli_mul(h, h) == identity(4)


def test_random_pauli_excludes_identity_when_asked():
    rng = np.random.default_rng(5)
    for _ in range(200):
        assert not random_pauli(2, exclude_identity=True, rng=rng).is_identity


def test_random_pauli_uniform():
    rng = np.random.default_rng(9)
    counts = {}
    draws = 16000
    for _ in range(draws):
        p = random_pauli(2, rng=rng)
        counts[(p.x, p.z)] = counts.get((p.x, p.z), 0) + 1
    assert len(counts) == 16
    for v in counts.values():
        assert abs(v - draws / 16) < 5 * np.sqrt(draws / 16)


@pytest.mark.parametrize("n", [1, 3, 8, 9, 16, 25, 32, 33, 40, 64, 70, 130])
@pytest.mark.parametrize("exclude_identity", [False, True])
def test_random_paulis_reads_the_random_bits_stream(n, exclude_identity):
    """One bulk draw equals repeated single draws, each an x then a z ``random_bits`` read."""
    bits, one, bulk = (np.random.default_rng(n) for _ in range(3))
    count = 60
    expected = []
    while len(expected) < count:
        x, z = random_bits(n, bits), random_bits(n, bits)
        if not (exclude_identity and x == 0 and z == 0):
            expected.append(PauliOp(n, x, z))
    assert [random_pauli(n, exclude_identity, one) for _ in range(count)] == expected
    assert random_paulis(n, count, exclude_identity, bulk) == expected
    assert bulk.bit_generator.state == one.bit_generator.state == bits.bit_generator.state
    assert random_paulis(n, 0, exclude_identity, bulk) == []


@pytest.mark.parametrize("n", [0, 1, 8, 31, 32, 33, 64, 65, 130])
def test_random_bits_matches_the_bytes_stream(n):
    """Each draw equals the low n bits of rng.bytes(⌈n/8⌉) and leaves the same generator state."""
    ours, theirs = np.random.default_rng(1000 + n), np.random.default_rng(1000 + n)
    for _ in range(5):
        want = int.from_bytes(theirs.bytes((n + 7) // 8), "little") & ((1 << n) - 1)
        assert random_bits(n, ours) == want
    assert ours.integers(2**62) == theirs.integers(2**62)


def test_random_paulis_requires_rng():
    with pytest.raises(ValueError):
        random_paulis(3, 4)


def test_restrict():
    p = parse_pauli("XYZI")
    r = p.restrict((1, 3))
    assert format_pauli(r) == "YI"


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("rows", [1, 7, 8, 9, 64, 65])
def test_columns_roundtrip(rows, n):
    """Column q holds bit r = the bit of row r on qubit q; transposing back restores the rows."""
    paulis = random_paulis(n, rows, rng=np.random.default_rng(1000 * n + rows))
    xs, zs = _columns(paulis, n)
    assert len(xs) == len(zs) == n
    for q in (0, n // 2, n - 1):
        assert xs[q] == sum((p.x >> q & 1) << r for r, p in enumerate(paulis))
        assert zs[q] == sum((p.z >> q & 1) << r for r, p in enumerate(paulis))
    assert _transpose(xs, rows) == [p.x for p in paulis]
    assert _transpose(zs, rows) == [p.z for p in paulis]
    assert list(_weight(xs, zs, range(n), rows)) == [weight(p) for p in paulis]
