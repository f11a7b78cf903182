"""Dense-simulator tests, anchored on the standalone matrix oracle.

Gate matrices, Pauli matrices, and channel applications are compared against
the minimal dense toolbox in reference.py/helpers.py, which was written
before the package and shares none of its code.  The dense simulator then
serves as the ground truth for the fast engine's effective fidelities.
"""

import itertools
import math

import numpy as np
import pytest

import reference as ref
from helpers import gate_to_dense, gates_to_dense, pauli_dense
from twirlkit import dense
from twirlkit.channels import (
    CosetFactor,
    DiagonalIZFactor,
    FullGroupFactor,
    FullGroupMinusIdentityFactor,
    PauliChannel,
    PauliEnsemble,
    PointFactor,
    WeightAtMostFactor,
    XYSetFactor,
    expand,
    make_single_qubit_pauli_noise,
    make_white_noise,
    point_ensemble,
)
from twirlkit.circuits import (
    CliffordLayer,
    LogicalCircuit,
    NoiseLayer,
    RotationLayer,
    _resolve_rates,
    build_trotter_circuit,
    effective_fidelity,
    heisenberg_1d,
    rz_axis_noise,
)
from twirlkit.dense import (
    DensityMatrix,
    _apply_ensemble_average,
    _apply_gate_rows,
    _clifford_unitary_cached,
    _depolarize_register,
    _gate_unitary,
    _mix_qubits,
    _pauli_mix_qubit,
    _tv_raw,
    _weight_capped_sum,
    apply_channel,
    apply_rotation,
    apply_unitary,
    circuit_unitary,
    clifford_unitary,
    dense_cap,
    effective_fidelity_dense,
    pauli_matrix,
    rescaled_distance_scan,
    simulate_pair,
    trace_distance,
    tv_distance_random_bases,
)
from twirlkit.paulis import PauliOp, parse_pauli, random_pauli
from twirlkit.tableau import decompose_gates, gate, random_clifford
from twirlkit.twirl import SymmetrySpec, enumerate_sampler_distribution, twirl_general_noise


def random_gate_list(n, rng, count):
    gates = []
    for _ in range(count):
        kind = ["H", "S", "X", "Y", "Z", "CNOT", "CZ", "SWAP"][rng.integers(8 if n > 1 else 5)]
        if kind in ("H", "S", "X", "Y", "Z"):
            gates.append(gate(kind, int(rng.integers(n))))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(gate(kind, int(a), int(b)))
    return gates


def every_gate(n):
    """Each gate kind on every qubit, every ordered pair, and every MULTICNOT fan."""
    for q in range(n):
        for kind in ("H", "S", "X", "Y", "Z"):
            yield gate(kind, q)
    for a, b in itertools.permutations(range(n), 2):
        for kind in ("CNOT", "CZ", "SWAP"):
            yield gate(kind, a, b)
    for c in range(n):
        others = [q for q in range(n) if q != c]
        for size in range(1, len(others) + 1):
            for targets in itertools.combinations(others, size):
                yield gate("MULTICNOT", c, *targets)


def random_complex(dim, rng):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


# ---------------------------------------------------------------------------
# states and operators
# ---------------------------------------------------------------------------


class TestDensityMatrix:
    def test_valid_constructions(self):
        DensityMatrix.computational(2, 3).validate()
        DensityMatrix.maximally_mixed(3).validate()
        DensityMatrix.haar_random_pure(2, np.random.default_rng(0)).validate()

    def test_from_pure_normalizes(self):
        rho = DensityMatrix.from_pure(np.array([3.0, 4.0]))
        assert rho.entries[0, 0] == pytest.approx(9 / 25)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(1, bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(1, np.eye(2, dtype=complex))

    def test_rejects_negative_state(self):
        bad = np.diag([2.0, -1.0]).astype(complex)
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix(1, bad)

    def test_cap_respected(self, monkeypatch):
        monkeypatch.setenv("TWIRLKIT_DENSE_CAP", "3")
        assert dense_cap() == 3
        with pytest.raises(ValueError, match="cap"):
            apply_rotation(DensityMatrix.maximally_mixed(4), parse_pauli("ZIII"), 0.1)


class TestOperatorConstruction:
    def test_pauli_matrix_against_reference(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3):
            for _ in range(15):
                p = PauliOp(n, *(int(rng.integers(2**n)) for _ in range(2)), int(rng.integers(4)))
                assert np.allclose(pauli_matrix(p), pauli_dense(p), atol=1e-12)

    def test_gate_unitaries_against_reference(self):
        rng = np.random.default_rng(2)
        n = 3
        kinds = [gate("H", 1), gate("S", 2), gate("X", 0), gate("Y", 1), gate("Z", 2),
                 gate("CNOT", 0, 2), gate("CNOT", 2, 0), gate("CZ", 1, 2),
                 gate("SWAP", 0, 2), gate("MULTICNOT", 1, 0, 2)]
        for g in kinds:
            assert np.allclose(clifford_unitary(n, (g,)), gate_to_dense(g, n), atol=1e-12)
        for _ in range(10):
            gates = random_gate_list(4, rng, 8)
            assert np.allclose(clifford_unitary(4, tuple(gates)), gates_to_dense(gates, 4), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gate_row_rule_matches_gate_matrix_product(self, n):
        """Row rule against _gate_unitary(n, g) @ u: exact for monomial gates, 1e-15 for H."""
        u = random_complex(2**n, np.random.default_rng(40 + n))
        for g in every_gate(n):
            got = _apply_gate_rows(u, n, g)
            want = _gate_unitary(n, g) @ u
            if g.kind == "H":
                assert np.abs(got - want).max() <= 1e-15, g
            else:
                assert np.array_equal(got, want), g

    def test_clifford_unitary_matches_matmul_chain(self):
        rng = np.random.default_rng(44)
        for n in (1, 2, 3, 4, 5):
            for count in (0, 1, 7, 30):
                gates = random_gate_list(n, rng, count)
                if n > 2:
                    gates.append(gate("MULTICNOT", n - 1, 0, 1))
                chain = np.eye(2**n, dtype=complex)
                for g in gates:
                    chain = _gate_unitary(n, g) @ chain
                assert np.abs(clifford_unitary(n, tuple(gates)) - chain).max() <= 1e-14

    def test_circuit_unitary_composes_layers(self):
        rng = np.random.default_rng(3)
        gates = random_gate_list(3, rng, 5)
        from twirlkit.tableau import from_gates

        c = LogicalCircuit(
            3,
            (
                RotationLayer(parse_pauli("XZI"), 0.4, rz_axis_noise(0, 0, 0)),
                CliffordLayer(from_gates(3, gates), tuple(gates)),
                NoiseLayer(make_white_noise(3, 0.1)),
            ),
        )
        axis = pauli_dense(parse_pauli("XZI"))
        rot = math.cos(0.4) * np.eye(8) + 1j * math.sin(0.4) * axis
        want = gates_to_dense(gates, 3) @ rot
        assert np.allclose(circuit_unitary(c), want, atol=1e-12)


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------


class TestApplyRotation:
    def test_zero_angle_is_identity(self):
        rho = DensityMatrix.haar_random_pure(2, np.random.default_rng(4))
        out = apply_rotation(rho, parse_pauli("XY"), 0.0)
        assert np.allclose(out.entries, rho.entries, atol=1e-14)

    def test_quarter_turn_is_inverse_phase_gate(self):
        # exp(i·π/4·Z) = e^{iπ/4}·S†, so conjugation matches S† conjugation
        rho = DensityMatrix.haar_random_pure(1, np.random.default_rng(5))
        out = apply_rotation(rho, PauliOp(1, 0, 1), math.pi / 4)
        s_dag = np.diag([1.0, -1j])
        assert np.allclose(out.entries, s_dag @ rho.entries @ s_dag.conj().T, atol=1e-14)

    def test_eigenstate_untouched(self):
        rho = DensityMatrix.computational(2, 0)
        out = apply_rotation(rho, parse_pauli("ZZ"), 0.3)
        assert np.allclose(out.entries, rho.entries, atol=1e-14)

    def test_angles_compose(self):
        rho = DensityMatrix.haar_random_pure(2, np.random.default_rng(6))
        once = apply_rotation(apply_rotation(rho, parse_pauli("XZ"), 0.2), parse_pauli("XZ"), 0.5)
        combined = apply_rotation(rho, parse_pauli("XZ"), 0.7)
        assert np.allclose(once.entries, combined.entries, atol=1e-13)

    def test_matches_eigendecomposition_exponential(self):
        axis = parse_pauli("YX")
        theta = 0.37
        mat = pauli_dense(axis)
        vals, vecs = np.linalg.eigh(mat)
        u = vecs @ np.diag(np.exp(1j * theta * vals)) @ vecs.conj().T
        rho = DensityMatrix.haar_random_pure(2, np.random.default_rng(7))
        assert np.allclose(
            apply_rotation(rho, axis, theta).entries,
            apply_unitary(rho, u).entries,
            atol=1e-12,
        )


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def expanded_channel_action(rho_mat, ch):
    """Independent channel application: explicit member sum via the oracle."""
    out = np.zeros_like(rho_mat)
    for p, prob in expand(ch).items():
        mat = pauli_dense(p)
        out = out + prob * (mat @ rho_mat @ mat.conj().T)
    return out


class TestApplyChannel:
    def test_identity_channel(self):
        rho = DensityMatrix.haar_random_pure(2, np.random.default_rng(8))
        out = apply_channel(rho, PauliChannel(2, ()))
        assert np.allclose(out.entries, rho.entries)

    def test_white_noise_closed_form(self):
        n, p = 3, 0.2
        rho = DensityMatrix.haar_random_pure(n, np.random.default_rng(9))
        out = apply_channel(rho, make_white_noise(n, p))
        pp = p * 4**n / (4**n - 1)
        want = (1 - pp) * rho.entries + pp * np.eye(2**n) / 2**n
        assert np.allclose(out.entries, want, atol=1e-12)

    def test_z_flip_on_plus_state(self):
        plus = DensityMatrix.from_pure(np.array([1.0, 1.0]))
        ch = PauliChannel(1, ((1.0, PauliEnsemble(1, (PointFactor((0,), parse_pauli("Z")),))),))
        out = apply_channel(plus, ch)
        minus = DensityMatrix.from_pure(np.array([1.0, -1.0]))
        assert np.allclose(out.entries, minus.entries, atol=1e-14)

    def test_structured_factors_match_member_expansion(self):
        rng = np.random.default_rng(10)
        n = 3
        ensembles = [
            PauliEnsemble(n, (PointFactor((1,), parse_pauli("Y")), FullGroupFactor((0, 2)))),
            PauliEnsemble(n, (XYSetFactor((0,)), DiagonalIZFactor((1, 2)))),
            PauliEnsemble(n, (FullGroupMinusIdentityFactor((0, 1, 2)),)),
            PauliEnsemble(n, (XYSetFactor((0,)), WeightAtMostFactor((1, 2), 1))),
        ]
        gates = tuple(random_gate_list(n, rng, 4))
        ensembles.append(PauliEnsemble(n, (XYSetFactor((0,)), FullGroupFactor((1, 2))), gates))
        # {Z,Y}⊗{X,Y}⊗{I,X}, and full ⊗ {I,X} ⊗ Y under the frame: cosets no named constructor makes
        ensembles.append(PauliEnsemble(n, (CosetFactor((0, 1, 2), parse_pauli("ZXI"), 0b101, 0b010),)))
        ensembles.append(PauliEnsemble(n, (CosetFactor((0, 1, 2), parse_pauli("IIY"), 0b011, 0b001),), gates))
        probs = [0.15, 0.1, 0.2, 0.05, 0.12, 0.08, 0.06]
        ch = PauliChannel(n, tuple(zip(probs, ensembles)))
        rho = DensityMatrix.haar_random_pure(n, rng)
        got = apply_channel(rho, ch)
        want = expanded_channel_action(rho.entries, ch)
        assert np.abs(got.entries - want).max() < 1e-12

    @pytest.mark.parametrize(
        "probs",
        [
            (1.0, 0.0, 0.0, 0.0),
            (0.0, 1.0, 0.0, 0.0),
            (0.0, 0.0, 1.0, 0.0),
            (0.0, 0.0, 0.0, 1.0),
            (0.25, 0.25, 0.25, 0.25),
            (1 - 0.07, 0.07 / 3, 0.07 / 3, 0.07 / 3),
            (0.4, 0.1, 0.2, 0.3),
        ],
    )
    def test_pauli_mix_qubit_matches_explicit_sum(self, probs):
        """Σ p_σ·σ_q·M·σ_q† with σ_q built from the reference matrices, for a non-Hermitian M."""
        n = 3
        rng = np.random.default_rng(12)
        m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        for q in range(n):
            want = np.zeros_like(m)
            for letter, p in zip("IXYZ", probs):
                sigma = ref.embed(ref.LETTERS[letter], [q], n)
                want += p * (sigma @ m @ sigma.conj().T)
            assert np.abs(_pauli_mix_qubit(m, n, q, probs) - want).max() < 1e-13

    @pytest.mark.parametrize("register", [(1,), (0, 2), (3, 1), (0, 1, 3), (2, 0, 3, 1)])
    def test_partial_trace_matches_mixes_and_pauli_sum(self, register):
        """tr_R ⊗ I/2^m against per-qubit (¼, ¼, ¼, ¼) mixes and the explicit 4^m Pauli mean."""
        n, m = 4, len(register)
        mat = random_complex(2**n, np.random.default_rng(50 + m))
        got = _depolarize_register(mat, n, register)
        mixed = _mix_qubits(mat, n, register, (0.25, 0.25, 0.25, 0.25))
        assert np.abs(got - mixed).max() < 1e-14
        want = np.zeros_like(mat)
        for letters in itertools.product("IXYZ", repeat=m):
            label = ["I"] * n
            for q, letter in zip(register, letters):
                label[q] = letter
            p = ref.pauli_matrix("".join(label))
            want += p @ mat @ p.conj().T
        assert np.abs(got - want / 4**m).max() < 1e-13

    def test_duplicated_ensembles_apply_as_their_atom_sum(self):
        n = 3
        rng = np.random.default_rng(52)
        full = PauliEnsemble(n, (FullGroupMinusIdentityFactor((0, 1, 2)),))
        xy = PauliEnsemble(n, (XYSetFactor((1,)), FullGroupFactor((0, 2))))
        atoms = ((0.1, full), (0.05, xy), (0.2, full), (0.07, xy), (0.03, full))
        rho = DensityMatrix.haar_random_pure(n, rng)
        got = apply_channel(rho, PauliChannel(n, atoms)).entries
        want = (1 - sum(p for p, _ in atoms)) * rho.entries
        for prob, ensemble in atoms:
            want = want + prob * _apply_ensemble_average(rho.entries, ensemble)
        assert np.abs(got - want).max() < 1e-15

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_weight_capped_recursion_matches_member_loop(self, k):
        rng = np.random.default_rng(53 + k)
        for n, register in [(3, (0, 1, 2)), (4, (0, 2, 3)), (5, (0, 1, 2, 4)), (5, (0, 1, 2, 3, 4))]:
            if k > len(register):
                continue
            factor = WeightAtMostFactor(register, k)
            mat = random_complex(2**n, rng)
            want = np.zeros_like(mat)
            for member in factor.members_local():
                label = ["I"] * n
                for i, q in enumerate(register):
                    label[q] = member.letter_at(i)
                p = ref.pauli_matrix("".join(label))
                want += p @ mat @ p.conj().T
            got = _weight_capped_sum(mat, n, register, k)
            assert np.abs(got - want).max() < 1e-12 * factor.cardinality

    def test_white_noise_commutes_with_unitaries(self):
        rng = np.random.default_rng(11)
        n = 3
        ch = make_white_noise(n, 0.3)
        u = clifford_unitary(n, tuple(random_gate_list(n, rng, 6)))
        rho = DensityMatrix.haar_random_pure(n, rng)
        path_a = apply_unitary(apply_channel(rho, ch), u)
        path_b = apply_channel(apply_unitary(rho, u), ch)
        assert np.abs(path_a.entries - path_b.entries).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_channel(DensityMatrix.maximally_mixed(2), make_white_noise(3, 0.1))


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


class TestDistances:
    def test_trace_distance_basics(self):
        a = DensityMatrix.computational(1, 0)
        b = DensityMatrix.computational(1, 1)
        assert trace_distance(a, a) == 0.0
        assert trace_distance(a, b) == pytest.approx(1.0)

    def test_trace_distance_to_mixed(self):
        n, p = 2, 0.3
        rho = DensityMatrix.haar_random_pure(n, np.random.default_rng(12))
        mixed = DensityMatrix(n, (1 - p) * rho.entries + p * np.eye(2**n) / 2**n)
        assert trace_distance(rho, mixed) == pytest.approx(p * (1 - 2**-n), abs=1e-12)

    def test_tv_identical_states(self):
        rho = DensityMatrix.haar_random_pure(2, np.random.default_rng(13))
        mean, err = tv_distance_random_bases(rho, rho, 5, np.random.default_rng(14))
        assert mean == 0.0 and err == 0.0

    def test_tv_bounded_by_trace_distance(self):
        rng = np.random.default_rng(15)
        for haar in (False, True):
            a = DensityMatrix.haar_random_pure(2, rng)
            b = DensityMatrix.haar_random_pure(2, rng)
            td = trace_distance(a, b)
            mean, _ = tv_distance_random_bases(a, b, 20, rng, haar=haar)
            assert 0.0 < mean <= td + 1e-12

    @pytest.mark.parametrize("haar", [False, True])
    def test_tv_matches_three_index_einsum(self, haar):
        """The BLAS diagonal read against diag(U·A·U†) as one three-operand einsum."""
        n, num_bases = 3, 5
        rng = np.random.default_rng(55)
        a = DensityMatrix.haar_random_pure(n, rng).entries
        b = DensityMatrix.haar_random_pure(n, rng).entries
        got = _tv_raw(a, b, n, num_bases, np.random.default_rng(56), haar)
        draws = np.random.default_rng(56)
        vals = []
        for _ in range(num_bases):
            if haar:
                g = draws.normal(size=(2**n, 2**n)) + 1j * draws.normal(size=(2**n, 2**n))
                q, r = np.linalg.qr(g)
                u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            else:
                u = clifford_unitary(n, tuple(decompose_gates(random_clifford(n, draws))))
            p = np.einsum("ij,jk,ik->i", u, a, u.conj()).real
            q_ = np.einsum("ij,jk,ik->i", u, b, u.conj()).real
            vals.append(0.5 * np.abs(p - q_).sum())
        assert abs(got[0] - np.mean(vals)) < 1e-14
        assert abs(got[1] - np.std(vals, ddof=1) / math.sqrt(num_bases)) < 1e-14

    def test_one_basis_is_its_own_mean_with_zero_error(self):
        n = 3
        rng = np.random.default_rng(57)
        a = DensityMatrix.haar_random_pure(n, rng).entries
        b = DensityMatrix.haar_random_pure(n, rng).entries
        mean, err = _tv_raw(a, b, n, 1, np.random.default_rng(58), False)
        u = clifford_unitary(n, tuple(decompose_gates(random_clifford(n, np.random.default_rng(58)))))
        p, q_ = (((u @ m) * u.conj()).sum(1).real for m in (a, b))
        assert mean == 0.5 * float(np.abs(p - q_).sum()) > 0
        assert type(err) is float and err == 0.0

    def test_rescaled_white_noise_cancels_exactly(self):
        n, p = 2, 0.25
        rho = DensityMatrix.haar_random_pure(n, np.random.default_rng(16))
        noisy = apply_channel(rho, make_white_noise(n, p))
        pp = p * 4**n / (4**n - 1)
        r = 1 / (1 - pp)
        virtual = DensityMatrix(n, r * noisy.entries + (1 - r) * np.eye(2**n) / 2**n)
        assert trace_distance(rho, virtual) < 1e-12
        mean, _ = tv_distance_random_bases(rho, virtual, 4, np.random.default_rng(17))
        assert mean < 1e-12


# ---------------------------------------------------------------------------
# circuit simulation and the engine cross-check
# ---------------------------------------------------------------------------


class TestSimulatePair:
    def test_zero_noise_pair_matches(self):
        c = build_trotter_circuit(heisenberg_1d(3), 2, 0.23)
        rho = DensityMatrix.haar_random_pure(3, np.random.default_rng(18))
        ideal, noisy = simulate_pair(c, rho)
        assert np.allclose(ideal.entries, noisy.entries, atol=1e-12)

    def test_single_white_noise_layer(self):
        n, p = 2, 0.15
        c = LogicalCircuit(n, (NoiseLayer(make_white_noise(n, p)),))
        rho = DensityMatrix.haar_random_pure(n, np.random.default_rng(19))
        ideal, noisy = simulate_pair(c, rho)
        pp = p * 4**n / (4**n - 1)
        want = (1 - pp) * ideal.entries + pp * np.eye(2**n) / 2**n
        assert np.allclose(noisy.entries, want, atol=1e-12)

    def test_ideal_run_ignores_noise_settings(self):
        noise = rz_axis_noise(0.1, 0.05, 0.05)
        plain = build_trotter_circuit(heisenberg_1d(3), 1, 0.3)
        noisy_cfg = build_trotter_circuit(
            heisenberg_1d(3), 1, 0.3, base_noise=noise, twirl_mode="analytic_full"
        )
        rho = DensityMatrix.haar_random_pure(3, np.random.default_rng(20))
        assert np.allclose(
            simulate_pair(plain, rho)[0].entries,
            simulate_pair(noisy_cfg, rho)[0].entries,
            atol=1e-12,
        )

    def test_outputs_stay_valid(self):
        noise = rz_axis_noise(0.05, 0.03, 0.02)
        c = build_trotter_circuit(
            heisenberg_1d(3), 1, 0.4, base_noise=noise, twirl_mode="analytic_ksparse", k=2
        )
        rho = DensityMatrix.haar_random_pure(3, np.random.default_rng(21))
        ideal, noisy = simulate_pair(c, rho)
        ideal.validate()
        noisy.validate()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ideal_state_matches_reference_product(self, n):
        # the reference unitary is built from helpers.py alone; noise layers add nothing to it
        rng = np.random.default_rng(30 + n)
        noise = rz_axis_noise(0.02, 0.01, 0.03)
        for _ in range(3):
            layers, want = [], np.eye(2**n, dtype=complex)
            for kind in rng.integers(3, size=7):
                if kind == 0:
                    layers.append(CliffordLayer(random_clifford(n, rng)))
                    want = gates_to_dense(layers[-1].gates, n) @ want
                elif kind == 1:
                    axis = random_pauli(n, exclude_identity=True, rng=rng)
                    angle = float(rng.uniform(0, 2 * math.pi))
                    mode = ["none", "analytic_full", "full"][rng.integers(3)]
                    layers.append(RotationLayer(axis, angle, noise, mode))
                    want = (math.cos(angle) * np.eye(2**n) + 1j * math.sin(angle) * pauli_dense(axis)) @ want
                else:
                    layers.append(NoiseLayer(make_white_noise(n, 0.05)))
            rho = DensityMatrix.haar_random_pure(n, rng)
            ideal, _ = simulate_pair(LogicalCircuit(n, tuple(layers)), rho, rng=rng)
            assert np.abs(ideal.entries - want @ rho.entries @ want.conj().T).max() < 1e-12

    @pytest.mark.parametrize("seed, mode, k", [(40, "full", None), (41, "full", None), (42, "ksparse", 2)])
    def test_effective_fidelity_dense_reads_the_noisy_state(self, seed, mode, k):
        n = 3
        noise = rz_axis_noise(0.04, 0.03, 0.02)
        c = build_trotter_circuit(
            heisenberg_1d(n), 1, 0.3, base_noise=noise, twirl_mode=mode, k=k, gadget_noise_rate=0.02
        )
        p = random_pauli(n, exclude_identity=True, rng=np.random.default_rng(seed))
        u, p_mat = circuit_unitary(c), pauli_dense(p)
        rho = DensityMatrix(n, (np.eye(2**n) + u.conj().T @ p_mat @ u) / 2**n)
        _, noisy = simulate_pair(c, rho, 5, np.random.default_rng(seed))
        want = np.trace(p_mat @ noisy.entries).real
        assert abs(effective_fidelity_dense(c, p, 5, np.random.default_rng(seed)) - want) < 1e-12

    def test_drawn_gadgets_stay_out_of_the_unitary_memo(self):
        noise = rz_axis_noise(0.04, 0.03, 0.02)
        c = build_trotter_circuit(heisenberg_1d(3), 1, 0.3, base_noise=noise, twirl_mode="full")
        rho = DensityMatrix.haar_random_pure(3, np.random.default_rng(43))
        sizes = []
        for shots in (1, 20):
            _clifford_unitary_cached.cache_clear()
            simulate_pair(c, rho, shots, np.random.default_rng(44))
            sizes.append(_clifford_unitary_cached.cache_info().currsize)
        assert sizes[1] <= sizes[0]


def random_clifford_circuit(n, rng, rotations, mode=None, k=None):
    """Random alternation of Clifford layers and noisy π/4 rotations."""
    from twirlkit.tableau import decompose_gates

    layers = []
    for _ in range(rotations):
        op = random_clifford(n, rng)
        layers.append(CliffordLayer(op, tuple(decompose_gates(op))))
        axis = random_pauli(n, exclude_identity=True, rng=rng)
        rates = rng.dirichlet([1, 1, 1]) * rng.uniform(0.01, 0.15)
        pick = mode or ["none", "analytic_full", "analytic_ksparse"][rng.integers(3)]
        layers.append(
            RotationLayer(
                axis,
                math.pi / 4,
                rz_axis_noise(*rates),
                pick,
                2 if pick == "analytic_ksparse" else None,
            )
        )
    return LogicalCircuit(n, tuple(layers))


class TestEngineAgreement:
    def test_effective_fidelity_matches_dense_over_random_circuits(self):
        rng = np.random.default_rng(22)
        for trial in range(8):
            c = random_clifford_circuit(3, rng, rotations=4)
            for _ in range(4):
                obs = random_pauli(3, exclude_identity=True, rng=rng)
                fast, _ = effective_fidelity(c, obs, rng=rng)
                slow = effective_fidelity_dense(c, obs)
                assert abs(fast - slow) < 1e-10

    def test_structured_noise_layers_match_dense(self):
        # framed twirled channels held by bare noise layers, between Cliffords
        from twirlkit.tableau import decompose_gates
        from twirlkit.twirl import twirl_channel, twirl_channel_ksparse

        rng = np.random.default_rng(29)
        n = 4
        noise = PauliChannel(n, tuple((0.02 * (i + 1), point_ensemble(random_pauli(n, True, rng))) for i in range(3)))
        axis = parse_pauli("IYZX")
        channels = (
            twirl_channel(noise, SymmetrySpec.toffoli(n)),
            twirl_channel(noise, SymmetrySpec.pauli_rotation(axis)),
            twirl_channel_ksparse(make_single_qubit_pauli_noise(n, 0, 0.03, 0.02, 0.01), 2),
        )
        layers = []
        for ch in channels:
            op = random_clifford(n, rng)
            layers += [CliffordLayer(op, tuple(decompose_gates(op))), NoiseLayer(ch)]
        layers.append(RotationLayer(axis, math.pi / 4, rz_axis_noise(0.02, 0.01, 0.03), "analytic_full"))
        c = LogicalCircuit(n, tuple(layers))
        fidelities = []
        for _ in range(12):
            obs = random_pauli(n, exclude_identity=True, rng=rng)
            fast, _ = effective_fidelity(c, obs, rng=None)
            assert abs(fast - effective_fidelity_dense(c, obs)) < 1e-10
            fidelities.append(fast)
        assert len(set(np.round(fidelities, 9))) > 3

    def test_generic_angle_commuting_observable_agrees(self):
        layer = RotationLayer(parse_pauli("ZZI"), 0.3, rz_axis_noise(0.04, 0.03, 0.02))
        c = LogicalCircuit(3, (layer,))
        for obs in (parse_pauli("ZZI"), parse_pauli("ZZZ"), parse_pauli("IIZ")):
            fast, _ = effective_fidelity(c, obs, rng=None)
            slow = effective_fidelity_dense(c, obs)
            assert abs(fast - slow) < 1e-12

    def test_sampled_mode_agrees_statistically(self):
        rng = np.random.default_rng(23)
        noise = rz_axis_noise(0.06, 0.04, 0.0)
        c = build_trotter_circuit(
            heisenberg_1d(2), 1, 0.1, clifford_sim=True, base_noise=noise,
            twirl_mode="full", gadget_noise_rate=0.03,
        )
        obs = parse_pauli("XZ")
        slow = effective_fidelity_dense(c, obs, shots=2000, rng=np.random.default_rng(24))
        fast, err = effective_fidelity(c, obs, shots=2000, rng=rng)
        assert abs(fast - slow) < max(6 * err, 2e-2)


class TestGeneralNoiseTwirl:
    def test_coherent_part_passes_through_sampled_average(self):
        # Monte-Carlo superoperator average over gadget draws equals the
        # twirled Pauli part composed with the untouched coherent rotation.
        n = 2
        dim = 2**n
        pauli_part = make_single_qubit_pauli_noise(n, 0, 0.1, 0.05, 0.0)
        angle = 0.15
        twirled, angle_out = twirl_general_noise(pauli_part, angle, SymmetrySpec.rz_first_qubit(n))
        assert angle_out == angle

        from twirlkit.dense import _apply_channel_raw

        z0 = PauliOp(n, 0, 1)
        coh = math.cos(angle) * np.eye(dim) + 1j * math.sin(angle) * pauli_matrix(z0)

        def superop(apply_fn):
            cols = []
            for i in range(dim):
                for j in range(dim):
                    basis = np.zeros((dim, dim), dtype=complex)
                    basis[i, j] = 1.0
                    cols.append(apply_fn(basis).reshape(-1))
            return np.array(cols).T

        def noise_map(mat):
            return _apply_channel_raw(coh @ mat @ coh.conj().T, pauli_part)

        target = superop(lambda m: _apply_channel_raw(coh @ m @ coh.conj().T, twirled))

        # exact average over the full gadget distribution, then MC subsample
        rng = np.random.default_rng(25)
        acc = np.zeros((dim**2, dim**2), dtype=complex)
        draws = 200
        from twirlkit.twirl import sample_full_twirl_gate

        for _ in range(draws):
            g = sample_full_twirl_gate(n, rng)
            u = clifford_unitary(n, tuple(g.gates))
            conj = lambda m: u @ noise_map(u.conj().T @ m @ u) @ u.conj().T
            acc += superop(conj)
        assert np.abs(acc / draws - target).max() < 2e-2

    def test_exact_average_over_all_gadgets(self):
        n = 2
        dim = 2**n
        pauli_part = make_single_qubit_pauli_noise(n, 0, 0.07, 0.0, 0.03)
        angle = 0.4
        twirled, _ = twirl_general_noise(pauli_part, angle, SymmetrySpec.rz_first_qubit(n))

        from twirlkit.dense import _apply_channel_raw

        z0 = PauliOp(n, 0, 1)
        coh = math.cos(angle) * np.eye(dim) + 1j * math.sin(angle) * pauli_matrix(z0)

        def superop(apply_fn):
            cols = []
            for i in range(dim):
                for j in range(dim):
                    basis = np.zeros((dim, dim), dtype=complex)
                    basis[i, j] = 1.0
                    cols.append(apply_fn(basis).reshape(-1))
            return np.array(cols).T

        target = superop(lambda m: _apply_channel_raw(coh @ m @ coh.conj().T, twirled))
        acc = np.zeros((dim**2, dim**2), dtype=complex)
        for weight, g in enumerate_sampler_distribution(n, "full"):
            u = clifford_unitary(n, tuple(g.gates))
            fn = lambda m: u @ _apply_channel_raw(coh @ (u.conj().T @ m @ u) @ coh.conj().T, pauli_part) @ u.conj().T
            acc += float(weight) * superop(fn)
        assert np.abs(acc - target).max() < 1e-12


# ---------------------------------------------------------------------------
# distance trend scan
# ---------------------------------------------------------------------------


class TestDistanceScan:
    def test_zero_noise_rows_are_zero(self):
        rows = rescaled_distance_scan([2], [1, 2], 0.3, 0.0, 2, 2, np.random.default_rng(26))
        for row in rows:
            assert row["trace_distance"] < 1e-10
            assert row["tv_distance"] < 1e-10
            assert row["r"] == 1.0

    def test_row_fields_and_budget_split(self):
        rows = rescaled_distance_scan([3], [2], 0.25, 0.6, 1, 2, np.random.default_rng(27))
        row = rows[0]
        assert row["num_layers"] == 12
        assert row["p_err"] == pytest.approx(0.05)
        assert row["r"] > 1.0
        assert 0.0 <= row["tv_distance"] <= row["trace_distance"] + 1e-9

    def test_one_input_is_its_own_mean_with_zero_error(self):
        n, steps, theta, p_tot, num_bases = 3, 2, 0.25, 0.6, 2
        (row,) = rescaled_distance_scan([n], [steps], theta, p_tot, 1, num_bases, np.random.default_rng(29))
        model = heisenberg_1d(n)
        rates = _resolve_rates((1.0, 1.0, 1.0), p_tot, steps * len(model.trotter_terms))
        c = build_trotter_circuit(model, steps, theta, base_noise=rz_axis_noise(*rates), twirl_mode="analytic_full")
        rng = np.random.default_rng(29)
        ideal, noisy = simulate_pair(c, DensityMatrix.haar_random_pure(n, rng))
        combo = row["r"] * noisy.entries + (1 - row["r"]) * np.eye(2**n) / 2**n
        assert row["trace_distance"] == 0.5 * float(np.abs(np.linalg.eigvalsh(ideal.entries - combo)).sum()) > 0
        assert row["tv_distance"] == _tv_raw(ideal.entries, combo, n, num_bases, rng, False)[0] > 0
        assert row["trace_stderr"] == 0.0 and row["tv_stderr"] == 0.0
        assert type(row["trace_stderr"]) is float and type(row["tv_stderr"]) is float

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            rescaled_distance_scan([3], [0], 0.25, 0.6, 1, 2, np.random.default_rng(28))

    def test_unitary_built_once_per_circuit(self, monkeypatch):
        calls = []
        build, pair = dense.circuit_unitary, dense._simulate_pair
        monkeypatch.setattr(dense, "circuit_unitary", lambda c: calls.append((c.n, len(c.layers))) or build(c))
        args = ([3], [1, 2], 0.25, 0.6, 2, 2)
        rows = rescaled_distance_scan(*args, np.random.default_rng(30))
        assert calls == [(3, 6), (3, 12)]  # one per (n, T), not one per input
        # the unitary rebuilt for every input, as simulate_pair does, gives the same rows
        monkeypatch.setattr(dense, "_simulate_pair", lambda c, u, rho, shots, rng: pair(c, build(c), rho, shots, rng))
        assert rescaled_distance_scan(*args, np.random.default_rng(30)) == rows
