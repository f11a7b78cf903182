"""Circuit-engine tests: Trotter builders, the fidelity walk, and bounds.

The sampled twirl path is checked against an exact enumeration over every
two-qubit gadget, with the per-gadget factor recomputed independently by
tableau conjugation — so the packed-bit engine, the draw probabilities, and
the depolarizing-factor placements are each pinned by an oracle that shares
no code with the engine.
"""

import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from twirlkit import circuits
from twirlkit.channels import (
    fidelity_batch,
    make_single_qubit_pauli_noise,
    make_white_noise,
    pauli_fidelity,
    unitarity,
    avg_noise_strength,
)
from twirlkit.circuits import (
    CliffordLayer,
    LogicalCircuit,
    NoiseLayer,
    RotationLayer,
    average_bias,
    build_trotter_circuit,
    corollary_bound,
    effective_fidelity,
    effective_fidelity_batch,
    fermi_hubbard_2d,
    heisenberg_1d,
    heisenberg_2d,
    layer_noise_channel,
    optimal_rescale_coefficient,
    overhead_lower_bound,
    overhead_pec,
    overhead_rescaling,
    rz_axis_noise,
    tfim_2d,
    whitenoise_bias_bound,
)
from twirlkit.paulis import PauliOp, _columns, _unpack, _weight, format_pauli, parse_pauli, random_pauli, random_paulis, weight
from twirlkit.tableau import (
    _apply_gate,
    apply_gates,
    compose,
    conjugate,
    decompose_gates,
    from_gates,
    gate,
    inverse,
    random_clifford,
)
from twirlkit.twirl import (
    enumerate_sampler_distribution,
    gadget_width,
    sample_full_twirl_gate,
    sample_ksparse_twirl_gate,
    twirl_channel,
    twirl_channel_ksparse,
)
from twirlkit.twirl import SymmetrySpec


def frame_observable(layer, p):
    """The observable conjugated into the layer's rotation frame."""
    v = from_gates(layer.n, list(layer.frame_gates))
    return conjugate(v, p).unsigned()


def replay_gadgets(c, paulis, gadgets):
    """Reference walk: per-shot fidelities (shots, rows) with each shot's drawn gadgets
    replayed, inverted, gate by gate on its own copy of the framed columns.

    ``gadgets[s]`` holds shot s's ``TwirlGadget``s in walk order.  The engine
    applies the same gadgets as shot-segment masks; this is the per-shot gate
    replay it must reproduce bit for bit.
    """
    rows = len(paulis)
    out = np.ones((len(gadgets), rows))
    for lam, shot in zip(out, gadgets):
        xs, zs = _columns(paulis, c.n)
        drawn = iter(shot)
        for layer in reversed(c.layers):
            if isinstance(layer, CliffordLayer):
                for g in reversed(layer.gates):
                    _apply_gate(xs, zs, 0, g)
            elif isinstance(layer, NoiseLayer):
                lam *= fidelity_batch(layer.channel, xs, zs, rows)
            elif not layer.is_sampled:
                circuits._rotation_step(layer, xs, zs, rows, lam[None], None)
            else:
                gadget, n = next(drawn), layer.n
                fx, fz = list(xs), list(zs)
                for g in layer.frame_gates:
                    _apply_gate(fx, fz, 0, g)
                gx, gz = list(fx), list(fz)
                for g in reversed(gadget.gates):
                    _apply_gate(gx, gz, 0, g)
                support = sorted(gadget.support)
                before = _unpack([fx[q] | fz[q] for q in support], rows).sum(axis=0, dtype=np.int64)
                after = _unpack([gx[q] | gz[q] for q in support], rows).sum(axis=0, dtype=np.int64)
                x0, z0 = _unpack([gx[0], gz[0]], rows)
                factor = 1 - 4 * layer.gadget_noise_rate / 3
                lam *= factor**before
                lam *= circuits._fidelity_table(n, layer.rates, layer.twirl_mode, layer.k)[x0 + 2 * z0]
                lam *= factor**after
                assert layer.rotation_kind in ("quarter", "noop")
                anti, axis = fx[0] if layer.rotation_kind == "quarter" else 0, layer.axis
                for q in range(n):
                    xs[q] ^= anti if axis.x >> q & 1 else 0
                    zs[q] ^= anti if axis.z >> q & 1 else 0
        assert next(drawn, None) is None
    return out


def uncut_fidelity_table(n, rates, mode, k):
    """(4, n) frame fidelities by letter x0 + 2·z0 and weight on qubits 1..n−1, every column kept."""
    probes = [PauliOp(n, (letter & 1) | ((1 << w) - 1) << 1, letter >> 1) for letter in range(4) for w in range(n)]
    return fidelity_batch(circuits._frame_channel(n, rates, mode, k), *_columns(probes, n), len(probes)).reshape(4, n)


def walk_by_weight(c, paulis):
    """Reference deterministic walk: each rotation layer's fidelity is read
    from its uncut table by the weight on qubits 1..n−1."""
    rows = len(paulis)
    xs, zs = _columns(paulis, c.n)
    lam = np.ones(rows)
    for layer in reversed(c.layers):
        if isinstance(layer, CliffordLayer):
            for g in reversed(layer.gates):
                _apply_gate(xs, zs, 0, g)
        elif isinstance(layer, NoiseLayer):
            lam *= fidelity_batch(layer.channel, xs, zs, rows)
        else:
            n, axis = layer.n, layer.axis
            fx, fz = list(xs), list(zs)
            for g in layer.frame_gates:
                _apply_gate(fx, fz, 0, g)
            x0, z0 = _unpack([fx[0], fz[0]], rows)
            table = uncut_fidelity_table(n, layer.rates, layer.twirl_mode, layer.k)
            lam *= table[x0 + 2 * z0, _weight(fx, fz, range(1, n), rows)]
            anti = fx[0] if layer.rotation_kind == "quarter" else 0
            for q in range(n):
                xs[q] ^= anti if axis.x >> q & 1 else 0
                zs[q] ^= anti if axis.z >> q & 1 else 0
    return lam


# ---------------------------------------------------------------------------
# Trotter builders
# ---------------------------------------------------------------------------


class TestTrotterBuilders:
    def test_heisenberg_1d_term_count(self):
        c = build_trotter_circuit(heisenberg_1d(4), 1, 0.1)
        assert c.num_rotation_layers == 9
        assert c.n == 4

    def test_heisenberg_2d_layer_count(self):
        c = build_trotter_circuit(heisenberg_2d(2, 2), 100, 0.05)
        assert c.num_rotation_layers == 1200

    def test_clifford_sim_fixes_angles(self):
        c = build_trotter_circuit(heisenberg_2d(2, 2), 2, 0.37, clifford_sim=True)
        assert all(layer.angle == math.pi / 4 for layer in c.layers)

    def test_heisenberg_axes_grouped_by_bond(self):
        terms = heisenberg_2d(2, 2).trotter_terms
        labels = [format_pauli(axis) for axis, _ in terms]
        # each bond contributes its XX, YY, ZZ rotations back to back
        assert labels[0::3] == ["XXII", "IIXX", "XIXI", "IXIX"]
        assert [l.replace("Y", "X") for l in labels[1::3]] == labels[0::3]
        assert [l.replace("Z", "X") for l in labels[2::3]] == labels[0::3]
        assert all(weight(axis) == 2 for axis, _ in terms)

    def test_heisenberg_couplings(self):
        terms = heisenberg_1d(3, j=0.7).trotter_terms
        assert [coup for _, coup in terms] == [0.7] * 6
        angle = build_trotter_circuit(heisenberg_1d(3, j=0.7), 1, 0.1).layers[0].angle
        assert angle == pytest.approx(0.07)

    def test_tfim_terms(self):
        terms = tfim_2d(2, 2, h=0.5, j=2.0).trotter_terms
        assert len(terms) == 8
        zz = terms[:4]
        singles = terms[4:]
        assert all(format_pauli(a).count("Z") == 2 and coup == 2.0 for a, coup in zz)
        assert all(format_pauli(a).count("X") == 1 and weight(a) == 1 for a, _ in singles)
        assert all(coup == 0.5 for _, coup in singles)

    def test_fermi_hubbard_ladder_terms(self):
        model = fermi_hubbard_2d(2, 1, t_hop=1.0, u_int=4.0)
        assert model.n_qubits == 4
        terms = model.trotter_terms
        # 2 hops × 2 letters + 1 on-site ZZ per site (2) + 4 single-Z terms
        assert len(terms) == 10
        labels = [format_pauli(a) for a, _ in terms]
        assert labels[0] == "XZXI" and labels[1] == "IXZX"
        assert labels[2] == "YZYI"
        assert labels[4] == "ZZII" and labels[5] == "IIZZ"
        hop_coups = [c for _, c in terms[:4]]
        assert hop_coups == [-0.5] * 4
        assert [c for _, c in terms[4:6]] == [1.0, 1.0]
        assert [c for _, c in terms[6:]] == [-1.0] * 4

    def test_fermi_hubbard_grid_count(self):
        model = fermi_hubbard_2d(2, 2)
        assert model.n_qubits == 8
        # 4 site bonds → 8 hops → 16 strings, + 4 ZZ + 8 singles
        assert len(model.trotter_terms) == 28

    def test_fermi_hubbard_snake_keeps_vertical_strings_contiguous(self):
        # On a 2×2 snake the vertical site bonds are adjacent in mode order,
        # so every hopping string is an unbroken X/Y–Z…Z–X/Y segment.
        for axis, _ in fermi_hubbard_2d(2, 2).trotter_terms[:16]:
            label = format_pauli(axis).strip("I")
            assert set(label[1:-1]) <= {"Z"} and label[0] == label[-1]

    def test_chain_is_the_one_row_grid(self):
        assert heisenberg_1d(4, j=0.3) == heisenberg_2d(4, 1, j=0.3)
        assert heisenberg_1d(4).n_qubits == 4

    def test_model_without_terms_is_rejected(self):
        for build in (lambda: heisenberg_1d(1), lambda: heisenberg_2d(1, 1), lambda: fermi_hubbard_2d(0, 2)):
            with pytest.raises(ValueError):
                build()

    def test_trotter_applies_noise_settings(self):
        noise = rz_axis_noise(0.01, 0.0, 0.02)
        c = build_trotter_circuit(
            heisenberg_1d(3), 1, 0.1, base_noise=noise, twirl_mode="analytic_ksparse", k=2
        )
        assert all(layer.base_noise == noise and layer.k == 2 for layer in c.layers)

    def test_bad_steps(self):
        with pytest.raises(ValueError):
            build_trotter_circuit(heisenberg_1d(3), 0, 0.1)


# ---------------------------------------------------------------------------
# layer and circuit validation
# ---------------------------------------------------------------------------


class TestLayerValidation:
    def test_axis_must_be_plain(self):
        with pytest.raises(ValueError):
            RotationLayer(parse_pauli("III"), 0.1, rz_axis_noise(0, 0, 0))
        with pytest.raises(ValueError):
            RotationLayer(parse_pauli("ZZ").with_phase(2), 0.1, rz_axis_noise(0, 0, 0))

    def test_mode_and_k_validation(self):
        axis = parse_pauli("ZZ")
        with pytest.raises(ValueError):
            RotationLayer(axis, 0.1, rz_axis_noise(0, 0, 0), "sideways")
        with pytest.raises(ValueError):
            RotationLayer(axis, 0.1, rz_axis_noise(0, 0, 0), "ksparse")
        with pytest.raises(ValueError):
            RotationLayer(axis, 0.1, rz_axis_noise(0, 0, 0), "none", k=2)
        with pytest.raises(ValueError):
            RotationLayer(axis, 0.1, rz_axis_noise(0, 0, 0), "analytic_full", gadget_noise_rate=0.1)
        with pytest.raises(ValueError, match="sampled twirl mode"):
            RotationLayer(axis, 0.1, rz_axis_noise(0, 0, 0), "none", gadget_noise_rate=0.1)

    def test_noise_must_be_single_qubit_points(self):
        with pytest.raises(ValueError):
            RotationLayer(parse_pauli("ZZ"), 0.1, make_white_noise(2, 0.1))
        with pytest.raises(ValueError):
            RotationLayer(parse_pauli("ZZ"), 0.1, make_single_qubit_pauli_noise(2, 0, 0.1, 0, 0))

    def test_rotation_kind(self):
        mk = lambda a: RotationLayer(parse_pauli("X"), a, rz_axis_noise(0, 0, 0)).rotation_kind
        assert mk(0.0) == "noop"
        assert mk(math.pi / 2) == "noop"
        assert mk(math.pi) == "noop"
        assert mk(math.pi / 4) == "quarter"
        assert mk(3 * math.pi / 4) == "quarter"
        assert mk(-math.pi / 4) == "quarter"
        assert mk(0.3) == "generic"

    def test_attributes_set_at_construction(self):
        layer = RotationLayer(parse_pauli("XZY"), math.pi / 4, rz_axis_noise(0.02, 0.01, 0.0), "analytic_full")
        names = ("rates", "is_sampled", "gadget_width", "rotation_kind")
        assert {name: vars(layer)[name] for name in names} == {
            "rates": (0.02, 0.01, 0.0), "is_sampled": False, "gadget_width": 0, "rotation_kind": "quarter"
        }
        assert dataclasses.replace(layer, angle=0.0).rotation_kind == "noop"
        assert dataclasses.replace(layer, angle=0.3).rotation_kind == "generic"
        assert dataclasses.replace(layer, base_noise=rz_axis_noise(0.1, 0, 0)).rates == (0.1, 0.0, 0.0)
        sampled = dataclasses.replace(layer, twirl_mode="full")
        assert sampled.is_sampled and sampled.gadget_width == gadget_width(3, "full") > 0
        assert sampled.rotation_kind == "quarter" and sampled.rates == layer.rates
        # the attributes are not fields: equal layers compare and hash equal
        twin = RotationLayer(parse_pauli("XZY"), math.pi / 4, rz_axis_noise(0.02, 0.01, 0.0), "analytic_full")
        assert twin == layer and hash(twin) == hash(layer) and twin != sampled
        assert len({layer, twin, sampled}) == 2
        for original in (layer, sampled):
            copy = pickle.loads(pickle.dumps(original))
            assert copy == original and hash(copy) == hash(original)
            assert [getattr(copy, name) for name in names] == [getattr(original, name) for name in names]

    def test_circuit_dimension_check(self):
        with pytest.raises(ValueError):
            LogicalCircuit(3, (NoiseLayer(make_white_noise(2, 0.1)),))

    def test_clifford_layer_gates_must_stay_in_register(self):
        # The engine runs only the gates: CNOT(0, 5) on 3 qubits would move
        # XII's fidelity after a rotation about ZZI and index past XIX's words.
        gates = (gate("CNOT", 0, 1), gate("CNOT", 0, 5))
        with pytest.raises(ValueError, match="qubit"):
            CliffordLayer(from_gates(3, gates[:1]), gates)

    def test_clifford_layer_gates_must_generate_op(self):
        # The engine and the dense oracle run only the gates, so a mismatch would run silently.
        with pytest.raises(ValueError, match="generate"):
            CliffordLayer(from_gates(2, [gate("H", 0)]), (gate("S", 1),))
        # X·Z·X = −Z: the same bits as H alone, with the other sign
        with pytest.raises(ValueError, match="generate"):
            CliffordLayer(from_gates(2, [gate("H", 0)]), (gate("H", 0), gate("X", 0)))


# ---------------------------------------------------------------------------
# the deterministic walk
# ---------------------------------------------------------------------------


class TestDeterministicWalk:
    def test_white_noise_product_form(self):
        n, layers, p = 3, 7, 0.013
        c = LogicalCircuit(n, tuple(NoiseLayer(make_white_noise(n, p)) for _ in range(layers)))
        rng = np.random.default_rng(5)
        expected = (1 - p * 4**n / (4**n - 1)) ** layers
        for _ in range(10):
            obs = random_pauli(n, exclude_identity=True, rng=rng)
            mean, err = effective_fidelity(c, obs, rng=rng)
            assert err == 0.0
            assert mean == pytest.approx(expected, abs=1e-14)

    def test_single_layer_matches_channel_fidelity(self):
        rng = np.random.default_rng(6)
        layer = RotationLayer(parse_pauli("XYI"), math.pi / 4, rz_axis_noise(0.05, 0.02, 0.03))
        c = LogicalCircuit(3, (layer,))
        ch = layer_noise_channel(layer)
        for _ in range(20):
            obs = random_pauli(3, exclude_identity=True, rng=rng)
            got, _ = effective_fidelity(c, obs, rng=rng)
            assert got == pytest.approx(pauli_fidelity(ch, frame_observable(layer, obs)), abs=1e-14)

    @pytest.mark.parametrize("mode,k", [("analytic_full", None), ("analytic_ksparse", 2)])
    def test_analytic_single_layer_matches_twirled_channel(self, mode, k):
        rng = np.random.default_rng(7)
        noise = rz_axis_noise(0.04, 0.02, 0.015)
        for axis_str in ("ZIII", "XXII", "YZXI", "ZZZZ"):
            layer = RotationLayer(parse_pauli(axis_str), math.pi / 4, noise, mode, k)
            c = LogicalCircuit(4, (layer,))
            base = make_single_qubit_pauli_noise(4, 0, 0.04, 0.02, 0.015)
            if mode == "analytic_full":
                twirled = twirl_channel(base, SymmetrySpec.rz_first_qubit(4))
            else:
                twirled = twirl_channel_ksparse(base, k)
            for _ in range(12):
                obs = random_pauli(4, exclude_identity=True, rng=rng)
                got, _ = effective_fidelity(c, obs, rng=rng)
                want = pauli_fidelity(twirled, frame_observable(layer, obs))
                assert got == pytest.approx(want, abs=1e-13)

    def test_z_noise_unaffected_by_analytic_twirl(self):
        rng = np.random.default_rng(8)
        noise = rz_axis_noise(0.0, 0.0, 0.08)
        for mode, k in (("analytic_full", None), ("analytic_ksparse", 3)):
            plain = build_trotter_circuit(heisenberg_1d(4), 2, 0.1, clifford_sim=True, base_noise=noise)
            twirled = build_trotter_circuit(
                heisenberg_1d(4), 2, 0.1, clifford_sim=True, base_noise=noise, twirl_mode=mode, k=k
            )
            for _ in range(8):
                obs = random_pauli(4, exclude_identity=True, rng=rng)
                assert effective_fidelity(plain, obs, rng=rng)[0] == pytest.approx(
                    effective_fidelity(twirled, obs, rng=rng)[0], abs=1e-14
                )

    def test_multiplicativity_across_concatenation(self):
        rng = np.random.default_rng(9)
        noise = rz_axis_noise(0.03, 0.01, 0.02)
        first = build_trotter_circuit(heisenberg_1d(4), 1, 0.1, clifford_sim=True, base_noise=noise)
        tail_layer = RotationLayer(parse_pauli("IXXI"), math.pi / 4, noise, "analytic_full")
        tail = LogicalCircuit(4, (tail_layer,))
        joined = LogicalCircuit(4, first.layers + tail.layers)
        # ideal Clifford of the tail rotation: V† S₀ V up to sign
        v = from_gates(4, list(tail_layer.frame_gates))
        u_rot = compose(inverse(v), compose(from_gates(4, [gate("S", 0)]), v))
        for _ in range(10):
            obs = random_pauli(4, exclude_identity=True, rng=rng)
            back = conjugate(inverse(u_rot), obs).unsigned()
            whole, _ = effective_fidelity(joined, obs, rng=rng)
            part_tail, _ = effective_fidelity(tail, obs, rng=rng)
            part_first, _ = effective_fidelity(first, back, rng=rng)
            assert whole == pytest.approx(part_tail * part_first, abs=1e-14)

    def test_clifford_layer_gates_and_op_paths_agree(self):
        rng = np.random.default_rng(10)
        n = 5
        gates = []
        for _ in range(12):
            pick = rng.integers(5)
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(
                [gate("H", a), gate("S", a), gate("CNOT", a, b), gate("CZ", a, b), gate("SWAP", a, b)][pick]
            )
        op = from_gates(n, gates)
        noise = NoiseLayer(make_single_qubit_pauli_noise(n, 2, 0.05, 0.0, 0.1))
        c_gates = LogicalCircuit(n, (noise, CliffordLayer(op, tuple(gates)), noise))
        c_op = LogicalCircuit(n, (noise, CliffordLayer(op), noise))
        for _ in range(15):
            obs = random_pauli(n, exclude_identity=True, rng=rng)
            assert effective_fidelity(c_gates, obs, rng=rng)[0] == pytest.approx(
                effective_fidelity(c_op, obs, rng=rng)[0], abs=1e-15
            )

    def test_clifford_layer_without_gates_synthesizes_them(self):
        rng = np.random.default_rng(12)
        for n in (1, 3, 5):
            op = random_clifford(n, rng)
            layer = CliffordLayer(op)
            assert layer.gates == tuple(decompose_gates(op))
            assert from_gates(n, layer.gates) == op
        gates = (gate("H", 0), gate("CNOT", 0, 1))
        assert CliffordLayer(from_gates(2, gates), gates).gates is gates

    def test_frame_independence_of_bias(self):
        rng = np.random.default_rng(11)
        noise = rz_axis_noise(0.02, 0.02, 0.01)
        base = build_trotter_circuit(
            heisenberg_1d(3), 1, 0.1, clifford_sim=True, base_noise=noise, twirl_mode="analytic_full"
        )
        c_op = random_clifford(3, rng)
        wrapped_layers = (
            base.layers[:4]
            + (CliffordLayer(c_op), CliffordLayer(inverse(c_op)))
            + base.layers[4:]
        )
        wrapped = LogicalCircuit(3, wrapped_layers)
        bias_a = average_bias(base, 40, rng=np.random.default_rng(77))
        bias_b = average_bias(wrapped, 40, rng=np.random.default_rng(77))
        assert bias_a == bias_b

    def test_generic_angle_commuting_observable_ok(self):
        layer = RotationLayer(parse_pauli("ZZI"), 0.3, rz_axis_noise(0.02, 0.03, 0.01))
        c = LogicalCircuit(3, (layer,))
        got, _ = effective_fidelity(c, parse_pauli("ZZI"), rng=None)
        assert got == pytest.approx(1 - 2 * (0.02 + 0.03), abs=1e-14)

    def test_generic_angle_anticommuting_observable_unsupported(self):
        layer = RotationLayer(parse_pauli("ZZI"), 0.3, rz_axis_noise(0.02, 0.03, 0.01))
        c = LogicalCircuit(3, (layer,))
        with pytest.raises(ValueError, match="non-Clifford"):
            effective_fidelity(c, parse_pauli("XII"), rng=None)

    def test_multiword_observables(self):
        # spans two 64-bit words
        n = 70
        x = z = 0
        for q in (63, 64, 65):
            z |= 1 << q
        axis = PauliOp(n, 0, z)
        layer = RotationLayer(axis, math.pi / 4, rz_axis_noise(0.03, 0.02, 0.04), "analytic_full")
        c = LogicalCircuit(n, (layer,))
        rng = np.random.default_rng(12)
        base = make_single_qubit_pauli_noise(n, 0, 0.03, 0.02, 0.04)
        twirled = twirl_channel(base, SymmetrySpec.rz_first_qubit(n))
        for _ in range(6):
            obs = random_pauli(n, exclude_identity=True, rng=rng)
            got, _ = effective_fidelity(c, obs, rng=rng)
            assert got == pytest.approx(pauli_fidelity(twirled, frame_observable(layer, obs)), abs=1e-12)

    def test_observable_validation(self):
        c = LogicalCircuit(2, (NoiseLayer(make_white_noise(2, 0.1)),))
        with pytest.raises(ValueError):
            effective_fidelity(c, parse_pauli("II"), rng=None)
        with pytest.raises(ValueError):
            effective_fidelity(c, parse_pauli("XXX"), rng=None)

    def test_fidelity_table_cuts(self):
        """Bare noise reads the letter alone, the full twirl two columns (acts
        on qubits 1..n−1 or not), the k-sparse twirl every weight; each cut
        keeps the uncut table's doubles."""
        rates = (0.02, 0.01, 0.005)
        cases = [(5, "none", None, 1), (5, "analytic_ksparse", 1, 1)]
        cases += [(n, "analytic_full", None, 2) for n in (2, 5, 9)]
        cases += [(n, "analytic_ksparse", k, n) for n in (3, 5, 9) for k in range(2, n)]
        for n, mode, k, columns in cases:
            table, uncut = circuits._fidelity_table(n, rates, mode, k), uncut_fidelity_table(n, rates, mode, k)
            assert table.shape == ((4,) if columns == 1 else (4, columns))
            read = table.reshape(4, columns)[:, np.minimum(np.arange(n), columns - 1)]
            assert np.array_equal(read, uncut)
        assert circuits._fidelity_table(5, rates, "full", None).shape == (4,)  # sampled: bare noise

    @pytest.mark.parametrize(
        "mode,k", [("none", None), ("analytic_full", None), ("analytic_ksparse", 2), ("analytic_ksparse", 3)]
    )
    def test_cut_tables_walk_as_the_uncut_tables(self, mode, k):
        noise = rz_axis_noise(0.02, 0.01, 0.005)
        rng = np.random.default_rng(41)
        for model in (heisenberg_1d(2), fermi_hubbard_2d(2, 1), tfim_2d(2, 3), heisenberg_2d(3, 3)):
            if k is not None and k > model.n_qubits:
                continue
            trotter = build_trotter_circuit(model, 2, 0.1, clifford_sim=True, base_noise=noise, twirl_mode=mode, k=k)
            n = trotter.n
            noop = RotationLayer(PauliOp(n, 0, 1 << n - 1), 0.0, noise, mode, k)
            clifford = CliffordLayer(random_clifford(n, rng))
            c = LogicalCircuit(n, (clifford, *trotter.layers[:5], noop, *trotter.layers[5:], clifford))
            paulis = random_paulis(n, 70, exclude_identity=True, rng=rng)
            got = circuits._walk(c, *_columns(paulis, n), len(paulis), np.empty((1, 0)))[0]
            assert np.array_equal(got, walk_by_weight(c, paulis))

    def test_frames_built_once_per_axis(self, monkeypatch):
        # The memos are found the way a caller that clears every module-level
        # memo finds them: by their ``cache_clear``.
        memos = [obj for obj in vars(circuits).values() if callable(getattr(obj, "cache_clear", None))]
        for memo in memos:
            memo.cache_clear()
        calls = []
        original = circuits.clifford_mapping_z0_to

        def counted(axis):
            calls.append(axis)
            return original(axis)

        monkeypatch.setattr(circuits, "clifford_mapping_z0_to", counted)
        noise = rz_axis_noise(0.02, 0.01, 0.0)
        rng = np.random.default_rng(31)
        paulis = [random_pauli(9, exclude_identity=True, rng=rng) for _ in range(20)]
        for mode, k in (("none", None), ("analytic_full", None), ("analytic_ksparse", 2)):
            c = build_trotter_circuit(
                heisenberg_2d(3, 3), 2, 0.1, clifford_sim=True, base_noise=noise, twirl_mode=mode, k=k
            )
            warm, _ = effective_fidelity_batch(c, paulis)
        assert len(calls) == 36 == len(set(calls))
        for memo in memos:
            memo.cache_clear()
        cold, _ = effective_fidelity_batch(c, paulis)
        assert len(calls) == 72
        assert np.array_equal(cold, warm)

    @pytest.mark.parametrize(
        "mode,k",
        [("none", None), ("analytic_full", None), ("analytic_ksparse", 2), ("full", None), ("ksparse", 2)],
    )
    def test_each_layer_replays_its_gates_once(self, monkeypatch, mode, k):
        sampled = mode in ("full", "ksparse")
        trotter = build_trotter_circuit(
            heisenberg_2d(3, 3), 1, 0.1, clifford_sim=True, base_noise=rz_axis_noise(0.02, 0.01, 0.0),
            twirl_mode=mode, k=k, gadget_noise_rate=0.05 if sampled else 0.0,
        )
        rng = np.random.default_rng(17)
        clifford = CliffordLayer(random_clifford(9, rng))
        c = LogicalCircuit(9, (clifford, *trotter.layers, clifford))
        applied, gadgets, decoded = [], [], []
        apply_gate, decode = circuits._apply_gate, circuits.decode_gadgets

        def counted_apply(xs, zs, sign, g):
            applied.append(g)
            return apply_gate(xs, zs, sign, g)

        def recorded(sampler):
            def draw(*args):
                gadgets.append(sampler(*args))
                return gadgets[-1]

            return draw

        def counted_decode(n, mode, k, u):
            decoded.append(u.shape)
            return decode(n, mode, k, u)

        monkeypatch.setattr(circuits, "_apply_gate", counted_apply)
        monkeypatch.setattr(circuits, "decode_gadgets", counted_decode)
        for name in ("sample_full_twirl_gate", "sample_ksparse_twirl_gate"):
            monkeypatch.setattr(circuits, name, recorded(getattr(circuits, name)))
        paulis = [random_pauli(9, exclude_identity=True, rng=rng) for _ in range(10)]
        shots = 3
        effective_fidelity_batch(c, paulis, shots, rng)
        # the three shots walk as one chunk: frames and Clifford layers replay
        # once, one decoder call reads every gadget of the chunk, and no gadget
        # is drawn as gates or replayed gate by gate
        per_pass = sum(len(layer.frame_gates) for layer in c.rotation_layers()) + 2 * len(clifford.gates)
        assert gadgets == []
        assert decoded == ([(shots, len(trotter.layers), trotter.layers[0].gadget_width)] if sampled else [])
        assert len(applied) == per_pass


# ---------------------------------------------------------------------------
# sampled twirl modes
# ---------------------------------------------------------------------------


def enumerated_sampled_fidelity(layer, obs, p_d):
    """Exact mean fidelity over every gadget draw, via tableau conjugation."""
    px, py, pz = layer.rates
    letter_fid = {"I": 1.0, "X": 1 - 2 * (py + pz), "Y": 1 - 2 * (px + pz), "Z": 1 - 2 * (px + py)}
    q1 = frame_observable(layer, obs)
    mode = "full" if layer.twirl_mode == "full" else "ksparse"
    total = Fraction(0)
    value = 0.0
    for prob, gadget in enumerate_sampler_distribution(layer.n, mode, layer.k):
        d = from_gates(layer.n, list(gadget.gates))
        dep2 = sum(1 for q in gadget.support if q1.letter_at(q) != "I")
        q2 = conjugate(inverse(d), q1).unsigned()
        lam = letter_fid[q2.letter_at(0)]
        q3 = apply_gates(q2, [gate("S", 0)]).unsigned() if q2.letter_at(0) in "XY" else q2
        dep1 = sum(1 for q in gadget.support if q3.letter_at(q) != "I")
        value += float(prob) * (1 - 4 * p_d / 3) ** (dep2 + dep1) * lam
        total += prob
    assert total == 1
    return value


class TestSampledTwirl:
    def test_full_sampled_matches_exact_enumeration_with_gadget_noise(self):
        rng = np.random.default_rng(13)
        layer = RotationLayer(
            parse_pauli("YX"), math.pi / 4, rz_axis_noise(0.06, 0.03, 0.02), "full",
            gadget_noise_rate=0.05,
        )
        c = LogicalCircuit(2, (layer,))
        for obs_str in ("XI", "ZY", "IZ", "YY"):
            obs = parse_pauli(obs_str)
            exact = enumerated_sampled_fidelity(layer, obs, 0.05)
            mean, err = effective_fidelity(c, obs, shots=4000, rng=rng)
            assert abs(mean - exact) < max(4 * err, 5e-3)

    def test_ksparse_sampled_matches_exact_enumeration(self):
        rng = np.random.default_rng(14)
        layer = RotationLayer(
            parse_pauli("XYZ"), math.pi / 4, rz_axis_noise(0.05, 0.05, 0.0), "ksparse", k=2,
            gadget_noise_rate=0.08,
        )
        c = LogicalCircuit(3, (layer,))
        for obs_str in ("XII", "IZZ", "ZXY"):
            obs = parse_pauli(obs_str)
            exact = enumerated_sampled_fidelity(layer, obs, 0.08)
            mean, err = effective_fidelity(c, obs, shots=4000, rng=rng)
            assert abs(mean - exact) < max(4 * err, 5e-3)

    @pytest.mark.parametrize("mode,k", [("full", None), ("ksparse", 2)])
    def test_sampled_converges_to_analytic_without_gadget_noise(self, mode, k):
        rng = np.random.default_rng(15)
        noise = rz_axis_noise(0.04, 0.02, 0.01)
        sampled = build_trotter_circuit(
            heisenberg_1d(3), 1, 0.1, clifford_sim=True, base_noise=noise, twirl_mode=mode, k=k
        )
        analytic = build_trotter_circuit(
            heisenberg_1d(3), 1, 0.1, clifford_sim=True, base_noise=noise,
            twirl_mode="analytic_" + mode, k=k,
        )
        obs = [random_pauli(3, exclude_identity=True, rng=rng) for _ in range(6)]
        means, errs = effective_fidelity_batch(sampled, obs, shots=1500, rng=rng)
        exact, _ = effective_fidelity_batch(analytic, obs, rng=rng)
        for m, e, x in zip(means, errs, exact):
            assert abs(m - x) < max(3 * e, 1e-3)

    @pytest.mark.parametrize("mode,k", [("full", None), ("ksparse", 2)])
    def test_clean_sampled_mean_within_four_errors_of_analytic(self, mode, k):
        rng = np.random.default_rng(23)
        noise = rz_axis_noise(0.03, 0.02, 0.01)
        model = heisenberg_2d(2, 2)
        sampled = build_trotter_circuit(model, 2, 0.1, clifford_sim=True, base_noise=noise, twirl_mode=mode, k=k)
        analytic = build_trotter_circuit(
            model, 2, 0.1, clifford_sim=True, base_noise=noise, twirl_mode="analytic_" + mode, k=k
        )
        obs = random_paulis(4, 30, exclude_identity=True, rng=rng)
        means, errs = effective_fidelity_batch(sampled, obs, shots=2000, rng=rng)
        exact, _ = effective_fidelity_batch(analytic, obs)
        assert errs.max() > 0
        assert (np.abs(means - exact) <= 4 * errs + 1e-12).all()

    def test_pure_z_noise_sampled_is_deterministic(self):
        # Z-axis errors commute with every gadget, so all draws agree.
        rng = np.random.default_rng(16)
        noise = rz_axis_noise(0.0, 0.0, 0.07)
        c = build_trotter_circuit(
            heisenberg_1d(3), 1, 0.1, clifford_sim=True, base_noise=noise, twirl_mode="full"
        )
        plain = build_trotter_circuit(heisenberg_1d(3), 1, 0.1, clifford_sim=True, base_noise=noise)
        for _ in range(6):
            obs = random_pauli(3, exclude_identity=True, rng=rng)
            mean, err = effective_fidelity(c, obs, shots=40, rng=rng)
            assert err < 1e-15
            assert mean == pytest.approx(effective_fidelity(plain, obs, rng=rng)[0], abs=1e-13)

    def test_gadget_noise_lowers_fidelity(self):
        rng = np.random.default_rng(17)
        noise = rz_axis_noise(0.02, 0.02, 0.0)
        mk = lambda p_d: build_trotter_circuit(
            heisenberg_1d(3), 1, 0.1, clifford_sim=True, base_noise=noise,
            twirl_mode="full", gadget_noise_rate=p_d,
        )
        obs = parse_pauli("ZZI")
        clean, _ = effective_fidelity(mk(0.0), obs, shots=800, rng=rng)
        noisy, err = effective_fidelity(mk(0.05), obs, shots=800, rng=rng)
        assert noisy < clean - 3 * err

    @pytest.mark.parametrize("mode,k", [("full", None), ("ksparse", 2)])
    def test_chunked_shots_equal_single_shots(self, mode, k):
        n = 5
        rng = np.random.default_rng(21)
        trotter = build_trotter_circuit(
            heisenberg_1d(n), 2, 0.1, clifford_sim=True, base_noise=rz_axis_noise(0.02, 0.01, 0.005),
            twirl_mode=mode, k=k, gadget_noise_rate=0.04,
        )
        clifford = CliffordLayer(random_clifford(n, rng))
        noise = NoiseLayer(make_single_qubit_pauli_noise(n, 2, 0.01, 0.0, 0.02))
        c = LogicalCircuit(n, (clifford, *trotter.layers[:3], noise, clifford, *trotter.layers[3:], noise))
        rows = circuits._CHUNK // 3  # three shots per chunk
        paulis = [random_pauli(n, exclude_identity=True, rng=rng) for _ in range(rows)]
        shots = 2 * (circuits._CHUNK // rows) + 1  # three chunks, the last one short
        mean, stderr = effective_fidelity_batch(c, paulis, shots, np.random.default_rng(5))
        one_rng = np.random.default_rng(5)
        samples = np.array([effective_fidelity_batch(c, paulis, 1, one_rng)[0] for _ in range(shots)])
        assert np.array_equal(mean, samples.mean(axis=0))
        assert np.array_equal(stderr, samples.std(axis=0, ddof=1) / math.sqrt(shots))
        assert stderr.max() > 0
        assert [a.shape for a in effective_fidelity_batch(c, [], shots, one_rng)] == [(0,), (0,)]

    @pytest.mark.parametrize(
        "n, mode, k",
        [(1, "full", None), (1, "ksparse", 1)]
        + [(n, "full", None) for n in range(2, 7)]
        + [(n, "ksparse", k) for n in range(2, 7) for k in sorted({1, 2, n})],
    )
    def test_mask_walk_equals_gate_replay(self, n, mode, k):
        """The engine's segment masks give the per-shot gate replay's fidelities bit for bit."""
        rng = np.random.default_rng(100 + 10 * n + (k or 0))
        noise = NoiseLayer(make_single_qubit_pauli_noise(n, n - 1, 0.01, 0.02, 0.005))
        for p_d in (0.0, 0.06):
            rotations = [
                RotationLayer(
                    random_pauli(n, exclude_identity=True, rng=rng), angle, rz_axis_noise(0.03, 0.01, 0.02),
                    mode, k, p_d,
                )
                for angle in (math.pi / 4, 0.0, math.pi / 4, 3 * math.pi / 4)
            ]
            clifford = CliffordLayer(random_clifford(n, rng))
            c = LogicalCircuit(n, (rotations[0], clifford, rotations[1], noise, rotations[2], clifford, rotations[3]))
            for rows in (0, 1, 65):
                paulis = [random_pauli(n, exclude_identity=True, rng=rng) for _ in range(rows)]
                seed = int(rng.integers(2**32))
                uniforms = np.random.default_rng(seed).random((9, sum(r.gadget_width for r in rotations)))
                got = circuits._walk(c, *_columns(paulis, n), rows, uniforms)
                draws = np.random.default_rng(seed)
                gadgets = [[r.draw_gadget(draws) for r in reversed(rotations)] for _ in range(9)]
                assert np.array_equal(got, replay_gadgets(c, paulis, gadgets))
                if rows == 65:
                    assert len(np.unique(got, axis=0)) > 1  # the shots drew different gadgets

    def test_mixed_mode_walk_equals_gate_replay(self):
        """Layers of different twirl modes in one circuit each read their own draws."""
        n, rng = 4, np.random.default_rng(120)
        noise = rz_axis_noise(0.03, 0.01, 0.02)
        modes = [("full", None, 0.05), ("none", None, 0.0), ("ksparse", 2, 0.0), ("analytic_full", None, 0.0),
                 ("ksparse", 3, 0.05), ("full", None, 0.0)]
        rotations = [
            RotationLayer(random_pauli(n, exclude_identity=True, rng=rng), math.pi / 4, noise, mode, k, p_d)
            for mode, k, p_d in modes
        ]
        c = LogicalCircuit(n, (*rotations[:3], CliffordLayer(random_clifford(n, rng)), *rotations[3:]))
        paulis = [random_pauli(n, exclude_identity=True, rng=rng) for _ in range(20)]
        sampled = [r for r in reversed(rotations) if r.is_sampled]
        uniforms = np.random.default_rng(7).random((6, sum(r.gadget_width for r in sampled)))
        draws = np.random.default_rng(7)
        gadgets = [[r.draw_gadget(draws) for r in sampled] for _ in range(6)]
        got = circuits._walk(c, *_columns(paulis, n), len(paulis), uniforms)
        assert np.array_equal(got, replay_gadgets(c, paulis, gadgets))

    @pytest.mark.parametrize("mode, k", [("full", None), ("ksparse", 2)])
    def test_one_shot_is_its_own_mean_with_zero_error(self, mode, k):
        c = build_trotter_circuit(
            heisenberg_1d(4), 2, 0.1, clifford_sim=True, base_noise=rz_axis_noise(0.02, 0.01, 0.005),
            twirl_mode=mode, k=k, gadget_noise_rate=0.04,
        )
        rng = np.random.default_rng(22)
        paulis = [random_pauli(4, exclude_identity=True, rng=rng) for _ in range(6)]
        mean, stderr = effective_fidelity_batch(c, paulis, 1, np.random.default_rng(6))
        draws = np.random.default_rng(6)
        sampled = [layer for layer in reversed(c.layers) if isinstance(layer, RotationLayer) and layer.is_sampled]
        gadgets = [[layer.draw_gadget(draws) for layer in sampled]]
        sample = replay_gadgets(c, paulis, gadgets)[0]
        assert np.array_equal(mean, sample) and len(set(sample.tolist())) > 1
        assert stderr.dtype == np.float64 and stderr.tolist() == [0.0] * len(paulis)

    def test_sampled_requires_rng(self):
        noise = rz_axis_noise(0.02, 0.02, 0.0)
        c = build_trotter_circuit(heisenberg_1d(3), 1, 0.1, base_noise=noise, twirl_mode="full")
        with pytest.raises(ValueError):
            effective_fidelity(c, parse_pauli("XII"), shots=10, rng=None)

    @pytest.mark.parametrize(
        "n, mode, k", [(1, "full", None), (4, "full", None), (3, "ksparse", 1), (4, "ksparse", 2), (5, "ksparse", 3)]
    )
    def test_draw_gadget_matches_the_samplers(self, n, mode, k):
        layer = RotationLayer(PauliOp(n, 0, 1), 0.3, rz_axis_noise(0.01, 0.01, 0.01), mode, k)
        for seed in range(20):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = layer.draw_gadget(got_rng)
            want = sample_full_twirl_gate(n, want_rng) if mode == "full" else sample_ksparse_twirl_gate(n, k, want_rng)
            assert got.gates == want.gates and got.support == want.support
            assert got_rng.random() == want_rng.random()  # the same draws were consumed

    def test_sampled_flags(self):
        noise = rz_axis_noise(0.01, 0.01, 0.01)
        modes = (("none", None), ("analytic_full", None), ("analytic_ksparse", 2), ("full", None), ("ksparse", 2))
        for mode, k in modes:
            layer = RotationLayer(parse_pauli("XX"), 0.3, noise, mode, k)
            sampled = mode in ("full", "ksparse")
            assert layer.is_sampled == sampled
            assert LogicalCircuit(2, (NoiseLayer(make_white_noise(2, 0.1)), layer)).is_sampled == sampled
            if not sampled:
                with pytest.raises(ValueError):
                    layer.draw_gadget(np.random.default_rng(0))
        assert not LogicalCircuit(2, (NoiseLayer(make_white_noise(2, 0.1)),)).is_sampled


# ---------------------------------------------------------------------------
# rescaling coefficient and the bias metric
# ---------------------------------------------------------------------------


class TestRescalingAndBias:
    def test_noiseless_circuit_has_unit_r_and_zero_bias(self):
        c = build_trotter_circuit(heisenberg_1d(3), 2, 0.1, clifford_sim=True)
        assert optimal_rescale_coefficient(c) == 1.0
        mean, err = average_bias(c, 30, rng=np.random.default_rng(18))
        assert mean == 0.0 and err == 0.0

    def test_white_noise_layers_r_and_bias(self):
        n, layers, p = 3, 9, 0.004
        c = LogicalCircuit(n, tuple(NoiseLayer(make_white_noise(n, p)) for _ in range(layers)))
        g = 4**n / (4**n - 1)
        assert optimal_rescale_coefficient(c) == pytest.approx((1 - g * p) ** -layers, rel=1e-12)
        mean, _ = average_bias(c, 50, rng=np.random.default_rng(19))
        assert mean < 1e-12

    def test_r_equals_s_over_u_power_l(self):
        noise = rz_axis_noise(0.03, 0.01, 0.02)
        c = build_trotter_circuit(heisenberg_1d(4), 2, 0.1, clifford_sim=True, base_noise=noise)
        ch = layer_noise_channel(c.layers[0])
        expected = (avg_noise_strength(ch) / unitarity(ch)) ** c.num_rotation_layers
        assert optimal_rescale_coefficient(c) == pytest.approx(expected, rel=1e-12)

    def test_r_approaches_e(self):
        n, layers, p = 30, 1000, 1e-3
        c = LogicalCircuit(n, tuple(NoiseLayer(make_white_noise(n, p)) for _ in range(layers)))
        assert optimal_rescale_coefficient(c) == pytest.approx(math.e, abs=0.01)

    def test_twirl_improves_bias_for_xy_noise(self):
        noise = rz_axis_noise(0.05, 0.04, 0.0)
        plain = build_trotter_circuit(heisenberg_1d(4), 2, 0.1, clifford_sim=True, base_noise=noise)
        twirled = build_trotter_circuit(
            heisenberg_1d(4), 2, 0.1, clifford_sim=True, base_noise=noise, twirl_mode="analytic_full"
        )
        bias_plain, _ = average_bias(plain, 120, rng=np.random.default_rng(20))
        bias_twirled, _ = average_bias(twirled, 120, rng=np.random.default_rng(20))
        assert bias_twirled <= bias_plain

    def test_rescale_is_the_product_over_layers(self):
        n = 4
        noises = (rz_axis_noise(0.03, 0.01, 0.0), rz_axis_noise(0.0, 0.02, 0.01))
        modes = (("none", None), ("analytic_ksparse", 2))
        layers = []
        for axis in ("XXII", "IZZI", "YIIY", "XXII"):
            for noise in noises:
                for mode, k in modes:
                    layers.append(RotationLayer(parse_pauli(axis), math.pi / 4, noise, mode, k))
            layers.append(NoiseLayer(make_white_noise(n, 0.01)))
            layers.append(NoiseLayer(make_single_qubit_pauli_noise(n, 2, 0.01, 0.0, 0.02)))
        white = [layer.channel for layer in layers[4::6]]
        assert white[0] == white[1] and white[0] is not white[1]
        expected = 1.0
        for layer in layers:
            ch = layer_noise_channel(layer) if isinstance(layer, RotationLayer) else layer.channel
            expected *= avg_noise_strength(ch) / unitarity(ch)
        assert optimal_rescale_coefficient(LogicalCircuit(n, tuple(layers))) == expected

    def test_one_observable_is_its_own_mean_with_zero_error(self):
        noise = rz_axis_noise(0.05, 0.04, 0.0)
        c = build_trotter_circuit(heisenberg_1d(4), 2, 0.1, clifford_sim=True, base_noise=noise)
        mean, err = average_bias(c, 1, rng=np.random.default_rng(24))
        (p,) = random_paulis(c.n, 1, exclude_identity=True, rng=np.random.default_rng(24))
        fidelity, _ = effective_fidelity(c, p)
        assert mean == abs(optimal_rescale_coefficient(c) * abs(fidelity) - 1.0) > 0
        assert type(err) is float and err == 0.0

    def test_bias_requires_rng(self):
        c = build_trotter_circuit(heisenberg_1d(3), 1, 0.1)
        with pytest.raises(ValueError):
            average_bias(c, 10)


# ---------------------------------------------------------------------------
# overhead and bound formulas
# ---------------------------------------------------------------------------


class TestOverheadFormulas:
    def test_rescaling_overhead_limit(self):
        # total error 1 split over many layers, large register
        assert overhead_rescaling(1e-6, 10**6, 48) == pytest.approx(math.e**2, abs=0.01)

    def test_pec_overhead_limit(self):
        assert overhead_pec(1e-6, 10**6) == pytest.approx(math.e**4, abs=0.1)

    def test_rescaling_monotone_and_unit_at_zero(self):
        assert overhead_rescaling(0.0, 100, 4) == 1.0
        grid = np.linspace(1e-4, 5e-3, 8)
        vals = [overhead_rescaling(p, 200, 4) for p in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        by_layers = [overhead_rescaling(1e-3, layers, 4) for layers in (10, 100, 1000)]
        assert by_layers[0] < by_layers[1] < by_layers[2]

    def test_rescaling_dominates_lower_bound(self):
        for n in (2, 4, 8, 16):
            for layers in (1, 10, 100, 1000):
                assert overhead_rescaling(1e-3, layers, n) >= overhead_lower_bound(1e-3, layers, n)

    def test_lower_bound_value(self):
        # single layer, first-order purity: (1 + 2gp) − (2^n−2)/(4^n−1)
        g = 4**2 / (4**2 - 1)
        assert overhead_lower_bound(0.01, 1, 2) == pytest.approx(1 + 2 * g * 0.01 - 2 / 15)

    def test_whitenoise_bias_bound_edges(self):
        assert whitenoise_bias_bound(1.0, 1.0, 50, 4) == 0.0
        vals = [whitenoise_bias_bound(0.999, 0.9985, layers, 4) for layers in (1, 10, 100)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        limit = math.sqrt((2**4 - 1) / (2**4 + 1))
        assert whitenoise_bias_bound(0.9, 0.85, 10**6, 4) == pytest.approx(limit, rel=1e-6)

    def test_corollary_value(self):
        assert corollary_bound(1 / math.sqrt(3), 1.0, 1200) == pytest.approx(1 / 60, rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            overhead_rescaling(1.0, 10, 4)
        with pytest.raises(ValueError):
            overhead_pec(-0.1, 10)
        with pytest.raises(ValueError):
            whitenoise_bias_bound(0.9, 0.0, 10, 4)
        with pytest.raises(ValueError):
            corollary_bound(1.0, 1.0, 0)
