import itertools
from functools import partial
from math import pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_density, as_state
from oracle_utils import (
    brute_partial_trace,
    density,
    ket,
    maximally_mixed,
    partial_trace_transposed,
    pauli_matrix,
    plus_state,
    random_density_array,
    random_pure_array,
    states_equal_up_to_phase,
)
from qdarwin import (
    Gate,
    PauliString,
    StateVector,
    all_pauli_strings,
    apply_gate,
    build_graph_state,
    evolve_ising,
    fidelity,
    named_state,
    partial_trace,
    pauli_expectation,
    project_to_physical,
    star_spec,
    subsystem_entropy,
    von_neumann_entropy,
)
from qdarwin import darwinism, measurement
from qdarwin.qcore import _partial_trace_batch, _pauli_action, _rng


class TestStateConstruction:
    def test_basis_ket(self):
        state = StateVector.computational_basis("0101")
        assert state.n_qubits == 4
        assert state.amplitudes[int("0101", 2)] == 1.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(np.array([1.0, 1.0]))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="2\\^n"):
            StateVector(np.array([1.0, 0.0, 0.0]))

    def test_amplitudes_read_only(self):
        state = plus_state(2)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_amplitudes_frozen_without_writable_base(self, rng):
        # a state may keep a buffer handed over to it, but nothing may write
        # to its amplitudes afterwards, directly or through an array it views
        source = random_pure_array(3, rng)
        view = source[:]
        view.flags.writeable = False
        sealed = source.copy()  # read-only all the way down, but the caller owns it
        sealed.flags.writeable = False
        states = [
            StateVector(source),
            StateVector(view),
            StateVector(sealed),
            StateVector(list(source)),
            plus_state(3),
            StateVector.computational_basis("011"),
            build_graph_state(star_spec(2, pi / 3)),
            evolve_ising(3, {(1, 2): 0.4}, 1.0),
            named_state("diamond-canonical"),
        ]
        base = StateVector(source)
        for gate in (Gate.hadamard(1), Gate.hadamard(3), Gate.pauli_x(2), Gate.pauli_z(2), Gate.swap(1, 3)):
            states.append(apply_gate(base, gate))
        for state in states:
            array = state.amplitudes
            while isinstance(array, np.ndarray):
                assert not array.flags.writeable
                array = array.base
            assert array is None
        # arrays from the caller were copied, even read-only ones: an owner
        # can make its array writable again
        kept = [s.amplitudes.copy() for s in states[:3]]
        source[:] = 0.0
        sealed.flags.writeable = True
        sealed[:] = 0.0
        for state, amplitudes in zip(states[:3], kept):
            assert np.array_equal(state.amplitudes, amplitudes)
        assert np.array_equal(base.amplitudes, states[0].amplitudes)

    def test_fresh_buffers_handed_over_not_copied(self):
        # building a state or applying a gate allocates one 2^n buffer, which
        # the new state keeps (numpy reports its allocations to tracemalloc)
        import tracemalloc

        spec = star_spec(16, pi / 3)  # 2 MB, so numpy's fixed-size ufunc buffers hardly count
        state = build_graph_state(spec)
        wide = build_graph_state(star_spec(17, pi / 3))  # 18 qubits, 4 MB
        cases = [(lambda: build_graph_state(spec), state, 1.25), (lambda: apply_gate(state, Gate.swap(2, 3)), state, 1.25)]
        # a one-qubit gate on a middle, the first or the last qubit writes its product once
        cases += [(partial(apply_gate, wide, Gate.hadamard(q)), wide, 1.1) for q in (9, 1, 18)]
        for make, source, bound in cases:
            tracemalloc.start()
            try:
                make()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * source.amplitudes.nbytes

    def test_qubit_budget(self, monkeypatch):
        monkeypatch.setenv("QDARWIN_MAX_QUBITS", "3")
        with pytest.raises(ValueError, match="cap"):
            plus_state(4)
        # graph states and Ising evolution enforce the cap as well
        with pytest.raises(ValueError, match="cap"):
            build_graph_state(star_spec(3, pi))
        with pytest.raises(ValueError, match="cap"):
            evolve_ising(4, {(1, 2): 1.0}, 1.0)
        plus_state(3)

    def test_qubit_budget_names_a_malformed_variable(self, monkeypatch):
        monkeypatch.setenv("QDARWIN_MAX_QUBITS", "abc")
        with pytest.raises(ValueError, match="QDARWIN_MAX_QUBITS must be a positive integer, got 'abc'"):
            plus_state(2)

    def test_density_matrix_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            as_density(np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            as_density(np.eye(2))


class TestApplyGate:
    def test_hadamard_makes_plus(self):
        out = apply_gate(StateVector.computational_basis("0"), Gate.hadamard(1))
        np.testing.assert_allclose(out.amplitudes, np.array([1, 1]) / sqrt(2), atol=1e-12)

    def test_swap_permutes_labels(self):
        out = apply_gate(StateVector.computational_basis("01"), Gate.swap(1, 2))
        np.testing.assert_allclose(out.amplitudes, ket("10"), atol=1e-12)

    def test_out_of_range_target(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_gate(plus_state(2), Gate.hadamard(3))
        for label in (2.5, 2.0, True):  # refused, not read as qubit 2 or 1
            with pytest.raises(ValueError, match="1-based integers"):
                Gate.hadamard(label)
        assert Gate.swap(np.int64(1), np.int32(2)).targets == (1, 2)

    def test_duplicate_targets(self):
        with pytest.raises(ValueError, match="duplicate"):
            Gate.swap(2, 2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 10**6))
    def test_unitarity(self, n, seed):
        rng = np.random.default_rng(seed)
        psi = as_state(random_pure_array(n, rng))
        q = int(rng.integers(1, n + 1))
        gates = [
            Gate.hadamard(q),
            Gate.pauli_x(q),
            Gate.pauli_z(q),
        ]
        if n >= 2:
            gates.append(Gate.swap(q, q % n + 1))
        for gate in gates:
            out = apply_gate(psi, gate)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


class TestPartialTrace:
    def test_product_state_factorizes(self, rng):
        rho_a = random_density_array(1, rng)
        rho_b = random_density_array(2, rng)
        joint = as_density(np.kron(rho_a, rho_b))
        np.testing.assert_allclose(partial_trace(joint, [1]).entries, rho_a, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, [2, 3]).entries, rho_b, atol=1e-12)

    def test_ghz_single_qubit_marginal(self, ghz4):
        reduced = partial_trace(density(ghz4), [1])
        np.testing.assert_allclose(reduced.entries, np.eye(2) / 2, atol=1e-12)

    def test_canonical_diamond_keep_1_3(self):
        # brute-force oracle on the explicitly written 4-term state
        state = named_state("diamond-canonical")
        rho = density(state)
        oracle = brute_partial_trace(rho.entries, [1, 3], 4)
        np.testing.assert_allclose(oracle, np.eye(4) / 4, atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, [1, 3]).entries, np.eye(4) / 4, atol=1e-12)

    def test_matches_brute_oracle(self, rng):
        rho = as_density(random_density_array(4, rng))
        for keep in [(2,), (1, 3), (4, 2), (1, 2, 4)]:
            np.testing.assert_allclose(
                partial_trace(rho, keep).entries,
                brute_partial_trace(rho.entries, list(keep), 4),
                atol=1e-10,
            )

    def test_keep_order_preserved(self, rng):
        rho = as_density(random_density_array(3, rng))
        fwd = partial_trace(rho, (1, 3)).entries
        rev = partial_trace(rho, (3, 1)).entries
        perm = np.array([0, 2, 1, 3])  # |ab> -> |ba| on the kept pair
        np.testing.assert_allclose(rev, fwd[np.ix_(perm, perm)], atol=1e-12)

    def test_two_step_equals_one_step(self, rng):
        rho = as_density(random_density_array(4, rng))
        one = partial_trace(rho, (1, 3))
        two = partial_trace(partial_trace(rho, (1, 3, 4)), (1, 2))
        np.testing.assert_allclose(one.entries, two.entries, atol=1e-10)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_einsum_equals_the_transposed_copy_bit_for_bit(self, rng, n):
        # every keep set in every order, on stacks of 0, 1 and 2 leading axes; entries span 12
        # decades, and one row of zeros of both signs makes some diagonal sums exactly zero
        keeps = [k for size in range(1, n + 1) for k in itertools.permutations(range(1, n + 1), size)]
        for lead in ((), (3,), (2, 1)):
            shape = lead + (2**n, 2**n)
            mats = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.integers(-6, 7, shape)
            mats[..., 0, :] = np.where(rng.random(2**n) < 0.5, 0.0, -0.0) + 1j * np.where(rng.random(2**n) < 0.5, 0.0, -0.0)
            for keep in keeps:
                got, expected = _partial_trace_batch(mats, keep), partial_trace_transposed(mats, keep)
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), keep

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_one_einsum_keeps_the_bits_above_the_iterator_buffer(self, rng, n):
        # 2^14 or more entries per matrix, past nditer's 8192-element buffer: ends, halves,
        # interleaved and reversed keep sets, everything kept, and random orders
        qubits = list(range(1, n + 1))
        keeps = [(1,), (n,), (n, 1), tuple(qubits[: n // 2]), tuple(qubits[n // 2 :]), tuple(qubits[::2]),
                 tuple(qubits[1::2]), tuple(qubits[::-3]), tuple(qubits), tuple(qubits[::-1])]
        keeps += [tuple(int(q) for q in rng.permutation(qubits)[: rng.integers(1, n + 1)]) for _ in range(6)]
        for lead in ((), (2,)):
            shape = lead + (2**n, 2**n)
            mats = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.integers(-6, 7, shape)
            mats[..., 0, :] = np.where(rng.random(2**n) < 0.5, 0.0, -0.0) + 1j * np.where(rng.random(2**n) < 0.5, 0.0, -0.0)
            for keep in keeps:
                got, expected = _partial_trace_batch(mats, keep), partial_trace_transposed(mats, keep)
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), keep

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_keep_set_matches_the_brute_oracle(self, rng, n):
        # all orders up to 4 qubits; each subset ascending and reversed at 5 and 6
        rho = random_density_array(n, rng)
        subsets = [k for size in range(1, n + 1) for k in itertools.combinations(range(1, n + 1), size)]
        keeps = [k for size in range(1, n + 1) for k in itertools.permutations(range(1, n + 1), size)]
        for keep in keeps if n <= 4 else subsets + [k[::-1] for k in subsets if len(k) > 1]:
            np.testing.assert_allclose(
                partial_trace(as_density(rho), keep).entries, brute_partial_trace(rho, list(keep), n), atol=1e-10
            )

    def test_errors(self, rng):
        rho = as_density(random_density_array(2, rng))
        with pytest.raises(ValueError, match="nonempty"):
            partial_trace(rho, [])
        with pytest.raises(ValueError, match="out of range"):
            partial_trace(rho, [3])
        for label in (True, 1.5):  # refused, not read as qubit 1
            with pytest.raises(ValueError, match=f"qubit label {label!r} out of range"):
                partial_trace(rho, [label])
        with pytest.raises(ValueError, match="qubit label 1.7 out of range"):
            subsystem_entropy(named_state("diamond-canonical"), (1.7,))
        assert subsystem_entropy(named_state("diamond-canonical"), (np.int64(1),)) == pytest.approx(1.0, abs=1e-12)


class TestSpectraAndEntropy:
    def test_pure_state_entropy_zero(self, rng):
        assert von_neumann_entropy(density(as_state(random_pure_array(3, rng)))) == pytest.approx(
            0.0, abs=1e-9
        )

    @pytest.mark.parametrize("n,expected", [(1, 1.0), (2, 2.0)])
    def test_maximally_mixed_entropy(self, n, expected):
        assert von_neumann_entropy(maximally_mixed(n)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_rejects_negative_spectrum(self):
        rho = as_density(np.diag([1.1, -0.1]))
        with pytest.raises(ValueError, match="-1e-9"):
            von_neumann_entropy(rho)

    def test_entropy_additive_on_products(self, rng):
        for _ in range(5):
            rho_a = random_density_array(2, rng)
            rho_b = random_density_array(3, rng)
            joint = as_density(np.kron(rho_a, rho_b))
            assert von_neumann_entropy(joint) == pytest.approx(
                von_neumann_entropy(as_density(rho_a)) + von_neumann_entropy(as_density(rho_b)),
                abs=1e-8,
            )

    def test_pure_state_complementarity(self, rng):
        for n in (2, 3, 4, 5):
            psi = as_state(random_pure_array(n, rng))
            for size in range(1, n):
                cut = tuple(rng.choice(np.arange(1, n + 1), size=size, replace=False))
                rest = tuple(q for q in range(1, n + 1) if q not in cut)
                assert subsystem_entropy(psi, cut) == pytest.approx(
                    subsystem_entropy(psi, rest), abs=1e-8
                )

    def test_subsystem_entropy_matches_density_route(self, rng):
        psi = as_state(random_pure_array(4, rng))
        for cut in [(1,), (2, 3), (1, 4, 2)]:
            assert subsystem_entropy(psi, cut) == pytest.approx(
                von_neumann_entropy(partial_trace(density(psi), cut)), abs=1e-9
            )


class TestPauliExpectation:
    def test_identity_string(self, rng):
        rho = as_density(random_density_array(3, rng))
        assert pauli_expectation(rho, "III") == pytest.approx(1.0, abs=1e-12)

    def test_zzzz_on_basis_ket(self):
        assert pauli_expectation(StateVector.computational_basis("0101"), "ZZZZ") == pytest.approx(
            1.0
        )

    def test_xxxx_on_ghz(self, ghz4):
        assert pauli_expectation(ghz4, "XXXX") == pytest.approx(1.0, abs=1e-12)
        assert pauli_expectation(density(ghz4), "XXXX") == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch(self, ghz4):
        with pytest.raises(ValueError, match="length"):
            pauli_expectation(ghz4, "ZZ")

    def test_matches_matrix_oracle(self, rng):
        rho = as_density(random_density_array(3, rng))
        psi = as_state(random_pure_array(3, rng))
        for labels in ["XYZ", "ZIY", "YYX", "IXI"]:
            mat = pauli_matrix(labels)
            assert pauli_expectation(rho, labels) == pytest.approx(
                float(np.real(np.trace(rho.entries @ mat))), abs=1e-10
            )
            assert pauli_expectation(psi, labels) == pytest.approx(
                float(np.real(psi.amplitudes.conj() @ mat @ psi.amplitudes)), abs=1e-10
            )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pauli_completeness(self, n, rng):
        rho = as_density(random_density_array(n, rng))
        rebuilt = np.zeros_like(rho.entries)
        for string in all_pauli_strings(n):
            rebuilt = rebuilt + pauli_expectation(rho, string) * pauli_matrix(string.labels)
        np.testing.assert_allclose(rebuilt / 2**n, rho.entries, atol=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_action_rebuilds_the_kronecker_matrix(self, n):
        # P|j> = phases[j] |perm[j]>, read from PAULI_MATRICES letter by letter
        for string in all_pauli_strings(n):
            perm, phases = _pauli_action(string.labels)
            rebuilt = np.zeros((2**n, 2**n), dtype=complex)
            rebuilt[perm, np.arange(2**n)] = phases
            assert (rebuilt == pauli_matrix(string.labels)).all(), string

    def test_weight(self):
        assert PauliString("ZIZI").weight == 2


class TestFidelity:
    def test_pure_self(self, rng):
        psi = as_state(random_pure_array(3, rng))
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(density(psi), psi) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal(self):
        a = StateVector.computational_basis("0")
        b = StateVector.computational_basis("1")
        assert fidelity(a, b) == 0.0
        assert fidelity(density(a), b) == 0.0

    def test_depolarized_ghz(self, ghz4):
        mixed = as_density(0.9 * density(ghz4).entries + 0.1 * np.eye(16) / 16)
        expected = 0.9 + 0.1 / 16  # linearity of <psi|rho|psi>
        assert fidelity(ghz4, mixed) == pytest.approx(expected, abs=1e-12)
        assert expected == 0.90625

    def test_refuses_two_density_matrices(self, rng):
        # the square-root form for two mixed states is not implemented
        psi = as_state(random_pure_array(2, rng))
        rho = as_density(random_density_array(2, rng))
        with pytest.raises(ValueError, match="at least one pure state"):
            fidelity(density(psi), rho)

    def test_dimension_mismatch(self, ghz4):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(ghz4, plus_state(2))


class TestGlobalPhase:
    def test_phase_rotation_is_equal(self, rng):
        psi = random_pure_array(3, rng)
        assert states_equal_up_to_phase(as_state(psi), as_state(np.exp(0.7j) * psi))

    def test_different_states_are_not(self):
        assert not states_equal_up_to_phase(
            StateVector.computational_basis("00"), plus_state(2)
        )


class TestProjectToPhysical:
    def test_physical_input_unchanged(self, rng):
        rho = as_density(random_density_array(2, rng))
        out = project_to_physical(rho)
        np.testing.assert_allclose(out.entries, rho.entries, atol=1e-12)
        assert np.linalg.eigvalsh(out.entries).min() >= -1e-9

    def test_single_negative_eigenvalue(self):
        rho = as_density(np.diag([1.1, -0.1]))
        np.testing.assert_allclose(project_to_physical(rho).entries, np.diag([1.0, 0.0]), atol=1e-12)

    def test_water_filling_example(self):
        rho = as_density(np.diag([0.7, 0.5, -0.2, 0.0]))
        np.testing.assert_allclose(
            project_to_physical(rho).entries, np.diag([0.6, 0.4, 0.0, 0.0]), atol=1e-12
        )


class TestStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, np.int64(3)])
    @pytest.mark.parametrize(
        "key",
        [
            (measurement._SAMPLE_STREAM, int("ZXYZ".translate(measurement._LETTER_DIGITS), 4)),
            (measurement._BOOTSTRAP_STREAM,),
            (darwinism._CURVE_STREAM, 3),
        ],
        ids=["sample", "bootstrap", "curve"],
    )
    def test_a_stream_is_the_seed_sequence_of_seed_and_key(self, seed, key):
        # _rng hands SeedSequence the uint32 words it would read from the list itself
        expected = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**64 - 1), *key]))
        assert _rng(seed, *key).bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("label", ["Z" * 16, "Z" * 17, "X" * 24, "I" * 8 + "Y" * 16, "ZXYZ" * 6])
    def test_a_long_settings_key_is_split_into_words(self, seed, label):
        # a full-weight setting of 17 or more qubits keys its stream at or above 4^16 = 2^32
        key = (measurement._SAMPLE_STREAM, int(label.translate(measurement._LETTER_DIGITS), 4))
        expected = np.random.default_rng(np.random.SeedSequence([seed, *key]))
        assert _rng(seed, *key).bit_generator.state == expected.bit_generator.state

    def test_a_17_qubit_setting_draws_from_its_stream(self):
        label, cfg = "X" * 17, measurement.RunConfig(shots_per_setting=40, seed=5)
        state = StateVector.computational_basis("0" * 17)
        key = int(label.translate(measurement._LETTER_DIGITS), 4)
        assert key >= 2**32
        rng = np.random.default_rng(np.random.SeedSequence([5, measurement._SAMPLE_STREAM, key]))
        expected = rng.multinomial(40, measurement._plan_probabilities(state, [label])[0])
        counts = measurement.sample_setting(state, label, cfg)
        assert counts == measurement.OutcomeCounts.from_vector(PauliString(label), expected)
