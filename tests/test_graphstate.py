import json
import re
from math import pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import graph_state_amplitudes, ket, plus_state, spec_dict, states_equal_up_to_phase
from qdarwin import (
    Gate,
    GraphSpec,
    apply_circuit,
    build_graph_state,
    check_local_equivalence,
    diamond_canonical_check,
    diamond_spec,
    evolve_ising,
    ghz_state,
    mutual_information,
    named_state,
    star_ghz_check,
    star_spec,
)
from qdarwin.graphstate import NAMED_FIXED_STATES


class TestGraphSpec:
    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            GraphSpec(3, ((1, 2, pi), (2, 1, 0.5)))

    def test_rejects_self_edge(self):
        with pytest.raises(ValueError, match="self-edge"):
            GraphSpec(3, ((2, 2, pi),))

    def test_rejects_nonfinite_phase(self):
        first, chain = re.escape("edge (1, 2) has non-finite phase"), re.escape("edge (2, 3) has non-finite phase")
        for phase in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"^{first}$"):
                GraphSpec(2, ((1, 2, phase),))
            with pytest.raises(ValueError, match=f"^{first}$"):
                star_spec(3, phi=phase)
            with pytest.raises(ValueError, match=f"^{first}$"):
                diamond_spec(3, phi=phase, theta=pi)
            with pytest.raises(ValueError, match=f"^{chain}$"):
                diamond_spec(3, phi=pi, theta=phase)
            with pytest.raises(ValueError, match="^diamond graph needs at least two environment qubits$"):
                diamond_spec(1, phi=phase, theta=phase)

    # bool is an int subclass: True must not read as 1
    @pytest.mark.parametrize("n_qubits", [2.9, 3.0, "3", True])
    def test_rejects_non_integral_qubit_count(self, n_qubits):
        with pytest.raises(ValueError, match="n_qubits must be a positive integer"):
            GraphSpec(n_qubits, ())

    @pytest.mark.parametrize("edge", [(1, 2.7, pi), (1.0, 2, pi), ("1", 2, pi), (True, 2, pi)])
    def test_rejects_non_integral_endpoints(self, edge):
        with pytest.raises(ValueError, match="integer qubit labels"):
            GraphSpec(3, (edge,))

    def test_numpy_integer_labels_are_stored_as_ints(self):
        spec = GraphSpec(3, ((np.int64(1), np.int32(3), pi),))
        assert [type(x) for x in spec.edges[0]] == [int, int, float]
        assert json.loads(json.dumps(spec_dict(spec))) == {"n_qubits": 3, "edges": [[1, 3, pi]]}

    def test_dict_round_trip(self):
        spec = diamond_spec(3, pi, 0.3)
        assert GraphSpec.from_dict(spec_dict(spec)) == spec

    def test_numpy_qubit_count_is_stored_as_an_int(self):
        spec = GraphSpec(np.int64(2), ((1, 2, 1.0),))
        assert type(spec.n_qubits) is int
        assert GraphSpec.from_dict(json.loads(json.dumps(spec_dict(spec)))) == spec


class TestSpecFactories:
    def test_star_shape(self):
        spec = star_spec(3, pi)
        assert spec.n_qubits == 4
        assert spec.edges == ((1, 2, pi), (1, 3, pi), (1, 4, pi))

    def test_star_ten_qubits(self):
        spec = star_spec(9, pi)
        assert spec.n_qubits == 10
        assert len(spec.edges) == 9
        assert all(j == 1 for j, _, _ in spec.edges)

    def test_star_minimal(self):
        assert star_spec(1, pi).edges == ((1, 2, pi),)

    def test_star_requires_environment(self):
        with pytest.raises(ValueError):
            star_spec(0, pi)

    def test_diamond_adds_open_chain(self):
        spec = diamond_spec(3, pi, pi)
        assert set((j, k) for j, k, _ in spec.edges) == {(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)}

    def test_diamond_ten_qubits(self):
        spec = diamond_spec(9, pi, pi)
        chain = [(j, k) for j, k, _ in spec.edges if j != 1]
        assert chain == [(j, j + 1) for j in range(2, 10)]

    def test_diamond_requires_two_env(self):
        with pytest.raises(ValueError):
            diamond_spec(1, pi, pi)


class TestBuildGraphState:
    def test_two_qubit_cluster(self):
        state = build_graph_state(GraphSpec(2, ((1, 2, pi),)))
        expected = (ket("00") + ket("01") + ket("10") - ket("11")) / 2
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_zero_phases_give_plus_product(self):
        state = build_graph_state(GraphSpec(3, ((1, 2, 0.0), (2, 3, 0.0))))
        np.testing.assert_allclose(state.amplitudes, np.full(8, 1 / sqrt(8)), atol=1e-12)

    def test_star_becomes_ghz_under_hadamards(self):
        state = build_graph_state(star_spec(3, pi))
        rotated = apply_circuit(state, [Gate.hadamard(q) for q in (2, 3, 4)])
        assert states_equal_up_to_phase(rotated, ghz_state(4))

    def test_diamond_theta_zero_equals_star(self):
        a = build_graph_state(diamond_spec(4, pi, 0.0))
        b = build_graph_state(star_spec(4, pi))
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.permutations(list(range(5))))
    def test_edge_order_irrelevant(self, order):
        edges = list(diamond_spec(3, 1.1, 0.7).edges)
        base = build_graph_state(diamond_spec(3, 1.1, 0.7))
        shuffled = build_graph_state(GraphSpec(4, tuple(edges[i] for i in order)))
        np.testing.assert_allclose(shuffled.amplitudes, base.amplitudes, atol=1e-12)


class TestPhaseKernel:
    """Graph states and Ising evolution share the qubit-wise doubling, and a
    controlled-phase gate multiplies the |11> slice of the state it is given;
    each is checked against per-index phases."""

    @staticmethod
    def random_graph(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        pairs = [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]
        edges = [(j, k, float(rng.uniform(-4, 4))) for j, k in pairs if rng.random() < 0.6]
        rng.shuffle(edges)
        return n, [(k, j, p) if rng.random() < 0.5 else (j, k, p) for j, k, p in edges]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_build_graph_state(self, seed):
        n, edges = self.random_graph(seed)
        state = build_graph_state(GraphSpec(n, tuple(edges)))
        np.testing.assert_allclose(state.amplitudes, graph_state_amplitudes(n, edges), rtol=0, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_evolve_ising(self, seed):
        n, edges = self.random_graph(seed)
        t = float(np.random.default_rng(seed).uniform(0.1, 3.0))
        state = evolve_ising(n, {(j, k): p for j, k, p in edges}, t)
        expected = graph_state_amplitudes(n, [(j, k, -p * t) for j, k, p in edges])
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-12)



class TestQubitDoubling:
    """The qubit-by-qubit build against per-index phases, on the shapes that
    set its factor spans: wide graphs, hubs, gaps, reversed and extreme edges."""

    @staticmethod
    def check(n, edges):
        expected = graph_state_amplitudes(n, edges)
        state = build_graph_state(GraphSpec(n, tuple(edges)))
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-12)
        evolved = evolve_ising(n, {(j, k): -p for j, k, p in edges}, 1.0)
        np.testing.assert_allclose(evolved.amplitudes, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(7, 14))
    def test_random_weighted_graphs(self, n):
        rng = np.random.default_rng(n)
        pairs = [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]
        self.check(n, [(j, k, float(rng.uniform(-4, 4))) for j, k in pairs if rng.random() < 0.3])

    def test_hub_with_many_later_neighbours(self):
        # qubit 2 reaches all ten later qubits, qubit 1 only the last one
        edges = [(2, k, 0.3 * k) for k in range(3, 13)] + [(1, 12, 1.9), (5, 6, -0.8)]
        self.check(12, edges)

    def test_isolated_qubits(self):
        # qubits 1, 4, 6 and 9 have no edges, and 2's neighbour sits past a gap
        self.check(9, [(2, 5, 0.7), (3, 7, -1.3), (7, 8, 2.2)])
        self.check(8, [])

    def test_reversed_edges(self):
        edges = [(j, k, 0.2 + 0.1 * j * k) for j in range(1, 9) for k in range(j + 1, 9) if (j + k) % 3]
        reversed_edges = [(k, j, p) for j, k, p in edges]
        self.check(8, reversed_edges)
        np.testing.assert_array_equal(
            build_graph_state(GraphSpec(8, tuple(reversed_edges))).amplitudes,
            build_graph_state(GraphSpec(8, tuple(edges))).amplitudes,
        )

    def test_zero_and_large_phases(self):
        self.check(8, [(1, 2, 0.0), (1, 5, 0.0), (2, 3, 7.5), (3, 8, -20.0), (4, 6, 2 * pi), (6, 7, 13 * pi / 3)])

    def test_over_cap_raises_before_allocating(self, monkeypatch):
        # 2^30 amplitudes would take 16 GB
        import tracemalloc

        monkeypatch.delenv("QDARWIN_MAX_QUBITS", raising=False)
        spec = star_spec(29, pi / 3)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                build_graph_state(spec)
            with pytest.raises(ValueError, match="cap"):
                evolve_ising(30, {(1, 30): 1.0}, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestEvolveIsing:
    def test_single_pair_matches_cluster(self):
        evolved = evolve_ising(2, {(1, 2): pi}, 1.0)
        cluster = build_graph_state(GraphSpec(2, ((1, 2, pi),)))
        assert states_equal_up_to_phase(evolved, cluster, tol=1e-10)

    def test_zero_time_is_plus_product(self):
        state = evolve_ising(3, {(1, 2): 0.9, (2, 3): 0.4}, 0.0)
        np.testing.assert_allclose(state.amplitudes, plus_state(3).amplitudes, atol=1e-12)

    def test_star_couplings_match_graph_state(self):
        evolved = evolve_ising(5, {(1, k): pi for k in range(2, 6)}, 1.0)
        graph = build_graph_state(star_spec(4, pi))
        assert states_equal_up_to_phase(evolved, graph, tol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_negated_phase_network(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        pairs = [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]
        couplings = {p: float(rng.uniform(-2, 2)) for p in pairs if rng.random() < 0.7}
        t = float(rng.uniform(0.1, 3.0))
        evolved = evolve_ising(n, couplings, t)
        edges = tuple((j, k, -g * t) for (j, k), g in couplings.items())
        network = build_graph_state(GraphSpec(n, edges))
        assert states_equal_up_to_phase(evolved, network, tol=1e-10)

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError, match="twice"):
            evolve_ising(2, {(1, 2): 1.0, (2, 1): 1.0}, 1.0)

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError, match="self"):
            evolve_ising(2, {(1, 1): 1.0}, 1.0)


class TestNamedStates:
    def test_hyperentangled_source(self):
        expected = (ket("0001") + ket("0010") + ket("1101") + ket("1110")) / 2
        np.testing.assert_allclose(named_state("hyperentangled-xi").amplitudes, expected, atol=1e-12)

    def test_star_experimental(self):
        expected = (ket("0101") + ket("1010")) / sqrt(2)
        np.testing.assert_allclose(named_state("star-experimental").amplitudes, expected, atol=1e-12)

    def test_diamond_canonical(self):
        expected = (-ket("0001") + ket("0110") + ket("1010") + ket("1101")) / 2
        np.testing.assert_allclose(named_state("diamond-canonical").amplitudes, expected, atol=1e-12)

    def test_diamond_experimental_coincides_with_canonical(self):
        np.testing.assert_allclose(
            named_state("diamond-experimental").amplitudes,
            named_state("diamond-canonical").amplitudes,
            atol=1e-12,
        )

    @pytest.mark.parametrize("name", ["pentagon", "star", "diamond", "ghz"])
    def test_unknown_name(self, name):
        # the families of any size come from build_graph_state and ghz_state
        with pytest.raises(ValueError, match="unknown"):
            named_state(name)

    def test_fixed_names_and_their_spellings(self):
        assert NAMED_FIXED_STATES == (
            "hyperentangled-xi", "star-experimental", "diamond-experimental", "diamond-canonical", "ghz4"
        )
        for name in NAMED_FIXED_STATES:
            amplitudes = named_state(name).amplitudes
            for spelling in (name.upper(), name.replace("-", "_"), f" {name.title()} "):
                assert named_state(spelling).amplitudes.tobytes() == amplitudes.tobytes()
        assert named_state("ghz4").amplitudes.tobytes() == ghz_state(4).amplitudes.tobytes()


class TestLocalEquivalence:
    def test_star_ghz_identity(self):
        report = star_ghz_check()
        assert report.passed
        assert report.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_diamond_canonical_identity(self):
        report = diamond_canonical_check()
        assert report.passed
        assert report.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_empty_circuit_self_equivalence(self, ghz4):
        report = check_local_equivalence(ghz4, ghz4, [])
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_star_experimental_is_ghz_up_to_bit_flips(self, ghz4):
        report = check_local_equivalence(
            named_state("star-experimental"), ghz4, [Gate.pauli_x(2), Gate.pauli_x(4)]
        )
        assert report.passed

    def test_rejects_entangling_gate(self):
        # Gate has no entangling (or arbitrary) kind, so no circuit here can entangle
        for kind in ("controlled_phase", "single_qubit"):
            with pytest.raises(ValueError, match=f"unknown gate kind '{kind}'"):
                Gate(kind, (1, 2))

    def test_swap_is_allowed(self, ghz4):
        report = check_local_equivalence(ghz4, ghz4, [Gate.swap(2, 3)])
        assert report.passed

    def test_mismatched_sizes(self, ghz4):
        with pytest.raises(ValueError, match="equal"):
            check_local_equivalence(ghz4, plus_state(3), [])


class TestStarGhzMutualInformationEquality:
    @pytest.mark.parametrize("n_env", [3, 9])
    def test_every_fragment_matches(self, n_env):
        import itertools

        star = build_graph_state(star_spec(n_env, pi))
        ghz = ghz_state(n_env + 1)
        env = range(2, n_env + 2)
        for delta in range(1, n_env + 1):
            for frag in itertools.combinations(env, delta):
                assert mutual_information(star, 1, frag) == pytest.approx(
                    mutual_information(ghz, 1, frag), abs=1e-9
                )
