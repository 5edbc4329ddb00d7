import hashlib
import itertools
import json
import math
import re
from functools import partial
from math import comb, pi

import numpy as np
import pytest

from conftest import as_density, as_state
from oracle_utils import (
    binary_entropy,
    brute_entropy,
    brute_mutual_information,
    brute_partial_trace,
    brute_pure_entropy,
    curve_json,
    density,
    gf2_rank,
    graph_state_amplitudes,
    mean_values,
    random_density_array,
    random_pure_array,
)
from qdarwin import (
    Fragment,
    GraphSpec,
    MICurve,
    MIPoint,
    RunConfig,
    build_graph_state,
    classify_curve,
    diamond_spec,
    estimate_mi_curve,
    evolve_ising,
    mi_curve,
    mutual_information,
    named_state,
    star_spec,
)
import qdarwin.darwinism as darwinism
from qdarwin.darwinism import (
    _DEFAULT_MAX_EXHAUSTIVE,
    _backend,
    _canonical,
    _coupling_entropies,
    _fragments,
    _graph_entropies,
    _masks,
    _weighted_entropies,
)
from qdarwin.qcore import _entropy_batch, _pure_entropies


def _per_fragment_curve(state, system, fragments_by_size):
    """(mean, min, max) per size from one mutual_information call per fragment."""
    out = []
    for fragments in fragments_by_size:
        values = [mutual_information(state, system, f) for f in fragments]
        out.append((float(np.mean(values)), min(values), max(values)))
    return out


def _exhaustive(n, system):
    env = [q for q in range(1, n + 1) if q != system]
    return [list(itertools.combinations(env, d)) for d in range(1, n)]


def _random_graph(n, rng, phases):
    pairs = [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]
    chosen = [pairs[i] for i in np.flatnonzero(rng.random(len(pairs)) < 0.5)]
    return GraphSpec(n, tuple((j, k, float(rng.choice(phases))) for j, k in chosen))


def _draws(env, d, sample_size, seed):
    """The size-d fragments mi_curve draws from seed: per draw, the qubits of
    env at the d smallest of len(env) uniform keys from the size's stream."""
    keys = np.random.default_rng(np.random.SeedSequence([seed, darwinism._CURVE_STREAM, d]))
    return [tuple(sorted(env[i] for i in np.argsort(row)[:d])) for row in keys.random((sample_size, len(env)))]


def _assert_curve_matches(curve, expected, tol=1e-12):
    assert len(curve.points) == len(expected)
    for point, (mean, lo, hi) in zip(curve.points, expected):
        assert point.mean_mi == pytest.approx(mean, abs=tol)
        assert point.min_mi == pytest.approx(lo, abs=tol)
        assert point.max_mi == pytest.approx(hi, abs=tol)


class TestFragment:
    def test_fragment_validation(self):
        with pytest.raises(ValueError, match="repeated"):
            Fragment((2, 2))
        # labels are refused, not coerced: int(3.7) would read as qubit 3
        for label in (3.7, 3.0, True, "3", 0, -1):
            with pytest.raises(ValueError, match=f"fragment label {label!r} is not a 1-based integer"):
                Fragment((2, label))
        assert Fragment((np.int64(3), 2)).members == (3, 2)


class TestMutualInformation:
    def test_star_single_fragment(self):
        star = build_graph_state(star_spec(3, pi))
        assert mutual_information(star, 1, (2,)) == pytest.approx(1.0, abs=1e-9)

    def test_star_full_environment(self):
        star = build_graph_state(star_spec(3, pi))
        assert mutual_information(star, 1, (2, 3, 4)) == pytest.approx(2.0, abs=1e-9)

    def test_canonical_diamond_fragment_values(self):
        state = named_state("diamond-canonical")
        expected = {(2,): 1.0, (3,): 0.0, (4,): 0.0, (2, 3): 2.0, (2, 4): 2.0, (3, 4): 1.0}
        for frag, value in expected.items():
            assert mutual_information(state, 1, frag) == pytest.approx(value, abs=1e-9)
            # independent dense-loop oracle
            assert brute_mutual_information(state.amplitudes, 1, frag, 4) == pytest.approx(
                value, abs=1e-9
            )

    def test_density_input_matches_pure_input(self, rng):
        psi = as_state(random_pure_array(4, rng))
        for frag in [(2,), (3, 4), (2, 3, 4)]:
            assert mutual_information(density(psi), 1, frag) == pytest.approx(
                mutual_information(psi, 1, frag), abs=1e-9
            )

    def test_fragment_with_system_rejected(self, ghz4):
        with pytest.raises(ValueError, match="system"):
            mutual_information(ghz4, 1, (1, 2))

    @pytest.mark.parametrize("system", [2.5, 2.0, True, 0, 5])
    def test_system_must_be_an_integer_in_range(self, system):
        # 2.5 once gave the system-2 value
        with pytest.raises(ValueError, match=f"^system index {system} out of range$"):
            mutual_information(named_state("diamond-canonical"), system, [3])

    def test_empty_fragment_is_zero(self, ghz4):
        assert mutual_information(ghz4, 1, ()) == 0.0


class TestMICurve:
    def test_ten_qubit_star_plateau(self):
        curve = mi_curve(build_graph_state(star_spec(9, pi)), 1)
        for point in curve.points[:-1]:
            assert point.mean_mi == pytest.approx(1.0, abs=1e-9)
        assert curve.points[-1].mean_mi == pytest.approx(2.0, abs=1e-9)
        assert [p.n_fragments for p in curve.points] == [comb(9, d) for d in range(1, 10)]

    def test_four_qubit_diamond_mean_curve(self):
        graph = mi_curve(build_graph_state(diamond_spec(3, pi, pi)), 1)
        canonical = mi_curve(named_state("diamond-canonical"), 1)
        for curve in (graph, canonical):
            assert mean_values(curve) == pytest.approx([1 / 3, 5 / 3, 2.0], abs=1e-9)

    def test_full_environment_reaches_twice_system_entropy(self, rng):
        for n in (3, 4, 5):
            psi = as_state(random_pure_array(n, rng))
            curve = mi_curve(psi, 1)
            assert curve.points[-1].mean_mi == pytest.approx(2 * curve.system_entropy, abs=1e-9)

    def test_against_brute_oracle(self, rng):
        psi = as_state(random_pure_array(4, rng))
        curve = mi_curve(psi, 2)
        env = [1, 3, 4]
        for point in curve.points:
            values = [
                brute_mutual_information(psi.amplitudes, 2, f, 4)
                for f in itertools.combinations(env, point.delta)
            ]
            assert point.mean_mi == pytest.approx(float(np.mean(values)), abs=1e-9)
            assert point.min_mi == pytest.approx(float(np.min(np.clip(values, 0, None))), abs=1e-9)
            assert point.max_mi == pytest.approx(float(np.max(values)), abs=1e-9)

    def test_star_symmetry_min_equals_max(self):
        curve = mi_curve(build_graph_state(star_spec(5, pi)), 1)
        for point in curve.points:
            assert point.max_mi - point.min_mi <= 1e-12

    def test_permutation_covariance(self, rng):
        psi = as_state(random_pure_array(4, rng))
        base = mi_curve(psi, 1)
        # relabel environment qubits 2,3,4 -> 3,4,2 by permuting tensor axes
        tensor = psi.amplitudes.reshape([2] * 4)
        permuted = as_state(np.transpose(tensor, (0, 2, 3, 1)).reshape(-1))
        other = mi_curve(permuted, 1)
        for p, q in zip(base.points, other.points):
            assert q.mean_mi == pytest.approx(p.mean_mi, abs=1e-12)
            assert q.min_mi == pytest.approx(p.min_mi, abs=1e-12)
            assert q.max_mi == pytest.approx(p.max_mi, abs=1e-12)

    def test_monotone_under_fragment_growth(self, rng):
        for n in (3, 4, 5, 6):
            psi = as_state(random_pure_array(n, rng))
            env = list(range(2, n + 1))
            values = {}
            for delta in range(1, len(env) + 1):
                for frag in itertools.combinations(env, delta):
                    values[frag] = mutual_information(psi, 1, frag)
            for frag, value in values.items():
                for other, bigger in values.items():
                    if set(frag) < set(other):
                        assert value <= bigger + 1e-9

    def test_bound_by_twice_system_entropy(self, rng):
        for _ in range(3):
            psi = as_state(random_pure_array(5, rng))
            curve = mi_curve(psi, 1)
            h_s = curve.system_entropy
            for point in curve.points:
                assert point.max_mi <= 2 * min(h_s, point.delta) + 1e-9

    @pytest.mark.parametrize("system", [1.5, 1.0, True, 0, 7])
    @pytest.mark.parametrize("source", ["graph", "state"])
    def test_system_must_be_an_integer_in_range(self, source, system):
        spec = star_spec(5, pi)
        with pytest.raises(ValueError, match=f"^system index {system} out of range$"):
            mi_curve(spec if source == "graph" else build_graph_state(spec), system)

    def test_sample_size_below_two_rejected(self):
        # one draw has no standard error (ddof=1 would give NaN), none has no mean
        for size in (1, 0, -3):
            with pytest.raises(ValueError, match=f"sample_size must be at least 2 for a standard error, got {size}"):
                mi_curve(star_spec(5, pi), 1, max_exhaustive=4, sample_size=size)

    def test_a_sampled_curve_makes_one_stream_per_sampled_size(self, monkeypatch, rng):
        calls, stream = [], darwinism._rng

        def spy(seed, *key):
            calls.append((seed, *key))
            return stream(seed, *key)

        monkeypatch.setattr(darwinism, "_rng", spy)
        ket = as_state(random_pure_array(4, rng))
        sources = (diamond_spec(6, pi, pi), diamond_spec(6, pi, pi / 3), ket, density(ket))
        for source in sources:
            assert mi_curve(source, 1)._diagnostics["sampled_sizes"] == []
        assert calls == []
        curve = mi_curve(diamond_spec(6, pi, pi), 1, max_exhaustive=6, sample_size=5, seed=3)
        assert curve._diagnostics["sampled_sizes"] == [2, 3, 4]  # C(6, d) = 6, 15, 20, 15, 6, 1
        assert calls == [(3, darwinism._CURVE_STREAM, d) for d in (2, 3, 4)]

    @pytest.mark.parametrize("seed", [None, 1.5, 3.0, "3", True, [1, 2], np.random.default_rng(5), np.random.SeedSequence(5)])
    @pytest.mark.parametrize("max_exhaustive", [_DEFAULT_MAX_EXHAUSTIVE, 0])
    def test_seed_must_be_an_integer(self, seed, max_exhaustive):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
            mi_curve(diamond_spec(4, pi, pi), 1, max_exhaustive=max_exhaustive, seed=seed)

    def test_seeds_are_integers_mod_2_64(self):
        spec = diamond_spec(6, pi, pi / 3)
        curve = partial(mi_curve, spec, 1, max_exhaustive=6, sample_size=20)
        assert curve(seed=np.int64(3)) == curve(seed=3) != curve(seed=4)
        assert curve(seed=-1) == curve(seed=np.uint64(2**64 - 1)) == curve(seed=2**64 - 1)
        assert curve(seed=2**70 + 5) == curve(seed=5)

    def test_sampled_fragments_deterministic(self, rng):
        psi = as_state(random_pure_array(6, rng))
        a = mi_curve(psi, 1, max_exhaustive=4, sample_size=40, seed=5)
        b = mi_curve(psi, 1, max_exhaustive=4, sample_size=40, seed=5)
        assert a.points == b.points
        sampled = [p for p in a.points if p.stderr is not None]
        assert sampled, "expected at least one sampled point"
        for point in sampled:
            assert point.stderr >= 0.0


class TestEntropyBackends:
    def test_backend_from_input(self):
        assert _backend(star_spec(3, pi)) == "stabilizer"
        for phase in (-pi, 3 * pi, 0.0, 2 * pi, -5 * pi):
            assert _backend(GraphSpec(3, ((1, 2, pi), (2, 3, phase)))) == "stabilizer"
        # evolve_ising's phases -g t
        couplings = {(1, 2): pi / 0.7, (2, 3): -pi / 0.7}
        spec = GraphSpec(3, tuple((j, k, -g * 0.7) for (j, k), g in couplings.items()))
        assert _backend(spec) == "stabilizer"
        assert _backend(star_spec(3, pi + 1e-9)) == "weighted-graph"
        assert _backend(diamond_spec(3, pi, pi / 3)) == "weighted-graph"
        assert _backend(named_state("ghz4")) == "dense-pure"
        assert _backend(density(named_state("ghz4"))) == "dense-mixed"

    def test_stabilizer_matches_dense_per_fragment(self, rng):
        for _ in range(40):
            n = int(rng.integers(3, 10))
            spec = _random_graph(n, rng, [pi, -pi, 3 * pi, 0.0])
            system = int(rng.integers(1, n + 1))
            assert _backend(spec) == "stabilizer"
            curve = mi_curve(spec, system)
            state = build_graph_state(spec)
            _assert_curve_matches(curve, _per_fragment_curve(state, system, _exhaustive(n, system)))
            assert curve.system_entropy == pytest.approx(mi_curve(state, system).system_entropy, abs=1e-12)

    def test_stabilizer_matches_ising_evolution(self):
        spec = diamond_spec(5, pi, pi)
        couplings = {(j, k): -phase for j, k, phase in spec.edges}
        _assert_curve_matches(
            mi_curve(spec, 1),
            [(p.mean_mi, p.min_mi, p.max_mi) for p in mi_curve(evolve_ising(6, couplings, 1.0), 1).points],
        )

    def test_pure_kernel_matches_brute_partial_traces(self, rng):
        for n in range(1, 7):
            psi = random_pure_array(n, rng)
            rho = np.outer(psi, psi.conj())
            for size in range(0, n + 1):
                subsets = list(itertools.combinations(range(1, n + 1), size))
                expected = [brute_entropy(brute_partial_trace(rho, s, n)) if s else 0.0 for s in subsets]
                assert _pure_entropies(psi, subsets) == pytest.approx(expected, abs=1e-12)

    def test_pure_curve_matches_brute_oracle(self, rng):
        for n in (2, 4, 6):
            psi = random_pure_array(n, rng)
            system = int(rng.integers(1, n + 1))
            expected = []
            for fragments in _exhaustive(n, system):
                values = [brute_mutual_information(psi, system, f, n) for f in fragments]
                expected.append((float(np.mean(values)), max(min(values), 0.0), max(values)))
            _assert_curve_matches(mi_curve(as_state(psi), system), expected)

    def test_weighted_graph_matches_per_fragment_at_n_env_9(self):
        spec = diamond_spec(9, pi, pi / 3)
        assert _backend(spec) == "weighted-graph"
        state = build_graph_state(spec)
        for source in (spec, state):
            _assert_curve_matches(mi_curve(source, 1), _per_fragment_curve(state, 1, _exhaustive(10, 1)))

    def test_weighted_kernel_matches_brute_partial_traces(self, rng):
        for trial in range(12):
            n = 1 + trial % 6
            phases = [float(rng.uniform(-2 * pi, 2 * pi)), pi / 3, -pi, 2 * pi, 0.0]
            spec = _random_graph(n, rng, phases)
            psi = graph_state_amplitudes(n, spec.edges)
            rho = np.outer(psi, psi.conj())
            for size in range(0, n + 1):
                subsets = list(itertools.combinations(range(1, n + 1), size))
                expected = [brute_entropy(brute_partial_trace(rho, s, n)) if s else 0.0 for s in subsets]
                assert _weighted_entropies(spec, subsets) == pytest.approx(expected, abs=1e-12)

    def test_weighted_star_closed_form(self):
        # h(m): binary entropy of (1 + |cos(phi/2)|^m) / 2; I(k) = h(n) + h(k) - h(n - k)
        for n, phi in ((6, pi / 3), (7, 2.0)):
            h = [binary_entropy((1 + abs(np.cos(phi / 2)) ** m) / 2) for m in range(n + 1)]
            curve = mi_curve(star_spec(n, phi), 1)
            assert curve.system_entropy == pytest.approx(h[n], abs=1e-12)
            _assert_curve_matches(curve, [(h[n] + h[k] - h[n - k],) * 3 for k in range(1, n + 1)])

    def test_star_curve_runs_one_cut_block_per_size(self, monkeypatch):
        import qdarwin.darwinism as darwinism

        shapes = []

        def spy(mats):
            shapes.append(mats.shape)
            return _entropy_batch(mats)

        monkeypatch.setattr(darwinism, "_entropy_batch", spy)
        mi_curve(star_spec(8, pi / 3), 1)
        # one chunk holds H_S and sizes 1..8, and R runs over the hub, the
        # smaller coupled side: one block per size, H_S's being size 8's,
        # each solved as the two 1 x 1 halves of its 2 x 2 R
        assert shapes == [(8, 2, 1, 1)]

    def test_every_size_sampled_from_spec_ket_and_density(self):
        spec = diamond_spec(5, pi / 2, pi / 3)
        state = build_graph_state(spec)
        curves = [mi_curve(source, 1, max_exhaustive=0, sample_size=40) for source in (spec, state, density(state))]
        assert all(p.stderr is not None for p in curves[0].points)
        for curve in curves[1:]:
            _assert_curve_matches(curve, [(p.mean_mi, p.min_mi, p.max_mi) for p in curves[0].points])
            for point, reference in zip(curve.points, curves[0].points):
                assert point.stderr == pytest.approx(reference.stderr, abs=1e-12)

    def test_cuts_without_cross_edges(self):
        # qubits 4 and 5 are isolated: the cuts {4}, {5}, {4, 5} and {1, 2, 3} carry no edge
        spec = GraphSpec(5, ((1, 2, pi / 3), (2, 3, 1.1), (1, 3, -0.7)))
        amplitudes = build_graph_state(spec).amplitudes
        for size in range(0, 6):
            subsets = list(itertools.combinations(range(1, 6), size))
            assert _weighted_entropies(spec, subsets) == pytest.approx(
                _pure_entropies(amplitudes, subsets), abs=1e-12
            )
        for subsets in ([(4,), (5,)], [(4, 5)], [(1, 2, 3)]):
            assert list(_weighted_entropies(spec, subsets)) == [0.0] * len(subsets)
        _assert_curve_matches(
            mi_curve(spec, 2), [(p.mean_mi, p.min_mi, p.max_mi) for p in mi_curve(as_state(amplitudes), 2).points]
        )

    def test_density_matrix_curve_bit_identical_to_per_fragment(self, rng):
        rho = as_density(random_density_array(4, rng))
        curve = mi_curve(rho, 2)
        for point, (mean, lo, hi) in zip(curve.points, _per_fragment_curve(rho, 2, _exhaustive(4, 2))):
            assert (point.min_mi, point.max_mi) == (lo, hi)
            assert point.mean_mi == min(max(mean, lo), hi)

    def test_sampled_sizes_keep_their_draws(self, rng):
        spec = _random_graph(7, rng, [pi, 0.0])
        sources = [
            spec,
            diamond_spec(6, pi, pi / 3),
            as_state(random_pure_array(7, rng)),
            as_density(random_density_array(5, rng)),
        ]
        for source in sources:
            n = source.n_qubits
            env = list(range(2, n + 1))
            fragments_by_size = [
                list(itertools.combinations(env, d)) if comb(n - 1, d) <= 4 else _draws(env, d, 30, 5)
                for d in range(1, n)
            ]
            curve = mi_curve(source, 1, max_exhaustive=4, sample_size=30, seed=5)
            state = build_graph_state(source) if isinstance(source, GraphSpec) else source
            _assert_curve_matches(curve, _per_fragment_curve(state, 1, fragments_by_size))
            for point, fragments in zip(curve.points, fragments_by_size):
                if point.stderr is None:
                    assert comb(n - 1, point.delta) <= 4
                    continue
                values = [mutual_information(state, 1, f) for f in fragments]
                assert point.stderr == pytest.approx(np.std(values, ddof=1) / np.sqrt(30), abs=1e-12)
                assert point.n_fragments == 30

    def test_large_sizes_run_in_chunks_with_bounded_memory(self):
        # sizes of more than 4096 fragments are evaluated a chunk at a time;
        # the chunks must keep their order (complement tables are paired in
        # reverse) and no size's fragment tuples may be held all at once
        import tracemalloc

        spec = diamond_spec(16, pi, pi)
        env = list(range(2, 18))
        tracemalloc.start()
        try:
            curve = mi_curve(spec, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6  # 12 MB with every fragment of every size held as tuples
        h_s = _graph_entropies(spec, [(1,)])[0]
        for d in (7, 8, 9):
            fragments = list(itertools.combinations(env, d))
            assert len(fragments) > 4096
            h_sf = _graph_entropies(spec, [tuple(q for q in env if q not in f) for f in fragments])
            values = h_s + _graph_entropies(spec, fragments) - h_sf
            point = curve.points[d - 1]
            assert (point.mean_mi, point.min_mi, point.max_mi) == pytest.approx(
                (values.mean(), values.min(), values.max()), abs=1e-12
            )

    def test_stabilizer_curve_builds_no_state(self, monkeypatch):
        monkeypatch.setenv("QDARWIN_MAX_QUBITS", "4")
        curve = mi_curve(star_spec(5, pi), 1)
        assert mean_values(curve) == [1.0, 1.0, 1.0, 1.0, 2.0]
        with pytest.raises(ValueError, match="cap"):
            mi_curve(star_spec(5, pi / 3), 1)


def _oracle_rank(spec, subset):
    """GF(2) rank of Gamma[A, not A], read off the edge list by gf2_rank."""
    edges = {frozenset((j, k)) for j, k, phase in spec.edges if abs(math.remainder(phase, 2 * pi)) > pi / 2}
    outside = [q for q in range(1, spec.n_qubits + 1) if q not in subset]
    return gf2_rank([[int(frozenset((a, b)) in edges) for b in outside] for a in subset])


def _stream(env, system, sizes, drawn, joint_xor):
    """The masks mi_curve hands its kernel: S, every fragment of each size
    not drawn, then the drawn fragments by size, then those XOR joint_xor."""
    stream = [1 << (system - 1)]
    for d in sizes:
        stream += [] if d in drawn else list(_masks(itertools.combinations(env, d)))
    for x in (0, joint_xor):
        for d in sorted(drawn):
            stream += [int(f) ^ x for f in drawn[d]]
    return [int(x) for x in stream]


class TestMaskEnumeration:
    def test_packed_ranks_match_row_reduction(self, rng):
        for n in (1, 2, 5, 8, 11, 12, 12):
            spec = _random_graph(n, rng, [pi, -pi, 3 * pi, 0.0])
            for size in range(0, n + 1):  # the empty and the full subset too
                subsets = list(itertools.combinations(range(1, n + 1), size))
                expected = [_oracle_rank(spec, s) for s in subsets]
                assert list(_graph_entropies(spec, subsets)) == expected
                assert list(_graph_entropies(spec, _masks(subsets))) == expected

    @pytest.mark.parametrize("n", [31, 32, 33])
    def test_ranks_at_the_word_boundary(self, rng, n):
        # up to 32 qubits the ranks run in uint32 words; the same graph padded
        # with isolated qubits to 64 runs in uint64 words, with the same ranks
        spec = _random_graph(n, rng, [pi, -pi, 3 * pi])
        masks = rng.integers(0, 2**n, size=500, dtype=np.uint64)
        masks[:4] = [0, 2**n - 1, 1 << (n - 1), 2**n - 2]  # empty, full, the top qubit alone, all but qubit 1
        ranks = _graph_entropies(spec, masks)
        assert list(ranks) == list(_graph_entropies(GraphSpec(64, spec.edges), masks))
        subsets = [tuple(q for q in range(1, n + 1) if int(m) >> (q - 1) & 1) for m in masks[:40]]
        assert list(ranks[:40]) == [_oracle_rank(spec, s) for s in subsets]

    def test_stabilizer_curve_from_oracle_ranks(self, rng):
        for n in (6, 9, 12):
            spec = _random_graph(n, rng, [pi, -pi, 3 * pi, 0.0])
            system = int(rng.integers(1, n + 1))
            env = [q for q in range(1, n + 1) if q != system]
            h_s = _oracle_rank(spec, (system,))
            curve = mi_curve(spec, system)
            for d in range(1, n):
                values = np.array(
                    [h_s + _oracle_rank(spec, f) - _oracle_rank(spec, f + (system,))
                     for f in itertools.combinations(env, d)],
                    dtype=float,
                )
                point = curve.points[d - 1]
                assert (point.min_mi, point.max_mi) == (values.min(), values.max())
                assert point.mean_mi == pytest.approx(values.mean(), abs=1e-12)

    def test_fragment_masks_follow_combinations(self):
        # every system position; a pure curve's parts, then also a density
        # curve's S u F parts (the fragments XOR the system bit); each
        # symmetric run of sizes lo..m - lo left out, as sampled sizes are
        for m in range(0, 11):
            for system in range(1, m + 2):
                env = [q for q in range(1, m + 2) if q != system]
                by_size = [[int(x) for x in _masks(itertools.combinations(env, d))] for d in range(m + 1)]
                for lo in range(1, m // 2 + 2):
                    kept = [d for d in range(1, m + 1) if not lo <= d <= m - lo]
                    for flips in ((0,), (0, 1 << (system - 1))):
                        parts = [(0, 1 << (system - 1))] + [(d, x) for x in flips for d in kept]
                        masks = np.concatenate(list(_fragments(_masks([[q] for q in env]), parts)))
                        assert masks.tolist() == [f ^ x for d, x in parts for f in by_size[d]]

    def test_fragment_masks_come_at_most_2_16_at_a_time(self):
        pieces = _fragments(_masks([[q] for q in range(1, 21)]), [(d, 0) for d in range(1, 11)])
        assert [len(piece) for piece in pieces][-3:] == [2**16, 2**16, comb(20, 10) - 2**17]

    @pytest.mark.parametrize("chunk", [1, 5, 7, 64])
    def test_chunks_cut_across_sizes(self, monkeypatch, chunk):
        spec, system = diamond_spec(6, pi, pi), 3
        env = [q for q in range(1, 8) if q != system]
        calls = []

        def spy(source, masks):
            calls.append([int(x) for x in masks])
            return _graph_entropies(source, masks)

        for max_exhaustive in (10**6, 10):
            reference = mi_curve(spec, system, max_exhaustive=max_exhaustive, sample_size=9, seed=4)
            monkeypatch.setattr(darwinism, "_CHUNK", chunk)
            monkeypatch.setattr(darwinism, "_graph_entropies", spy)
            calls.clear()
            curve = mi_curve(spec, system, max_exhaustive=max_exhaustive, sample_size=9, seed=4)
            monkeypatch.undo()
            drawn = {d: _masks(_draws(env, d, 9, 4)) for d in range(1, 7) if comb(6, d) > max_exhaustive}
            stream = _stream(env, system, range(1, 7), drawn, sum(1 << (q - 1) for q in env))
            assert [len(c) for c in calls[:-1]] == [chunk] * (len(calls) - 1)
            assert 0 < len(calls[-1]) <= chunk
            assert sum(calls, []) == stream
            assert curve == reference

    def test_density_stream_pairs_every_fragment_with_the_system(self, monkeypatch, rng):
        rho, system = as_density(random_density_array(4, rng)), 2
        env = [1, 3, 4]
        seen, by_size = [], darwinism._by_size

        def spy(kernel, n, system, masks):
            seen.extend(int(x) for x in masks)
            return by_size(kernel, n, system, masks)

        monkeypatch.setattr(darwinism, "_CHUNK", 5)
        monkeypatch.setattr(darwinism, "_by_size", spy)
        mi_curve(rho, system)
        fragments = _stream(env, system, range(1, 4), {}, 0)[1:]
        assert seen == [1 << (system - 1)] + fragments + [f | 1 << (system - 1) for f in fragments]

    def test_curve_reports_the_enumeration_that_ran(self):
        # C(6, d) = 6, 15, 20, 15, 6, 1: sizes 2, 3 and 4 are drawn
        curve = mi_curve(diamond_spec(6, pi, pi / 3), 1, max_exhaustive=10, sample_size=7)
        assert curve._diagnostics == {
            "backend": "weighted-graph",
            "fragments_exhaustive": 13,
            "fragments_sampled": 21,
            "sampled_sizes": [2, 3, 4],
            "sample_size": 7,
            "seed": 1789,
            "eigenproblems": 14,
        }

    def test_sampled_sizes_are_those_above_max_exhaustive(self):
        spec = diamond_spec(6, pi, pi)  # C(6, d) = 6, 15, 20, 15, 6, 1
        for max_exhaustive in (0, 1, 5, 6, 14, 15, 19, 20):
            curve = mi_curve(spec, 1, max_exhaustive=max_exhaustive, sample_size=5)
            sampled = [d for d in range(1, 7) if comb(6, d) > max_exhaustive]
            assert curve._diagnostics["sampled_sizes"] == sampled
            assert [p.delta for p in curve.points if p.stderr is not None] == sampled

    def test_a_sampled_size_keeps_its_draws_whatever_else_is_sampled(self, rng):
        # C(8, d) = 8, 28, 56, 70, 56, 28, 8, 1; a random state gives each fragment its own value
        state = as_state(random_pure_array(9, rng))
        curves = [mi_curve(state, 1, max_exhaustive=m, sample_size=40) for m in (0, 8, 27, 55, 69)]
        for d in range(1, 9):
            sampled = {curve.points[d - 1] for curve in curves if d in curve._diagnostics["sampled_sizes"]}
            assert len(sampled) == 1

    def test_draws_are_uniform_subsets_of_the_environment(self, monkeypatch):
        # 3000 draws of each size of a 6-qubit environment, system 3; every
        # subset of a size is as likely: chi-square below its 0.999 quantile
        spec, system, draws = diamond_spec(6, pi, pi), 3, 3000
        env_mask = sum(1 << (q - 1) for q in range(1, 8) if q != system)
        masks = []

        def spy(source, chunk):
            masks.extend(int(x) for x in chunk)
            return _graph_entropies(source, chunk)

        monkeypatch.setattr(darwinism, "_graph_entropies", spy)
        mi_curve(spec, system, max_exhaustive=0, sample_size=draws, seed=11)
        quantile = {5: 20.515, 14: 36.123, 19: 43.820}  # of chi-square with C(6, d) - 1 degrees of freedom
        for d in range(1, 7):
            drawn = np.array(masks[1 + (d - 1) * draws : 1 + d * draws], dtype=np.uint64)
            assert (np.bitwise_count(drawn) == d).all() and (drawn & ~np.uint64(env_mask) == 0).all()
            counts = np.unique(drawn, return_counts=True)[1]
            assert len(counts) == comb(6, d)
            if d < 6:
                expected = draws / comb(6, d)
                assert ((counts - expected) ** 2 / expected).sum() < quantile[comb(6, d) - 1]

    def test_sampled_means_lie_within_3_stderr_of_the_exact_means(self):
        spec = diamond_spec(16, pi, pi)
        exact, sampled = mi_curve(spec, 1), mi_curve(spec, 1, max_exhaustive=0)
        assert sampled._diagnostics["sampled_sizes"] == list(range(1, 17))
        for e, s in zip(exact.points, sampled.points):
            assert abs(s.mean_mi - e.mean_mi) <= 3 * s.stderr + 1e-12
            assert e.min_mi <= s.min_mi <= s.max_mi <= e.max_mi

    def test_default_curve_of_24_qubits_is_exact(self):
        # 1000 draws of sizes 10-13 read size 10's max_mi as 1.0 and size 13's
        # min_mi as 1.0; the enumerated extremes are 2.0 and 0.0
        curve = mi_curve(diamond_spec(23, pi, pi), 1)
        assert curve._diagnostics["sampled_sizes"] == []
        assert all(p.stderr is None for p in curve.points)
        assert (curve.points[9].max_mi, curve.points[12].min_mi) == (2.0, 0.0)

    def test_64_qubits_with_the_system_on_the_top_bit(self):
        spec = GraphSpec(64, tuple((q, 64, pi) for q in range(1, 64)))
        curve = mi_curve(spec, 64, max_exhaustive=100, sample_size=20)
        assert mean_values(curve) == [1.0] * 62 + [2.0]
        assert curve._diagnostics["fragments_exhaustive"] == 63 + 63 + 1

    def test_graph_specs_beyond_64_qubits_fail_before_allocating(self, monkeypatch):
        import tracemalloc

        def fail(*args):
            raise AssertionError("a kernel ran")

        monkeypatch.setattr(darwinism, "_graph_entropies", fail)
        monkeypatch.setattr(darwinism, "_weighted_entropies", fail)
        monkeypatch.setenv("QDARWIN_MAX_QUBITS", "100")
        for phase in (pi, pi / 3):
            spec = star_spec(64, phase)
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="limit of 64"):
                    mi_curve(spec, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 50_000


def _raw_block(spec, subset):
    """W of one cut by _weighted_entropies' definition, in label order: the
    phases (mod 2 pi, into [-pi, pi]) between the qubits with a cross edge,
    rows on the side with fewer of them, the subset itself on a tie."""
    phase = {}
    for j, k, p in spec.edges:
        phase[j, k] = phase[k, j] = math.remainder(p, 2 * pi) + 0.0
    inside = set(subset)
    outside = [q for q in range(1, spec.n_qubits + 1) if q not in inside]
    ours = [q for q in sorted(inside) if any(phase.get((q, r), 0.0) for r in outside)]
    theirs = [q for q in outside if any(phase.get((q, r), 0.0) for r in inside)]
    rows, cols = (ours, theirs) if len(ours) <= len(theirs) else (theirs, ours)
    return np.array([[phase.get((r, c), 0.0) for c in cols] for r in rows]).reshape(len(rows), len(cols))


def _raw_entropies(blocks):
    """_coupling_entropies of every block on its own shape, with no merging
    (0 for a block without rows)."""
    out = np.zeros(len(blocks))
    for shape in {b.shape for b in blocks if b.shape[0]}:
        pick = [i for i, b in enumerate(blocks) if b.shape == shape]
        out[pick] = _coupling_entropies(np.stack([blocks[i] for i in pick]))
    return out


def _full_r_entropies(w):
    """Entropies of the whole 2^s x 2^s R of each block in a (B, s, t) stack,
    R[x, y] = 2^-s prod_j cos(c_j(x) / 2 - c_j(y) / 2), with no flip split."""
    s = w.shape[1]
    half = np.swapaxes(w, 1, 2) @ ((np.arange(2**s) >> np.arange(s)[:, None]) & 1) / 2  # (B, t, 2^s)
    mats = np.full((len(w), 2**s, 2**s), 2.0**-s)
    for j in range(w.shape[2]):
        mats *= np.cos(half[:, j, :, None] - half[:, j, None, :])
    return _entropy_batch(mats)


def _count_matrices(monkeypatch):
    """The number of matrices each later _entropy_batch call receives."""
    counts = []

    def spy(mats):
        counts.append(len(mats))
        return _entropy_batch(mats)

    monkeypatch.setattr(darwinism, "_entropy_batch", spy)
    return counts


def _pad(blocks):
    """Blocks of s rows padded with zero columns to one width, as
    _weighted_entropies gathers them."""
    width = max(b.shape[1] for b in blocks)
    return np.stack([np.pad(b, ((0, 0), (0, width - b.shape[1]))) for b in blocks])


class TestBlockClasses:
    def test_merged_blocks_match_raw_blocks_and_oracle(self, rng, monkeypatch):
        counts = _count_matrices(monkeypatch)
        solved, distinct = 0, 0
        for n in (3, 5, 7, 8, 9, 10):
            spec = _random_graph(n, rng, [pi / 3, -pi / 3, 2 * pi / 3, -pi / 2])
            psi = graph_state_amplitudes(n, spec.edges)
            subsets = [s for d in range(n + 1) for s in itertools.combinations(range(1, n + 1), d)]
            counts.clear()
            merged = _weighted_entropies(spec, subsets)
            solved += sum(counts)
            blocks = [_raw_block(spec, s) for s in subsets]
            assert merged == pytest.approx(_raw_entropies(blocks), abs=1e-12)
            assert merged == pytest.approx([brute_pure_entropy(psi, s, n) for s in subsets], abs=1e-12)
            if n <= 5:
                rho = np.outer(psi, psi.conj())
                expected = [brute_entropy(brute_partial_trace(rho, s, n)) if s else 0.0 for s in subsets]
                assert merged == pytest.approx(expected, abs=1e-12)
            distinct += len({(b.shape, b.tobytes()) for b in blocks if b.shape[0]})
        # blocks equal up to row and column order share one matrix
        assert solved < distinct

    @pytest.mark.parametrize("n_env", [5, 8, 11])
    def test_every_merged_group_carries_one_entropy(self, n_env):
        spec = diamond_spec(n_env, pi, pi / 3)
        n = n_env + 1
        subsets = [s for d in range(n + 1) for s in itertools.combinations(range(1, n + 1), d)]
        blocks = [_raw_block(spec, s) for s in subsets]
        raw = _raw_entropies(blocks)
        assert _weighted_entropies(spec, subsets) == pytest.approx(raw, abs=1e-12)
        merges = 0
        for s in {b.shape[0] for b in blocks} - {0}:
            pick = [i for i, b in enumerate(blocks) if b.shape[0] == s]
            groups = {}
            for i, key in zip(pick, _canonical(_pad([blocks[i] for i in pick]).view(np.uint64))):
                groups.setdefault(key.tobytes(), []).append(i)
            for members in groups.values():
                assert np.ptp(raw[members]) <= 1e-12
            merges += len(pick) - len(groups)
        assert merges > 0

    def test_colour_refinement_blind_pair_kept_apart(self, monkeypatch):
        # two 4 x 4 blocks of pi/3 whose bipartite graphs are an 8-cycle and
        # two 4-cycles: every row and column meets two edges in both, so
        # colour refinement cannot tell them apart, and no reordering makes
        # them equal
        eight = [(1, 5), (1, 6), (2, 6), (2, 7), (3, 7), (3, 8), (4, 8), (4, 5)]
        two_fours = [(1, 5), (1, 6), (2, 5), (2, 6), (3, 7), (3, 8), (4, 7), (4, 8)]
        edges = [(j, k, pi / 3) for j, k in eight] + [(j + 8, k + 8, pi / 3) for j, k in two_fours]
        counts = _count_matrices(monkeypatch)
        merged = _weighted_entropies(GraphSpec(16, tuple(edges)), [(1, 2, 3, 4), (9, 10, 11, 12)])
        assert counts == [2]
        for value, pairs in zip(merged, (eight, two_fours)):
            psi = graph_state_amplitudes(8, [(j, k, pi / 3) for j, k in pairs])
            assert value == pytest.approx(brute_pure_entropy(psi, (1, 2, 3, 4), 8), abs=1e-12)
        assert merged == pytest.approx([1.916, 1.660], abs=1e-3)

    def test_canonical_order_only_permutes(self, rng):
        w = rng.choice([0.0, pi / 3, -pi / 3, 1.1], size=(50, 4, 6))
        out = _canonical(w.view(np.uint64))
        assert out.shape == w.shape
        for block, reordered in zip(w, out.view(float)):
            assert sorted(block.ravel()) == sorted(reordered.ravel())
            assert sorted(map(sorted, block)) == sorted(map(sorted, reordered))
            assert sorted(map(sorted, block.T)) == sorted(map(sorted, reordered.T))
        # a block with its rows and columns shuffled comes out the same
        shuffled = w[:, rng.permutation(4)][:, :, rng.permutation(6)]
        assert np.array_equal(_canonical(shuffled.view(np.uint64)), out)

    @pytest.mark.parametrize("s", range(1, 7))
    def test_flip_split_matches_the_whole_r(self, rng, s):
        # t < s, t = s and t > s, some columns all zero; s = 1 splits R into 1 x 1 halves
        for t in sorted({max(s - 1, 0), s, s + 3}):
            w = rng.choice([0.0, pi / 3, -pi / 3, 2 * pi / 3, pi, 1.1, -0.7], size=(20, s, t))
            w[:, :, rng.random(t) < 0.3] = 0.0
            assert _coupling_entropies(w) == pytest.approx(_full_r_entropies(w), abs=1e-12)

    def test_class_table_keeps_shapes_apart(self):
        # a hub with four leaves and a complete bipartite 2 x 2 graph: blocks
        # of shapes (1, 4) and (2, 2), both four times pi/3, so their bytes
        # are equal (rows are the smaller side, so no block has more rows
        # than columns)
        star = GraphSpec(5, tuple((1, k, pi / 3) for k in range(2, 6)))
        square = GraphSpec(4, tuple((j, k, pi / 3) for j in (1, 2) for k in (3, 4)))
        solved, expected = {}, []
        for spec, cut in ((star, (1,)), (square, (1, 2))):
            expected.append(brute_pure_entropy(graph_state_amplitudes(spec.n_qubits, spec.edges), cut, spec.n_qubits))
            assert _weighted_entropies(spec, [cut], solved)[0] == pytest.approx(expected[-1], abs=1e-12)
        assert [shape for shape, _ in solved] == [(1, 4), (2, 2)]
        assert len({key for _, key in solved}) == 1
        assert abs(expected[0] - expected[1]) > 0.05  # a shared entry would show

    @pytest.mark.parametrize("n_env, solved", [(10, 90), (12, 189), (14, 560)], ids=["n_env10", "n_env12", "n_env14"])
    def test_diamond_curve_matrix_count(self, monkeypatch, n_env, solved):
        # the blocks left after the pi leaves are peeled fall into these
        # classes up to row and column order (158, 358 and 941 without the
        # peel); n_env 14 runs over four chunks of masks, and a class met in
        # an earlier chunk is not solved again
        counts = _count_matrices(monkeypatch)
        curve = mi_curve(diamond_spec(n_env, pi, pi / 3), 1)
        assert sum(counts) == curve._diagnostics["eigenproblems"] == solved

    def test_canonical_form_runs_once_per_distinct_raw_block(self, monkeypatch):
        # after the peel the diamond's 1024 cuts give 227 byte-distinct raw
        # blocks (683 without it); only those are put in canonical form, and
        # they fall into 90 classes
        received, canonical = [], darwinism._canonical

        def spy(blocks):
            received.append(len(blocks))
            assert len({block.tobytes() for block in blocks}) == len(blocks)
            return canonical(blocks)

        monkeypatch.setattr(darwinism, "_canonical", spy)
        curve = mi_curve(diamond_spec(10, pi, pi / 3), 1)
        assert sum(received) == 227
        assert curve._diagnostics["eigenproblems"] == 90

    def test_stabilizer_ranks_are_bytes(self):
        spec = diamond_spec(6, pi, pi)
        ranks = _graph_entropies(spec, list(itertools.combinations(range(1, 8), 3)))
        assert ranks.dtype == np.uint8

    def test_byte_ranks_are_signed_before_the_subtraction(self, monkeypatch):
        # ranks that break H_S + H_F >= H_SF must fail the nonnegativity check, not wrap around a byte
        monkeypatch.setattr(darwinism, "_graph_entropies", lambda spec, masks: np.bitwise_count(masks).astype(np.uint8))
        with pytest.raises(ValueError, match="mutual information -3.0 violates nonnegativity"):
            mi_curve(diamond_spec(6, pi, pi), 1)


def _oracle_entropies(spec, subsets):
    psi = graph_state_amplitudes(spec.n_qubits, spec.edges)
    return [brute_pure_entropy(psi, cut, spec.n_qubits) for cut in subsets]


def _ulp_off(spec):
    """spec with every edge of phase exactly +-pi (mod 2 pi) moved 1 ulp towards 0."""
    def shift(phase):
        return math.nextafter(phase, 0.0) if abs(math.remainder(phase, 2 * pi)) == pi else phase
    return GraphSpec(spec.n_qubits, tuple((j, k, shift(p)) for j, k, p in spec.edges))


class TestPiPeel:
    """Cuts with a pi leaf, a qubit whose one cross edge is an exact CZ, lose
    it and its hub for 1 bit before any eigenproblem (_weighted_entropies)."""

    def test_random_graphs_match_the_oracle(self, rng, monkeypatch):
        counts = _count_matrices(monkeypatch)
        peeled, unpeeled = 0, 0
        for trial in range(42):
            n = 2 + trial % 7
            phases = [pi, -pi, 3 * pi, pi, pi / 3, -2.0, float(rng.uniform(-2 * pi, 2 * pi))]
            spec = _random_graph(n, rng, phases)
            subsets = [s for d in range(n + 1) for s in itertools.combinations(range(1, n + 1), d)]
            for source in (spec, _ulp_off(spec)):
                counts.clear()
                assert _weighted_entropies(source, subsets) == pytest.approx(_oracle_entropies(source, subsets), abs=1e-12)
                if source is spec:
                    peeled += sum(counts)
                else:
                    unpeeled += sum(counts)
        assert peeled < unpeeled / 2  # the peel fired, and only on exact pi edges

    def test_pi_is_exact_after_the_remainder(self):
        for phase, cz in ((pi, 1), (-pi, 1), (3 * pi, 1), (-3 * pi, 1), (math.nextafter(pi, 0.0), 0),
                          (math.nextafter(pi, 4.0), 0), (pi + 1e-13, 0), (pi / 3, 0), (2 * pi, 0)):
            tables = darwinism._graph_tables(GraphSpec(2, ((1, 2, phase),)))
            assert list(tables[3]) == [2 * cz, cz]

    @pytest.mark.parametrize(
        "edges, cut, bits",
        [
            # an isolated pi edge: both ends are hubs, and the pair is 1 bit
            (((1, 2, pi),), (1,), 1.0),
            (((1, 2, pi), (1, 3, pi / 3), (2, 4, -0.7)), (1, 3), 1.0),
            # a hub with three pi leaves (pi, -pi, 3 pi) and a weighted edge that the peel removes
            (((1, 2, pi), (1, 3, -pi), (1, 4, 3 * pi), (1, 5, pi / 3)), (1,), 1.0),
            (((1, 2, pi), (1, 3, -pi), (1, 4, 3 * pi), (1, 5, pi / 3)), (1, 5), 1.0),
            # two adjacent hubs, 2 and 3, with a leaf each
            (((1, 2, pi), (2, 3, pi / 3), (3, 4, pi)), (1, 3), 2.0),
            # the system of a diamond alone, and an environment qubit whose pi partner is its leaf
            (diamond_spec(4, pi, pi / 3).edges, (1,), 1.0),
            (diamond_spec(4, pi, pi / 3).edges, (2,), 1.0),
        ],
        ids=["isolated", "isolated-among-others", "hub-alone", "hub-with-a-neighbour", "two-hubs", "diamond-system",
             "diamond-environment-qubit"],
    )
    def test_a_cut_that_peels_to_nothing_solves_no_eigenproblem(self, monkeypatch, edges, cut, bits):
        spec = GraphSpec(max(max(j, k) for j, k, _ in edges), tuple(edges))
        calls, coupling = [], darwinism._coupling_entropies
        monkeypatch.setattr(darwinism, "_coupling_entropies", lambda w: calls.append(w.shape) or coupling(w))
        solved = {}
        assert list(_weighted_entropies(spec, [cut], solved)) == [bits]
        assert calls == [] and solved == {}
        assert bits == pytest.approx(_oracle_entropies(spec, [cut])[0], abs=1e-12)

    @pytest.mark.parametrize(
        "phase", [math.nextafter(pi, 0.0), math.nextafter(pi, 4.0), -math.nextafter(pi, 0.0)], ids=["below", "above", "negative"]
    )
    def test_pi_one_ulp_off_is_not_peeled(self, monkeypatch, phase):
        # the two-hub graph of the test above, with one pi edge 1 ulp off: only 3 -- 4 is peeled
        spec = GraphSpec(4, ((1, 2, phase), (2, 3, pi / 3), (3, 4, pi)))
        counts = _count_matrices(monkeypatch)
        subsets = [s for d in range(5) for s in itertools.combinations(range(1, 5), d)]
        assert _weighted_entropies(spec, subsets) == pytest.approx(_oracle_entropies(spec, subsets), abs=1e-12)
        counts.clear()
        value = _weighted_entropies(spec, [(1, 3)])[0]
        assert counts == [1]  # one block: the edge 1 -- 2
        assert value == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "spec, eigenproblems, digest",
        [
            (star_spec(10, pi / 3), 10, "6c1950ea97d482c2"),
            (diamond_spec(10, pi / 2, pi / 3), 158, "f407249e9bc88e45"),
        ],
        ids=["star", "diamond"],
    )
    def test_specs_without_an_exact_pi_edge_keep_their_bits(self, spec, eigenproblems, digest):
        # the eigenproblem counts and the JSON bytes (sha256 prefix) from before the peel existed
        curve = mi_curve(spec, 1)
        assert curve._diagnostics["eigenproblems"] == eigenproblems
        assert hashlib.sha256(curve.to_json().encode()).hexdigest()[:16] == digest

    def test_diamond_csv_keeps_its_bytes(self):
        # JSON values move by round-off (at most 1.3e-15 here); the 12-digit CSV does not
        curve = mi_curve(diamond_spec(10, pi, pi / 3), 1)
        assert hashlib.sha256(curve.to_csv().encode()).hexdigest()[:16] == "d62f0a30b1efeb32"


class TestCurveContainer:
    def _curve(self):
        return mi_curve(named_state("star-experimental"), 1)

    def test_csv_round_trip(self):
        curve = self._curve()
        text = curve.to_csv()
        assert text.splitlines()[0] == "delta,mean_mi,min_mi,max_mi,n_fragments,stderr"
        back = MICurve.from_csv(text, curve.system_entropy, curve.n_env)
        for orig, parsed in zip(curve.points, back.points):
            assert parsed.delta == orig.delta
            assert parsed.n_fragments == orig.n_fragments
            # 12 significant digits of precision
            assert parsed.mean_mi == pytest.approx(orig.mean_mi, abs=1e-10)
            assert parsed.min_mi == pytest.approx(orig.min_mi, abs=1e-10)
            assert parsed.max_mi == pytest.approx(orig.max_mi, abs=1e-10)

    def test_json_round_trip(self):
        curve = self._curve()
        back = MICurve.from_json_dict(json.loads(curve.to_json()))
        assert back == curve
        assert back.to_json() == curve.to_json() == curve_json(curve)

    def test_rejects_gapped_deltas(self):
        point = MIPoint(delta=2, mean_mi=1.0, min_mi=1.0, max_mi=1.0, n_fragments=3)
        with pytest.raises(ValueError, match="deltas"):
            MICurve(points=(point,), system_entropy=1.0, n_env=2)

    def test_csv_refuses_a_delta_zero_row(self):
        curve = self._curve()
        text = curve.to_csv().replace("\n", "\n0,0,0,0,1,\n", 1)  # a row before delta 1
        with pytest.raises(ValueError, match="deltas"):
            MICurve.from_csv(text, curve.system_entropy, curve.n_env)

    @pytest.mark.parametrize("text", ["", "\n\n", "delta,mean_mi,min_mi,max_mi\n1,1,1,1,3\n"])
    def test_csv_refuses_a_missing_or_wrong_header(self, text):
        with pytest.raises(ValueError, match="unexpected CSV header"):
            MICurve.from_csv(text, 1.0, 1)

    def test_rejects_disordered_band(self):
        point = MIPoint(delta=1, mean_mi=0.5, min_mi=0.9, max_mi=1.0, n_fragments=1)
        with pytest.raises(ValueError, match="min <= mean <= max"):
            MICurve(points=(point,), system_entropy=1.0, n_env=1)


def _point(delta=1, mean=1.0, lo=1.0, hi=1.0, count=1, stderr=None):
    return MIPoint(delta=delta, mean_mi=mean, min_mi=lo, max_mi=hi, n_fragments=count, stderr=stderr)


class TestCurveJson:
    """MICurve.to_json against json.dumps(..., indent=2) of the same fields."""

    @pytest.mark.parametrize("source", [
        diamond_spec(6, pi, pi),  # stabilizer
        diamond_spec(6, pi, pi / 3),  # weighted-graph
        build_graph_state(diamond_spec(5, pi, 0.4)),  # dense-pure
        density(build_graph_state(star_spec(4, pi / 3))),  # dense-mixed
        named_state("star-experimental"),
    ], ids=["stabilizer", "weighted-graph", "dense-pure", "dense-mixed", "named"])
    def test_every_backend_matches_the_indented_encoder(self, source):
        curve = mi_curve(source, 1)
        assert curve.to_json() == curve_json(curve)

    @pytest.mark.parametrize("source", [diamond_spec(8, pi, pi), diamond_spec(7, pi, pi / 3)])
    def test_a_sampled_curve_matches_it(self, source):
        curve = mi_curve(source, 2, max_exhaustive=10, sample_size=5)
        assert any(isinstance(p.stderr, float) for p in curve.points)
        assert curve.to_json() == curve_json(curve)

    @pytest.mark.parametrize("name, pipeline", [("star-experimental", "closed_form"),
                                                ("diamond-canonical", "reconstruction")])
    def test_an_estimated_curve_matches_it(self, name, pipeline):
        cfg = RunConfig(shots_per_setting=500, seed=4, bootstrap_resamples=5)
        curve = estimate_mi_curve(named_state(name), 1, cfg, pipeline)
        assert all(isinstance(p.stderr, float) for p in curve.points)
        assert curve.to_json() == curve_json(curve)

    def test_an_integer_entropy_read_back_matches_it(self):
        text = mi_curve(star_spec(3, pi), 1).to_json().replace('"system_entropy": 1.0,', '"system_entropy": 1,')
        curve = MICurve.from_json_dict(json.loads(text))
        assert curve.system_entropy == 1 and isinstance(curve.system_entropy, int)
        assert curve.to_json() == curve_json(curve) == text

    @pytest.mark.parametrize("stderr", [math.nan, math.inf, -math.inf, 0.0, 3])
    def test_nonfinite_and_integer_stderrs_match_it(self, stderr):
        curve = MICurve(points=(_point(stderr=stderr), _point(2, stderr=stderr)), system_entropy=1.0, n_env=2)
        assert curve.to_json() == curve_json(curve)

    @pytest.mark.parametrize("value", [-0.0, 1e-17, 5e-324, 0.1 + 0.2, 1e16, 2 / 3])
    def test_extreme_values_match_it(self, value):
        curve = MICurve(points=(_point(mean=value, lo=value, hi=value),), system_entropy=value, n_env=1)
        assert curve.to_json() == curve_json(curve)

    def test_one_point_and_no_points_match_it(self):
        one, empty = mi_curve(star_spec(1, pi), 1), MICurve(points=(), system_entropy=0.0, n_env=0)
        assert one.n_env == 1 and one.to_json() == curve_json(one)
        assert empty.to_json() == curve_json(empty) == '{\n  "system_entropy": 0.0,\n  "n_env": 0,\n  "points": []\n}\n'

    @pytest.mark.parametrize("source", [
        GraphSpec(1, ()),
        build_graph_state(GraphSpec(1, ())),
        density(build_graph_state(GraphSpec(1, ()))),
    ], ids=["stabilizer", "dense-pure", "dense-mixed"])
    def test_a_one_qubit_source_gives_the_empty_curve(self, source):
        curve = mi_curve(source, 1)
        assert (curve.points, curve.n_env) == ((), 0)
        assert curve.to_json() == curve_json(curve)
        assert curve.system_entropy == pytest.approx(0.0, abs=1e-12)  # a dense state's keeps its round-off

    @pytest.mark.parametrize("stderr", [[1.0], [1, 2], {"a": 1}, "a, b", "[", True])
    def test_a_field_json_spells_otherwise_matches_it(self, stderr):
        curve = MICurve(points=(_point(stderr=stderr), _point(2)), system_entropy=1.0, n_env=2)
        assert curve.to_json() == curve_json(curve)

    def test_a_numpy_integer_raises_the_encoders_type_error(self):
        curve = MICurve(points=(_point(delta=np.int64(1)),), system_entropy=1.0, n_env=1)
        with pytest.raises(TypeError) as expected:
            curve_json(curve)
        with pytest.raises(TypeError, match=re.escape(str(expected.value))):
            curve.to_json()


class TestCurveFromJson:
    def _data(self):
        return json.loads(mi_curve(star_spec(3, pi), 1).to_json())

    @pytest.mark.parametrize("field", ["system_entropy", "n_env", "points"])
    def test_refuses_a_missing_field(self, field):
        data = self._data()
        del data[field]
        with pytest.raises(ValueError, match=f"field '{field}' must be .*, got nothing"):
            MICurve.from_json_dict(data)

    @pytest.mark.parametrize("field", ["delta", "mean_mi", "min_mi", "max_mi", "n_fragments", "stderr"])
    def test_refuses_a_missing_point_field(self, field):
        data = self._data()
        del data["points"][1][field]
        with pytest.raises(ValueError, match=f"field '{field}' must be .*, got nothing"):
            MICurve.from_json_dict(data)

    def test_refuses_an_unknown_field(self):
        data = self._data()
        data["points"][0]["extra"] = 1
        with pytest.raises(ValueError, match="unexpected field 'extra'"):
            MICurve.from_json_dict(data)
        with pytest.raises(ValueError, match="unexpected field 'version'"):
            MICurve.from_json_dict({**self._data(), "version": 1})

    @pytest.mark.parametrize("field, value", [
        ("delta", True), ("delta", 1.0), ("delta", "1"), ("n_fragments", False), ("n_fragments", 3.0),
        ("mean_mi", "1.0"), ("min_mi", True), ("max_mi", None), ("stderr", "0.1"), ("stderr", False), ("stderr", [0.1]),
    ])
    def test_refuses_a_point_value_of_the_wrong_type(self, field, value):
        data = self._data()
        data["points"][0][field] = value
        with pytest.raises(ValueError, match=f"field '{field}' must be (int|int or float|int or float or NoneType), got "):
            MICurve.from_json_dict(data)

    @pytest.mark.parametrize("field, value", [("system_entropy", "1.0"), ("system_entropy", True),
                                              ("n_env", 3.0), ("n_env", True), ("points", {})])
    def test_refuses_a_curve_value_of_the_wrong_type(self, field, value):
        with pytest.raises(ValueError, match=f"field '{field}' must be "):
            MICurve.from_json_dict({**self._data(), field: value})

    @pytest.mark.parametrize("data", [[], "curve", None, {"system_entropy": 1.0, "n_env": 1, "points": [[1, 1.0]]}])
    def test_refuses_what_is_not_an_object(self, data):
        with pytest.raises(ValueError, match="expected a JSON object"):
            MICurve.from_json_dict(data)

    def test_takes_integers_as_numbers(self):
        data = self._data()
        data["points"][0].update(mean_mi=1, min_mi=1, max_mi=1, stderr=0)
        point = MICurve.from_json_dict(data).points[0]
        assert (point.mean_mi, point.min_mi, point.max_mi, point.stderr) == (1, 1, 1, 0)


class TestClassifier:
    def test_star_plateau(self):
        curve = mi_curve(build_graph_state(star_spec(9, pi)), 1)
        assert classify_curve(curve, 0.01) == "plateau"

    def test_diamond_growing(self):
        curve = mi_curve(build_graph_state(diamond_spec(9, pi, pi)), 1)
        assert classify_curve(curve, 0.01) == "growing"

    def test_constant_zero_is_other(self):
        points = tuple(
            MIPoint(delta=d, mean_mi=0.0, min_mi=0.0, max_mi=0.0, n_fragments=comb(3, d))
            for d in (1, 2, 3)
        )
        curve = MICurve(points=points, system_entropy=0.0, n_env=3)
        assert classify_curve(curve, 0.01) == "other"
        # also "other" when the state did carry information but none reached fragments
        curve = MICurve(points=points, system_entropy=1.0, n_env=3)
        assert classify_curve(curve, 0.01) == "other"

    def test_requires_three_points(self):
        points = (
            MIPoint(delta=1, mean_mi=1.0, min_mi=1.0, max_mi=1.0, n_fragments=2),
            MIPoint(delta=2, mean_mi=2.0, min_mi=2.0, max_mi=2.0, n_fragments=1),
        )
        curve = MICurve(points=points, system_entropy=1.0, n_env=2)
        with pytest.raises(ValueError, match="3"):
            classify_curve(curve, 0.01)

    def test_steps_within_stderr_are_not_growth(self):
        def curve(stderr):
            points = tuple(
                MIPoint(d, m, m, m, comb(4, d), stderr) for d, m in zip((1, 2, 3, 4), (0.5, 0.55, 0.6, 0.65))
            )
            return MICurve(points=points, system_entropy=1.0, n_env=4)

        assert classify_curve(curve(None), 0.01) == "growing"
        assert classify_curve(curve(0.05), 0.01) == "other"  # 0.05-bit steps against 2 * sqrt(2) * 0.05

    def test_four_qubit_diamond_growing(self):
        curve = mi_curve(named_state("diamond-canonical"), 1)
        assert classify_curve(curve, 0.01) == "growing"
