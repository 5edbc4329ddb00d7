"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion as it completes.
"""
import functools
import itertools
import time
from math import comb, pi

import numpy as np
import pytest

from conftest import as_density, as_state
from oracle_utils import (
    brute_mutual_information,
    density,
    mean_values,
    pauli_matrix,
    random_density_array,
    random_pure_array,
    states_equal_up_to_phase,
    two_branch_rho,
)
from qdarwin import (
    all_pauli_strings,
    build_graph_state,
    classify_curve,
    correlator_table,
    diamond_canonical_check,
    diamond_spec,
    estimate_correlators,
    estimate_mi_curve,
    evolve_ising,
    fidelity,
    ghz_state,
    mi_curve,
    mutual_information,
    named_state,
    partial_trace,
    pauli_expectation,
    plan_measurements,
    sample_setting,
    star_ghz_check,
    star_mutual_information,
    star_parameters,
    star_spec,
    subsystem_entropy,
    von_neumann_entropy,
)
from qdarwin.cli import run
from qdarwin.estimator import StarParameters
from qdarwin.measurement import RunConfig


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number} FAIL: {label}")
                raise
            print(f"[acceptance] criterion {number} PASS: {label}")
            return result

        return wrapper

    return decorate


@criterion(1, "star plateau at 1.0 for sizes 1..8 and 2.0 at 9, under 10 s")
def test_criterion_1_star_plateau():
    start = time.perf_counter()
    curve = mi_curve(build_graph_state(star_spec(9, pi)), 1)
    elapsed = time.perf_counter() - start
    for point in curve.points:
        expected = 2.0 if point.delta == 9 else 1.0
        assert point.mean_mi == pytest.approx(expected, abs=1e-9)
        assert point.n_fragments == comb(9, point.delta)
    assert elapsed < 10.0, f"curve took {elapsed:.2f} s"


@criterion(2, "diamond curve classifies growing and ends at 2 H_S; oracle-checked")
def test_criterion_2_diamond_breakdown():
    curve = mi_curve(build_graph_state(diamond_spec(9, pi, pi)), 1)
    assert classify_curve(curve, 0.01) == "growing"
    assert curve.points[-1].mean_mi == pytest.approx(2 * curve.system_entropy, abs=1e-9)
    # independent dense-loop oracle for the small diamonds
    for n_env in (3, 4, 5):
        state = build_graph_state(diamond_spec(n_env, pi, pi))
        fast = mi_curve(state, 1)
        env = range(2, n_env + 2)
        for point in fast.points:
            oracle = [
                brute_mutual_information(state.amplitudes, 1, f, n_env + 1)
                for f in itertools.combinations(env, point.delta)
            ]
            assert point.mean_mi == pytest.approx(float(np.mean(oracle)), abs=1e-9)


@criterion(3, "four-qubit star (1, 1, 2) and diamond (1/3, 5/3, 2) with per-fragment values")
def test_criterion_3_four_qubit_curves():
    star = mi_curve(build_graph_state(star_spec(3, pi)), 1)
    assert mean_values(star) == pytest.approx([1.0, 1.0, 2.0], abs=1e-9)

    for state in (build_graph_state(diamond_spec(3, pi, pi)), named_state("diamond-canonical")):
        diamond = mi_curve(state, 1)
        assert mean_values(diamond) == pytest.approx([1 / 3, 5 / 3, 2.0], abs=1e-9)

    canonical = named_state("diamond-canonical")
    per_fragment = {(2,): 1.0, (3,): 0.0, (4,): 0.0, (2, 3): 2.0, (2, 4): 2.0, (3, 4): 1.0}
    for fragment, expected in per_fragment.items():
        assert mutual_information(canonical, 1, fragment) == pytest.approx(expected, abs=1e-9)
        assert brute_mutual_information(canonical.amplitudes, 1, fragment, 4) == pytest.approx(
            expected, abs=1e-9
        )


@criterion(4, "local equivalences: star/GHZ4 and diamond/canonical fidelities = 1")
def test_criterion_4_local_equivalences():
    ghz = star_ghz_check()
    assert ghz.passed and ghz.fidelity == pytest.approx(1.0, abs=1e-9)
    diamond = diamond_canonical_check()
    assert diamond.passed and diamond.fidelity == pytest.approx(1.0, abs=1e-9)


@criterion(5, "pair-Hamiltonian evolution at g t = pi equals the graph state up to phase")
def test_criterion_5_hamiltonian_picture():
    for n_env in (3, 9):
        evolved = evolve_ising(n_env + 1, {(1, k): pi for k in range(2, n_env + 2)}, 1.0)
        graph = build_graph_state(star_spec(n_env, pi))
        assert states_equal_up_to_phase(evolved, graph, tol=1e-10)


@criterion(6, "measurement budget: 32 correlators / 17 settings; tomography reports 1296")
def test_criterion_6_measurement_budget():
    star = plan_measurements("star")
    assert star.counts["n_correlators"] == 32
    assert star.counts["n_settings"] == 17
    assert len(set(star.settings)) == 17
    for corr in star.correlators:
        assert any(
            all(c == "I" or c == s for c, s in zip(corr.labels, setting.labels))
            for setting in star.settings
        )
    full = plan_measurements("full_tomography")
    assert full.counts["n_correlators"] == 255
    assert full.counts["n_projectors"] == 6**4 == 1296


@criterion(7, "closed-form estimator: (P, C) = (1/2, 1/2) and exact-matrix agreement")
def test_criterion_7_closed_form_estimator():
    table = correlator_table(named_state("star-experimental"), all_pauli_strings(4))
    params = star_parameters(table)
    assert params.p == pytest.approx(0.5, abs=1e-10)
    assert params.c == pytest.approx(0.5 + 0j, abs=1e-10)
    values = [star_mutual_information(params, d) for d in (1, 2, 3)]
    assert values == pytest.approx([1.0, 1.0, 2.0], abs=1e-9)

    fragments = {1: (2,), 2: (2, 3), 3: (2, 3, 4)}
    for p in np.linspace(0.1, 0.9, 9):
        for frac in (0.0, 0.5, 1.0):
            c = frac * np.sqrt(p * (1 - p))
            model = StarParameters(p=float(p), c=complex(c))
            rho = as_density(two_branch_rho(float(p), complex(c)))
            for delta, fragment in fragments.items():
                exact = mutual_information(rho, 1, fragment)
                assert star_mutual_information(model, delta) == pytest.approx(exact, abs=1e-8)


@criterion(8, "finite statistics: 0.05-bit accuracy at 1e5 shots, sqrt-N error scaling")
def test_criterion_8_finite_statistics_pipeline():
    cfg = RunConfig(shots_per_setting=100_000, seed=7, bootstrap_resamples=500)
    star_curve = estimate_mi_curve(named_state("star-experimental"), 1, cfg, "closed_form")
    assert mean_values(star_curve) == pytest.approx([1.0, 1.0, 2.0], abs=0.05)
    assert all(p.stderr < 0.05 for p in star_curve.points)

    diamond_curve = estimate_mi_curve(named_state("diamond-canonical"), 1, cfg, "reconstruction")
    assert mean_values(diamond_curve) == pytest.approx([1 / 3, 5 / 3, 2.0], abs=0.05)
    assert all(p.stderr < 0.05 for p in diamond_curve.points)

    # error bars shrink as 1/sqrt(shots) across a 64x range
    star = density(named_state("star-experimental")).entries
    noisy = as_density(0.8 * star + 0.2 * np.eye(16) / 16)
    plan = plan_measurements("star")
    medians = []
    for shots in (1000, 4000, 16000, 64000):
        run_cfg = RunConfig(shots_per_setting=shots, seed=31)
        data = [sample_setting(noisy, s, run_cfg) for s in plan.settings]
        table = estimate_correlators(data, plan.correlators)
        medians.append(np.median([table.sigma(s) for s in plan.correlators]))
    for wide, narrow in zip(medians, medians[1:]):
        assert wide / narrow == pytest.approx(2.0, rel=0.1)

    # apparatus fidelities are out of scope; the fidelity path is validated
    # by the depolarized-GHZ identity instead
    ghz = ghz_state(4)
    depolarized = as_density(0.9 * density(ghz).entries + 0.1 * np.eye(16) / 16)
    assert fidelity(ghz, depolarized) == pytest.approx(0.90625, abs=1e-9)


@criterion(9, "module invariant suites and seeded CLI reproducibility")
def test_criterion_9_invariants(tmp_path):
    rng = np.random.default_rng(99)

    # entropy / partial-trace properties up to n = 6
    for n in (2, 4, 6):
        psi = as_state(random_pure_array(n, rng))
        cut = tuple(range(1, n // 2 + 1))
        rest = tuple(range(n // 2 + 1, n + 1))
        assert subsystem_entropy(psi, cut) == pytest.approx(subsystem_entropy(psi, rest), abs=1e-8)
    rho_a = random_density_array(2, rng)
    rho_b = random_density_array(2, rng)
    joint = as_density(np.kron(rho_a, rho_b))
    assert von_neumann_entropy(joint) == pytest.approx(
        von_neumann_entropy(as_density(rho_a)) + von_neumann_entropy(as_density(rho_b)), abs=1e-8
    )
    one = partial_trace(joint, (1, 3))
    two = partial_trace(partial_trace(joint, (1, 3, 4)), (1, 2))
    np.testing.assert_allclose(one.entries, two.entries, atol=1e-10)

    # Pauli round trip on random 4-qubit mixed states
    rho = as_density(random_density_array(4, rng))
    rebuilt = sum(
        pauli_expectation(rho, s) * pauli_matrix(s.labels) for s in all_pauli_strings(4)
    )
    np.testing.assert_allclose(rebuilt / 16, rho.entries, atol=1e-8)

    # monotonicity under fragment growth for pure global states
    psi = as_state(random_pure_array(5, rng))
    env = [2, 3, 4, 5]
    values = {
        frag: mutual_information(psi, 1, frag)
        for size in range(1, 5)
        for frag in itertools.combinations(env, size)
    }
    for small, value in values.items():
        for large, bigger in values.items():
            if set(small) < set(large):
                assert value <= bigger + 1e-9

    # byte-identical seeded CLI outputs
    args = ["estimate", "--named", "star-experimental", "--pipeline", "closed_form",
            "--shots", "2000", "--seed", "12", "--bootstrap", "20",
            "--timestamp", "2026-01-01T00:00:00+00:00"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(first)]) == 0
    assert run(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
