import itertools

import numpy as np
import pytest

from conftest import as_density
from oracle_utils import (
    brute_mutual_information_dm,
    density,
    eig2x2,
    maximally_mixed,
    mean_values,
    pauli_matrix,
    random_density_array,
    two_branch_rho,
)
from qdarwin import (
    CorrelatorTable,
    OutcomeCounts,
    StateVector,
    all_pauli_strings,
    correlator_table,
    diamond_mutual_information,
    estimate_correlators,
    ghz_state,
    mi_curve,
    mi_curve_from_counts,
    named_state,
    plan_measurements,
    reconstruct_density,
    star_mutual_information,
    star_parameters,
)
from qdarwin.estimator import (
    _C_TERMS,
    _P_TERMS,
    _Q_TERMS,
    STAR_CORRELATORS,
    StarParameters,
    _branch_eigenvalues,
    _star_populations,
    covering_setting,
)

ALL_STRINGS = all_pauli_strings(4)


def ideal_star_table() -> CorrelatorTable:
    return correlator_table(named_state("star-experimental"), ALL_STRINGS)


class TestCorrelatorTable:
    def test_ideal_star_values(self):
        table = correlator_table(named_state("star-experimental"), ["ZZZZ", "IIII", "ZIII"])
        assert table.value("ZZZZ") == pytest.approx(1.0, abs=1e-12)
        assert table.value("IIII") == pytest.approx(1.0, abs=1e-12)
        assert table.value("ZIII") == pytest.approx(0.0, abs=1e-12)

    def test_requires_four_qubits(self):
        with pytest.raises(ValueError, match="4 qubits"):
            correlator_table(ghz_state(3), ["ZZZ"])

    def test_rejects_out_of_range_value(self):
        with pytest.raises(ValueError, match="outside"):
            CorrelatorTable({"ZZZZ": 1.2})

    def test_rejects_bad_identity(self):
        with pytest.raises(ValueError, match="identity"):
            CorrelatorTable({"IIII": 0.9})
        CorrelatorTable({"IIII": (0.9, 0.2)})  # within its sigma


class TestReconstruction:
    def test_ghz_round_trip(self, ghz4):
        table = correlator_table(ghz4, ALL_STRINGS)
        rho = reconstruct_density(table)
        np.testing.assert_allclose(rho.entries, density(ghz4).entries, atol=1e-10)
        assert np.linalg.eigvalsh(rho.entries).min() >= -1e-9

    def test_identity_only_table_is_maximally_mixed(self):
        table = CorrelatorTable({s: (1.0 if s.weight == 0 else 0.0) for s in ALL_STRINGS})
        rho = reconstruct_density(table)
        np.testing.assert_allclose(rho.entries, np.eye(16) / 16, atol=1e-12)

    def test_canonical_diamond_round_trip(self):
        state = named_state("diamond-canonical")
        rho = reconstruct_density(correlator_table(state, ALL_STRINGS))
        np.testing.assert_allclose(rho.entries, density(state).entries, atol=1e-10)

    def test_random_mixed_round_trip(self, rng):
        for _ in range(4):
            rho = as_density(random_density_array(4, rng))
            rebuilt = reconstruct_density(correlator_table(rho, ALL_STRINGS))
            np.testing.assert_allclose(rebuilt.entries, rho.entries, atol=1e-9)

    def test_missing_strings_rejected(self):
        table = correlator_table(named_state("star-experimental"), ALL_STRINGS[:100])
        with pytest.raises(ValueError, match="missing"):
            reconstruct_density(table)

    def test_unphysical_flagged(self):
        # a "table" with exaggerated coherence cannot come from a state
        entries = {str(s): 0.0 for s in ALL_STRINGS}
        entries["IIII"] = 1.0
        entries["XXXX"] = 1.0
        entries["YYYY"] = 1.0
        entries["ZZZZ"] = -1.0
        rho = reconstruct_density(CorrelatorTable(entries))
        assert np.linalg.eigvalsh(rho.entries).min() < -1e-9


class TestStarParameters:
    def test_ideal_state_calibration(self):
        params = star_parameters(ideal_star_table())
        assert params.p == pytest.approx(0.5, abs=1e-10)
        assert params.c == pytest.approx(0.5 + 0j, abs=1e-10)
        assert params.consistent

    def test_pure_branch(self):
        table = correlator_table(StateVector.computational_basis("0101"), ALL_STRINGS)
        params = star_parameters(table)
        assert params.p == pytest.approx(1.0, abs=1e-10)
        assert abs(params.c) == pytest.approx(0.0, abs=1e-10)
        assert params.consistent

    def test_maximally_mixed_flagged(self):
        table = correlator_table(maximally_mixed(4), ALL_STRINGS)
        params = star_parameters(table)
        assert params.p == pytest.approx(1 / 16, abs=1e-10)
        assert abs(params.c) == pytest.approx(0.0, abs=1e-10)
        assert not params.consistent  # branch populations do not sum to one

    def test_recovers_generic_two_branch_state(self, rng):
        for p in np.linspace(0.1, 0.9, 9):
            c_max = np.sqrt(p * (1 - p))
            for c in (0.0, 0.5 * c_max, c_max * np.exp(0.4j), -0.9j * c_max):
                rho = as_density(two_branch_rho(float(p), complex(c)))
                params = star_parameters(correlator_table(rho, ALL_STRINGS))
                assert params.p == pytest.approx(float(p), abs=1e-10)
                assert params.c == pytest.approx(complex(c), abs=1e-10)

    def test_missing_strings(self):
        table = correlator_table(named_state("star-experimental"), ["ZZZZ"])
        with pytest.raises(ValueError, match="missing"):
            star_parameters(table)

    def test_sigma_propagation(self):
        entries = {s: (v, 0.01) for s, (v, _) in ideal_star_table().entries.items()}
        entries["IIII"] = (1.0, 0.01)
        params = star_parameters(CorrelatorTable(entries))
        assert params.sigma_p == pytest.approx(0.01 * 4 / 16)  # sqrt(16 sigmas) / 16
        assert params.sigma_c == pytest.approx(0.01 * 4 / 16)


class TestPauliEntryCoefficients:
    """P, Q and C are entries of rho = (1/16) sum_p <p> p, so each correlator's
    coefficient is the matching entry of its Pauli matrix."""

    @pytest.mark.parametrize(
        "terms,letters,row,col",
        [(_P_TERMS, "IZ", "0101", "0101"), (_Q_TERMS, "IZ", "1010", "1010"), (_C_TERMS, "XY", "0101", "1010")],
    )
    def test_coefficients_are_kronecker_matrix_entries(self, terms, letters, row, col):
        assert [s for s, _ in terms] == sorted({"".join(t) for t in itertools.product(letters, repeat=4)})
        for string, coeff in terms:
            assert coeff == pauli_matrix(string)[int(row, 2), int(col, 2)], string

    def test_star_correlators_are_the_strings_with_a_nonzero_entry(self):
        entries = [(0b0101, 0b0101), (0b1010, 0b1010), (0b0101, 0b1010)]
        nonzero = {s for s in ALL_STRINGS if any(pauli_matrix(s.labels)[e] != 0 for e in entries)}
        assert set(STAR_CORRELATORS) == nonzero
        assert len(STAR_CORRELATORS) == 32

    def test_populations_are_the_linear_inversion_entries(self, rng):
        for _ in range(5):
            rho = random_density_array(4, rng, rank=4)
            values = np.array([np.real(np.trace(rho @ pauli_matrix(s.labels))) for s in STAR_CORRELATORS])
            p, q, c = _star_populations(values)
            assert (p, q, c) == pytest.approx((rho[5, 5].real, rho[10, 10].real, rho[5, 10]), abs=1e-12)


class TestClosedFormMutualInformation:
    def test_ideal_star_curve(self):
        params = star_parameters(ideal_star_table())
        assert star_mutual_information(params, 1) == pytest.approx(1.0, abs=1e-9)
        assert star_mutual_information(params, 2) == pytest.approx(1.0, abs=1e-9)
        assert star_mutual_information(params, 3) == pytest.approx(2.0, abs=1e-9)

    def test_pure_branch_has_no_correlations(self):
        params = StarParameters(p=1.0, c=0.0)
        for delta in (1, 2, 3):
            assert star_mutual_information(params, delta) == pytest.approx(0.0, abs=1e-12)

    def test_branch_eigenvalues_consistent(self):
        for p in np.linspace(0.05, 0.95, 7):
            c = 0.8 * np.sqrt(p * (1 - p)) * np.exp(1.3j)
            params = StarParameters(p=float(p), c=complex(c))
            f_plus, f_minus = _branch_eigenvalues(params.p, params.c)
            assert f_plus + f_minus == pytest.approx(1.0, abs=1e-12)
            assert (f_plus, f_minus) == pytest.approx(eig2x2(float(p), complex(c)), abs=1e-10)

    def test_agrees_with_exact_matrix(self):
        # closed form vs dense-loop oracle over a (P, C) grid
        env = {1: (2,), 2: (2, 3), 3: (2, 3, 4)}
        for p in np.linspace(0.1, 0.9, 9):
            for frac in (0.0, 0.4, 0.8, 1.0):
                c = frac * np.sqrt(p * (1 - p))
                rho = two_branch_rho(float(p), complex(c))
                params = StarParameters(p=float(p), c=complex(c))
                for delta, frag in env.items():
                    exact = brute_mutual_information_dm(rho, 1, frag, 4)
                    assert star_mutual_information(params, delta) == pytest.approx(
                        exact, abs=1e-8
                    )

    def test_delta_validation(self):
        with pytest.raises(ValueError, match="delta"):
            star_mutual_information(StarParameters(p=0.5, c=0.5), 4)

    def test_inconsistent_inputs_rejected(self):
        bad = StarParameters(p=0.2, c=0.9)
        with pytest.raises(ValueError, match="two-branch"):
            star_mutual_information(bad, 3)

    @pytest.mark.parametrize("p,c", [(1.1, 0.0), (-0.05, 0.0), (0.5, 0.6)])
    def test_out_of_model_refused_at_every_fragment_size(self, p, c):
        # these gave -0.483, -0.290 and 1.0 bits at sizes 1 and 2
        for delta in (1, 2, 3):
            with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
                star_mutual_information(StarParameters(p=p, c=c), delta)

    def test_skewed_point_matches_dense_oracle(self):
        skew = StarParameters(p=0.3, c=0.25)
        exact = brute_mutual_information_dm(two_branch_rho(0.3, 0.25), 1, (2, 3, 4), 4)
        assert star_mutual_information(skew, 3) == pytest.approx(exact, abs=1e-9)

    def test_slightly_negative_p_inside_the_window(self):
        # P = -5e-10 is within the 1e-9 window; the binary entropy takes P
        # clipped to [0, 1], so the mutual information is 0, neither a NaN
        # nor a negative number of bits
        values = [star_mutual_information(StarParameters(p=-5e-10, c=0.0), d) for d in (1, 2)]
        assert values == [0.0, 0.0]


class TestMeasurementPlan:
    def test_star_budget(self):
        plan = plan_measurements("star")
        assert plan.counts == {"n_correlators": 32, "n_settings": 17}
        assert len(plan.correlators) == 32
        assert len(plan.settings) == 17

    def test_star_families(self):
        weights = sorted(
            "".join(sorted(s.labels)) for s in STAR_CORRELATORS
        )
        by_family = {}
        for s in STAR_CORRELATORS:
            by_family.setdefault("".join(sorted(s.labels)), []).append(s)
        sizes = {family: len(group) for family, group in by_family.items()}
        assert sizes == {
            "IIII": 1, "ZZZZ": 1, "IIIZ": 4, "IIZZ": 6, "IZZZ": 4,
            "XXXX": 1, "YYYY": 1, "XXXY": 4, "XYYY": 4, "XXYY": 6,
        }
        assert len(weights) == 32

    def test_settings_cover_all_correlators(self):
        plan = plan_measurements("star")
        settings = set(plan.settings)
        assert len(settings) == len(plan.settings)  # pairwise distinct
        for corr in plan.correlators:
            assert covering_setting(corr) in settings
            full = covering_setting(corr)
            assert all(c == "I" or c == f for c, f in zip(corr.labels, full.labels))

    def test_zzzz_covers_the_diagonal_family(self):
        plan = plan_measurements("star")
        diagonal = [s for s in plan.correlators if set(s.labels) <= {"I", "Z"}]
        assert len(diagonal) == 16
        assert all(str(covering_setting(s)) == "ZZZZ" for s in diagonal)

    def test_full_tomography(self):
        plan = plan_measurements("full_tomography")
        assert plan.counts == {"n_correlators": 255, "n_settings": 81, "n_projectors": 1296}
        assert all(s.weight > 0 for s in plan.correlators)

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="target"):
            plan_measurements("bell")

    def test_json_shape(self):
        data = plan_measurements("star").to_json_dict()
        assert set(data) == {"correlators", "settings", "counts"}
        assert data["counts"]["n_correlators"] == 32


class TestDiamondPipeline:
    def test_ideal_canonical_table(self):
        table = correlator_table(named_state("diamond-canonical"), ALL_STRINGS)
        curve = diamond_mutual_information(table, 1)
        assert mean_values(curve) == pytest.approx([1 / 3, 5 / 3, 2.0], abs=1e-9)

    def test_matches_direct_computation(self):
        state = named_state("diamond-canonical")
        table = correlator_table(state, ALL_STRINGS)
        direct = mi_curve(state, 1)
        pipeline = diamond_mutual_information(table, 1)
        for a, b in zip(direct.points, pipeline.points):
            assert b.mean_mi == pytest.approx(a.mean_mi, abs=1e-9)

    def test_star_table_through_same_path(self):
        table = correlator_table(named_state("star-experimental"), ALL_STRINGS)
        curve = diamond_mutual_information(table, 1)
        assert mean_values(curve) == pytest.approx([1.0, 1.0, 2.0], abs=1e-9)

    def test_maximally_mixed_gives_zero_curve(self):
        table = correlator_table(maximally_mixed(4), ALL_STRINGS)
        curve = diamond_mutual_information(table, 1)
        assert mean_values(curve) == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)

    def test_unphysical_beyond_tolerance_rejected(self):
        entries = {str(s): 0.0 for s in ALL_STRINGS}
        entries["IIII"] = 1.0
        entries["XXXX"] = 1.0
        entries["YYYY"] = 1.0
        entries["ZZZZ"] = -1.0
        table = CorrelatorTable(entries)  # spectrum reaches -1/8, within the fixed tolerance 0.25
        curve = diamond_mutual_information(table, 1)  # so the table is projected and analyzed
        assert all(v >= 0 for v in mean_values(curve))
        # every shot of every tomography setting reads 0000: all correlators are +1 and the
        # inversion's lowest eigenvalue is -0.933; the pipeline and the table refuse it alike
        data = [OutcomeCounts(setting=s, shots=50, counts={"0000": 50})
                for s in plan_measurements("full_tomography").settings]
        refusals = []
        for run in (lambda: mi_curve_from_counts(data, 1, "reconstruction", bootstrap_resamples=2),
                    lambda: diamond_mutual_information(estimate_correlators(data, ALL_STRINGS), 1)):
            with pytest.raises(ValueError) as refused:
                run()
            refusals.append(str(refused.value))
        assert refusals == ["reconstruction has eigenvalue -0.933, beyond the projection tolerance 0.25"] * 2
