import itertools
import math

import numpy as np
import pytest

from conftest import as_density, as_state
from oracle_utils import (
    density,
    maximally_mixed,
    mean_values,
    measurement_probabilities_kron,
    random_density_array,
    random_pure_array,
)
from qdarwin import (
    DensityMatrix,
    OutcomeCounts,
    RunConfig,
    StateVector,
    all_pauli_strings,
    correlator_table,
    estimate_correlators,
    estimate_mi_curve,
    mi_curve_from_counts,
    named_state,
    plan_measurements,
    project_to_physical,
    sample_setting,
    star_parameters,
)
from qdarwin import measurement
from qdarwin.estimator import _clip_two_branch
from qdarwin.measurement import (
    _plan_probabilities,
    counts_from_json,
    counts_to_json,
)


class TestConfigAndCounts:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(shots_per_setting=0)
        with pytest.raises(ValueError):
            RunConfig(bootstrap_resamples=0)
        # one replica has no standard deviation (ddof=1 would give NaN)
        with pytest.raises(ValueError, match="at least 2"):
            RunConfig(bootstrap_resamples=1)
        data = [OutcomeCounts(setting="ZZZZ", shots=4, counts={"0101": 2, "1010": 2})]
        with pytest.raises(ValueError, match="at least 2"):
            mi_curve_from_counts(data, 1, "closed_form", bootstrap_resamples=1)

    # bool is an int subclass: True must not read as 1
    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("field", ["shots_per_setting", "bootstrap_resamples", "seed"])
    def test_config_refuses_non_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .*integer.*{value}"):
            RunConfig(**{field: value})
        RunConfig(**{field: np.int64(3)})  # numpy integers are integers

    def test_counts_reanalysis_refuses_non_integer_resamples(self):
        data = [OutcomeCounts(setting="ZZZZ", shots=4, counts={"0101": 2, "1010": 2})]
        with pytest.raises(ValueError, match="bootstrap_resamples must be an integer"):
            mi_curve_from_counts(data, 1, "closed_form", bootstrap_resamples=2.5)

    def test_counts_reanalysis_refuses_a_non_integer_seed(self):
        data = [OutcomeCounts(setting="ZZZZ", shots=4, counts={"0101": 2, "1010": 2})]
        with pytest.raises(ValueError, match="seed must be an integer, got 2.5"):
            mi_curve_from_counts(data, 1, "closed_form", seed=2.5)

    def test_counts_must_sum_to_shots(self):
        with pytest.raises(ValueError, match="sum"):
            OutcomeCounts(setting="ZZZZ", shots=10, counts={"0000": 9})

    @pytest.mark.parametrize("shots", [0, -3, True])
    def test_counts_reject_settings_without_shots(self, shots):
        with pytest.raises(ValueError, match=rf"setting XXYZ has {shots} shots"):
            OutcomeCounts(setting="XXYZ", shots=shots, counts={})

    @pytest.mark.parametrize("counts", [{"0000": 2.7, "1111": 1}, {"0000": True, "1111": 2}])
    def test_counts_reject_non_integer_counts(self, counts):
        with pytest.raises(ValueError, match="field 'counts' of setting ZZZZ must map outcomes to integers"):
            OutcomeCounts(setting="ZZZZ", shots=3, counts=counts)

    def test_counts_accept_numpy_integers(self):
        oc = OutcomeCounts(setting="ZZZZ", shots=np.int64(3), counts={"0000": np.int64(3)})
        assert oc.count_vector()[0] == 3
        # stored as Python ints, so the counts file can be written
        assert counts_from_json(counts_to_json([oc])) == [oc]

    def test_counts_reject_identity_setting(self):
        with pytest.raises(ValueError, match="identity"):
            OutcomeCounts(setting="ZIZZ", shots=1, counts={"0000": 1})

    def test_counts_reject_bad_keys(self):
        with pytest.raises(ValueError, match="bit"):
            OutcomeCounts(setting="ZZZZ", shots=1, counts={"00": 1})

    def test_json_round_trip(self):
        oc = OutcomeCounts(setting="XXYY", shots=5, counts={"0000": 3, "1111": 2})
        data = counts_from_json(counts_to_json([oc]))
        assert data == [oc]


class TestSampleSetting:
    def test_basis_state_is_deterministic_outcome(self):
        cfg = RunConfig(shots_per_setting=1000, seed=3)
        oc = sample_setting(StateVector.computational_basis("0000"), "ZZZZ", cfg)
        assert oc.counts == {"0000": 1000}

    def test_ghz_zzzz_support(self, ghz4):
        cfg = RunConfig(shots_per_setting=5000, seed=3)
        oc = sample_setting(ghz4, "ZZZZ", cfg)
        assert set(oc.counts) == {"0000", "1111"}
        assert abs(oc.counts["0000"] - 2500) < 4 * math.sqrt(5000 * 0.25)

    @pytest.mark.parametrize("rank", [None, 1, 3], ids=["ket", "rank-1 density", "rank-3 density"])
    def test_probabilities_match_kronecker_rotation(self, rng, rank):
        # the outcome distribution sample_setting draws from, on all 81 settings
        settings = plan_measurements("full_tomography").settings
        for _ in range(3):
            if rank is None:
                psi = random_pure_array(4, rng)
                state, rho = as_state(psi), np.outer(psi, psi.conj())
            else:
                rho = random_density_array(4, rng, rank=rank)
                state = as_density(rho)
            for setting in settings:
                np.testing.assert_allclose(
                    _plan_probabilities(state, [setting.labels])[0],
                    measurement_probabilities_kron(rho, setting.labels),
                    rtol=0,
                    atol=1e-12,
                )

    def test_maximally_mixed_is_uniform(self):
        cfg = RunConfig(shots_per_setting=10**6, seed=11)
        oc = sample_setting(maximally_mixed(4), "XYZX", cfg)
        sigma = math.sqrt(10**6 * (1 / 16) * (15 / 16))
        for count in oc.counts.values():
            assert abs(count - 62500) < 4 * sigma

    def test_rejects_identity_symbol(self, ghz4):
        with pytest.raises(ValueError, match="identity"):
            sample_setting(ghz4, "ZIZZ", RunConfig(seed=0))

    def test_deterministic_and_order_independent(self, ghz4):
        cfg = RunConfig(shots_per_setting=300, seed=42)
        a = sample_setting(ghz4, "XXYY", cfg)
        b = sample_setting(ghz4, "XXYY", cfg)
        assert a == b
        # the stream is keyed by the setting itself, so sampling other
        # settings first changes nothing
        sample_setting(ghz4, "ZZZZ", cfg)
        assert sample_setting(ghz4, "XXYY", cfg) == a

    def test_distinct_seeds_differ(self, ghz4):
        a = sample_setting(ghz4, "XXXX", RunConfig(shots_per_setting=300, seed=1))
        b = sample_setting(ghz4, "XXXX", RunConfig(shots_per_setting=300, seed=2))
        assert a != b

    def test_poisson_mode(self, ghz4):
        cfg = RunConfig(shots_per_setting=4500, seed=9, poisson_shots=True)
        a = sample_setting(ghz4, "ZZZZ", cfg)
        b = sample_setting(ghz4, "ZZZZ", cfg)
        assert a == b
        assert abs(a.shots - 4500) < 5 * math.sqrt(4500)
        assert sum(a.counts.values()) == a.shots


def _noisy(name: str, p: float) -> DensityMatrix:
    """A named state mixed with weight p of white noise."""
    psi = named_state(name).amplitudes
    return DensityMatrix((1 - p) * np.outer(psi, psi.conj()) + p * np.eye(16) / 16)


class TestWholePlanSampling:
    """Every setting of a plan is rotated in one prefix-shared pass and drawn
    from its own stream, exactly as when it is sampled alone."""

    @pytest.mark.parametrize("target", ["star", "full_tomography"])
    @pytest.mark.parametrize("rank", [None, 1, 3], ids=["ket", "rank-1 density", "rank-3 density"])
    def test_plan_probabilities_match_kronecker_rotation(self, rng, rank, target):
        labels = [s.labels for s in plan_measurements(target).settings]
        for _ in range(3):
            if rank is None:
                psi = random_pure_array(4, rng)
                state, rho = as_state(psi), np.outer(psi, psi.conj())
            else:
                rho = random_density_array(4, rng, rank=rank)
                state = as_density(rho)
            rows = _plan_probabilities(state, labels)
            assert rows.shape == (len(labels), 16)
            for row, label in zip(rows, labels):
                np.testing.assert_allclose(row, measurement_probabilities_kron(rho, label), rtol=0, atol=1e-12)
            # shared prefixes change no bit: each row is the setting rotated alone
            np.testing.assert_array_equal(rows, [_plan_probabilities(state, [l])[0] for l in labels])

    def test_any_setting_list_in_any_order(self, rng):
        # random orders interleave the prefixes, and every setting appears twice
        for n in (1, 2, 3, 5):
            psi = random_pure_array(n, rng)
            for state in (as_state(psi), as_density(np.outer(psi, psi.conj()))):
                labels = ["".join(rng.choice(list("XYZ"), n)) for _ in range(12)] * 2
                rows = _plan_probabilities(state, labels)
                np.testing.assert_array_equal(rows, [_plan_probabilities(state, [l])[0] for l in labels])

    @pytest.mark.parametrize("target", ["star", "full_tomography"])
    def test_a_ket_takes_one_rotation_product_per_qubit(self, monkeypatch, target):
        products = []

        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    products.append(inputs)
                return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

        monkeypatch.setattr(measurement, "_ROTATIONS", measurement._ROTATIONS.view(Counted))
        labels = [s.labels for s in plan_measurements(target).settings]
        _plan_probabilities(named_state("diamond-canonical"), labels)
        assert len(products) == 4  # one per qubit; a product per (qubit, letter) made 8

    @pytest.mark.parametrize("poisson", [False, True], ids=["fixed shots", "poisson shots"])
    @pytest.mark.parametrize(
        "pipeline,state",
        [
            ("closed_form", lambda: named_state("star-experimental")),
            ("closed_form", lambda: _noisy("star-experimental", 0.002)),
            ("reconstruction", lambda: named_state("diamond-canonical")),
            ("reconstruction", lambda: _noisy("diamond-canonical", 0.05)),
        ],
        ids=["closed_form-ket", "closed_form-density", "reconstruction-ket", "reconstruction-density"],
    )
    def test_estimate_equals_per_setting_samples(self, pipeline, state, poisson):
        state = state()
        plan = plan_measurements("star" if pipeline == "closed_form" else "full_tomography")
        for seed, system in ((3, 1), (8, 2)):
            cfg = RunConfig(shots_per_setting=2000, seed=seed, bootstrap_resamples=40, poisson_shots=poisson)
            got = estimate_mi_curve(state, system, cfg, pipeline)
            data = [sample_setting(state, s, cfg) for s in plan.settings]
            want = mi_curve_from_counts(data, system, pipeline, bootstrap_resamples=40, seed=seed)
            assert got.points == want.points
            assert got.system_entropy == want.system_entropy
            assert got._diagnostics == want._diagnostics


class TestEstimateCorrelators:
    def test_pure_parity(self):
        oc = OutcomeCounts(setting="ZZZZ", shots=100, counts={"0000": 100})
        table = estimate_correlators([oc], ["ZZZZ", "ZIII", "IIII"])
        assert table.value("ZZZZ") == 1.0
        assert table.sigma("ZZZZ") == 0.0
        assert table.value("ZIII") == 1.0
        assert table.value("IIII") == 1.0

    def test_mixed_parity(self):
        oc = OutcomeCounts(setting="ZZZZ", shots=4, counts={"0000": 3, "0001": 1})
        table = estimate_correlators([oc], ["IIIZ"])
        assert table.value("IIIZ") == pytest.approx(0.5)
        assert table.sigma("IIIZ") == pytest.approx(math.sqrt((1 - 0.25) / 4))

    def test_uncovered_string(self):
        oc = OutcomeCounts(setting="ZZZZ", shots=1, counts={"0000": 1})
        with pytest.raises(ValueError, match="covers"):
            estimate_correlators([oc], ["XIII"])

    def test_ghz_zzzz_is_exact(self, ghz4):
        cfg = RunConfig(shots_per_setting=10**5, seed=5)
        oc = sample_setting(ghz4, "ZZZZ", cfg)
        table = estimate_correlators([oc], ["ZZZZ"])
        assert table.value("ZZZZ") == 1.0  # parity +1 on both branches
        assert table.sigma("ZZZZ") == 0.0

    def test_marginalization_exactness(self, ghz4):
        cfg = RunConfig(shots_per_setting=7000, seed=17)
        oc = sample_setting(ghz4, "ZXYZ", cfg)
        table = estimate_correlators([oc], ["ZIIZ"])
        # direct computation from the marginal distribution of bits 1 and 4
        marginal = {}
        for key, count in oc.counts.items():
            sub = key[0] + key[3]
            marginal[sub] = marginal.get(sub, 0) + count
        direct = sum(
            (1 - 2 * int(k[0])) * (1 - 2 * int(k[1])) * c for k, c in marginal.items()
        ) / oc.shots
        assert table.value("ZIIZ") == direct

    def test_inverse_variance_combination(self):
        big = OutcomeCounts(setting="ZZZZ", shots=1600, counts={"0000": 1200, "1000": 400})
        small = OutcomeCounts(setting="ZZZZ", shots=100, counts={"0000": 50, "1000": 50})
        merged = estimate_correlators([big, small], ["ZIII"])
        lone_big = estimate_correlators([big], ["ZIII"])
        lone_small = estimate_correlators([small], ["ZIII"])
        w_big = 1 / lone_big.sigma("ZIII") ** 2
        w_small = 1 / lone_small.sigma("ZIII") ** 2
        expected = (w_big * lone_big.value("ZIII") + w_small * lone_small.value("ZIII")) / (
            w_big + w_small
        )
        assert merged.value("ZIII") == pytest.approx(expected, abs=1e-12)
        assert merged.sigma("ZIII") == pytest.approx(1 / math.sqrt(w_big + w_small), abs=1e-12)

    def test_five_sigma_consistency_over_seeds(self):
        state = named_state("star-experimental")
        exact = correlator_table(state, [str(s) for s in plan_measurements("star").correlators])
        plan = plan_measurements("star")
        within = 0
        total = 0
        for seed in range(200):
            cfg = RunConfig(shots_per_setting=1500, seed=seed)
            data = [sample_setting(state, s, cfg) for s in plan.settings]
            table = estimate_correlators(data, plan.correlators)
            for string in plan.correlators:
                err = abs(table.value(string) - exact.value(string))
                sigma = table.sigma(string)
                total += 1
                if (sigma == 0.0 and err <= 1e-12) or (sigma > 0 and err <= 5 * sigma):
                    within += 1
        assert within / total >= 0.99

    def test_sigma_scales_with_shots(self):
        # depolarize so every correlator has nonzero binomial sigma
        star = density(named_state("star-experimental")).entries
        state = as_density(0.8 * star + 0.2 * np.eye(16) / 16)
        plan = plan_measurements("star")
        medians = []
        for shots in (1000, 4000, 16000, 64000):
            cfg = RunConfig(shots_per_setting=shots, seed=123)
            data = [sample_setting(state, s, cfg) for s in plan.settings]
            table = estimate_correlators(data, plan.correlators)
            medians.append(np.median([table.sigma(s) for s in plan.correlators]))
        for a, b in zip(medians, medians[1:]):
            assert a / b == pytest.approx(2.0, rel=0.1)


class TestPhysicalProjection:
    def test_exposed_from_package_surface(self):
        rho = as_density(np.diag([1.1, -0.1]))
        np.testing.assert_allclose(project_to_physical(rho).entries, np.diag([1.0, 0.0]), atol=1e-12)

    @pytest.mark.parametrize("dim,step", [(3, 0.005), (4, 0.02)])
    def test_diagonal_matches_grid_search(self, dim, step, rng):
        def simplex_grid(d, n):
            for cuts in itertools.combinations(range(n + d - 1), d - 1):
                parts = []
                prev = -1
                for c in cuts:
                    parts.append(c - prev - 1)
                    prev = c
                parts.append(n + d - 2 - prev)
                yield np.array(parts) / n

        n_steps = round(1 / step)
        grid = np.array(list(simplex_grid(dim, n_steps)))
        for _ in range(4):
            raw = rng.normal(size=dim)
            raw = raw - (raw.sum() - 1.0) / dim  # unit trace, possibly negative
            if raw.min() >= 0:
                raw[raw.argmin()] -= 0.3
                raw[raw.argmax()] += 0.3
            size = 2 ** math.ceil(math.log2(dim))
            diag = np.zeros(size)
            diag[:dim] = raw
            rho = as_density(np.diag(diag))
            projected = np.real(np.diag(project_to_physical(rho).entries))[:dim]
            dist_grid = np.min(np.sum((grid - raw) ** 2, axis=1))
            best = grid[np.argmin(np.sum((grid - raw) ** 2, axis=1))]
            assert np.sum((projected - raw) ** 2) <= dist_grid + 1e-12
            assert np.max(np.abs(projected - best)) <= 2 * step

    def test_trace_and_positivity(self, rng):
        mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        herm = (mat + mat.conj().T) / 2
        herm = herm / np.real(np.trace(herm))
        rho = DensityMatrix(herm)
        out = project_to_physical(rho)
        eigs = np.linalg.eigvalsh(out.entries)
        assert eigs.min() >= -1e-12
        assert np.real(np.trace(out.entries)) == pytest.approx(1.0, abs=1e-12)


class TestModelClipping:
    def test_within_model_untouched(self):
        assert _clip_two_branch(0.4, 0.3) == (0.4, 0.3)

    def test_overshoot_coherence_clipped(self):
        p, c = _clip_two_branch(0.5, 0.52)
        assert abs(c) == pytest.approx(0.5, abs=1e-12)
        assert p == 0.5

    def test_population_clamped(self):
        p, c = _clip_two_branch(1.0 + 1e-4, 0.01)
        assert p == 1.0
        assert c == 0.0


class TestEstimateMICurve:
    def test_closed_form_converges(self):
        cfg = RunConfig(shots_per_setting=20000, seed=1, bootstrap_resamples=100)
        curve = estimate_mi_curve(named_state("star-experimental"), 1, cfg, "closed_form")
        assert mean_values(curve) == pytest.approx([1.0, 1.0, 2.0], abs=0.05)
        assert all(p.stderr < 0.05 for p in curve.points)

    def test_reconstruction_converges(self):
        cfg = RunConfig(shots_per_setting=20000, seed=1, bootstrap_resamples=50)
        curve = estimate_mi_curve(named_state("diamond-canonical"), 1, cfg, "reconstruction")
        assert mean_values(curve) == pytest.approx([1 / 3, 5 / 3, 2.0], abs=0.1)

    def test_seeded_determinism(self):
        cfg = RunConfig(shots_per_setting=2000, seed=77, bootstrap_resamples=25)
        a = estimate_mi_curve(named_state("star-experimental"), 1, cfg, "closed_form")
        b = estimate_mi_curve(named_state("star-experimental"), 1, cfg, "closed_form")
        assert a == b

    @pytest.mark.parametrize("pipeline, name", [("closed_form", "star-experimental"), ("reconstruction", "ghz4")])
    def test_a_numpy_integer_seed_gives_its_integers_curve(self, pipeline, name):
        # both streams take the seed mod 2^64: np.int64(3) and 3 - 2^64 are the seed 3
        state, curves = named_state(name), []
        for seed in (3, np.int64(3), 3 - 2**64):
            cfg = RunConfig(shots_per_setting=500, seed=seed, bootstrap_resamples=5)
            data = measurement.sample_plan(state, plan_measurements(measurement.PLAN_TARGETS[pipeline]).settings, cfg)
            curves.append(estimate_mi_curve(state, 1, cfg, pipeline))
            curves.append(mi_curve_from_counts(data, 1, pipeline, bootstrap_resamples=5, seed=seed))
        assert curves[1:] == curves[:1] * 5

    def test_exact_table_short_circuit(self):
        # the zero-noise limit of the pipeline is the ideal closed-form curve
        table = correlator_table(named_state("star-experimental"), all_pauli_strings(4))
        params = star_parameters(table)
        from qdarwin import star_mutual_information

        values = [star_mutual_information(params, d) for d in (1, 2, 3)]
        assert values == pytest.approx([1.0, 1.0, 2.0], abs=1e-9)

    def test_rejects_unknown_pipeline(self, ghz4):
        with pytest.raises(ValueError, match="pipeline"):
            estimate_mi_curve(ghz4, 1, RunConfig(seed=0), "magic")

    def test_rejects_wrong_size(self):
        from qdarwin import ghz_state

        with pytest.raises(ValueError, match="4-qubit"):
            estimate_mi_curve(ghz_state(3), 1, RunConfig(seed=0), "closed_form")

    def test_closed_form_rejects_states_outside_its_model(self):
        # diamond-canonical has P = 0 and P + Q = 1/4: the closed form would
        # otherwise report a confident all-zero curve
        cfg = RunConfig(shots_per_setting=2000, seed=3, bootstrap_resamples=5)
        with pytest.raises(ValueError, match="two-branch model"):
            estimate_mi_curve(named_state("diamond-canonical"), 1, cfg, "closed_form")

    def test_closed_form_refusal_states_deviation_and_sigma(self):
        from qdarwin.estimator import STAR_CORRELATORS, _star_populations

        cfg = RunConfig(shots_per_setting=2000, seed=3, bootstrap_resamples=5)
        state = named_state("diamond-canonical")
        data = [sample_setting(state, s, cfg) for s in plan_measurements("star").settings]
        table = estimate_correlators(data, STAR_CORRELATORS)
        p, q, _ = _star_populations(np.array([table.value(s) for s in STAR_CORRELATORS]))
        params = star_parameters(table)
        sigma_p = params.sigma_p
        assert params.deviation == pytest.approx(abs(p + q - 1), abs=1e-15)
        assert not params.consistent
        with pytest.raises(ValueError) as refusal:
            estimate_mi_curve(state, 1, cfg, "closed_form")
        message = str(refusal.value)
        assert f"|P + Q - 1| = {abs(p + q - 1):.3g}" in message
        assert f"sigma_P = {sigma_p:.3g}" in message
        assert abs(p + q - 1) > 6 * sigma_p

    def test_no_negative_zero_in_curves(self):
        # P = 0 exactly: the binary entropies are 0, not -0
        cfg = RunConfig(shots_per_setting=500, seed=3, bootstrap_resamples=5)
        curve = estimate_mi_curve(StateVector.computational_basis("1010"), 1, cfg, "closed_form")
        assert mean_values(curve) == [0.0, 0.0, 0.0]
        assert all(math.copysign(1.0, p.mean_mi) == 1.0 for p in curve.points)
        assert math.copysign(1.0, curve.system_entropy) == 1.0

    @pytest.mark.parametrize("pipeline,target", [("closed_form", "star"), ("reconstruction", "full_tomography")])
    def test_rejects_system_out_of_range(self, pipeline, target):
        cfg = RunConfig(shots_per_setting=200, seed=2)
        data = [sample_setting(named_state("star-experimental"), s, cfg) for s in plan_measurements(target).settings]
        for system in (0, -2, 5, 7, 2.5, 1.0, True):
            with pytest.raises(ValueError, match=f"system index {system} out of range"):
                mi_curve_from_counts(data, system, pipeline, bootstrap_resamples=2)

    def test_stored_counts_replay(self):
        state = named_state("star-experimental")
        cfg = RunConfig(shots_per_setting=2000, seed=5, bootstrap_resamples=20)
        plan = plan_measurements("star")
        data = [sample_setting(state, s, cfg) for s in plan.settings]
        replayed = mi_curve_from_counts(data, 1, "closed_form", bootstrap_resamples=20, seed=5)
        assert replayed == estimate_mi_curve(state, 1, cfg, "closed_form")
        # 17 closed-form settings cannot feed the full reconstruction
        with pytest.raises(ValueError, match="covers"):
            mi_curve_from_counts(data, 1, "reconstruction", bootstrap_resamples=5, seed=5)


class TestArgumentsCheckedBeforeSampling:
    """A system that is not an integer in 1..4 or an unknown pipeline is
    refused before a single setting is sampled."""

    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sample_setting was called")

        monkeypatch.setattr("qdarwin.measurement.sample_setting", refuse)
        monkeypatch.setattr("qdarwin.measurement._sample_counts", refuse)

    @pytest.mark.parametrize("pipeline", ["closed_form", "reconstruction"])
    @pytest.mark.parametrize("system", [0, 5, 7, 2.5, 1.0, True])
    def test_system_out_of_range(self, pipeline, system):
        with pytest.raises(ValueError, match=f"system index {system} out of range"):
            estimate_mi_curve(named_state("diamond-canonical"), system, RunConfig(seed=0), pipeline)

    def test_unknown_pipeline(self):
        with pytest.raises(ValueError, match="unknown pipeline 'magic'"):
            estimate_mi_curve(named_state("diamond-canonical"), 7, RunConfig(seed=0), "magic")
