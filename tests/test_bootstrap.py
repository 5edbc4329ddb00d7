"""The batched correlator, projection and bootstrap kernels against loop
oracles: every replica's numbers must match a scalar, one-replica-at-a-time
computation to 1e-12."""
import itertools

import numpy as np
import pytest

from oracle_utils import (
    binary_entropy,
    brute_mutual_information_dm,
    eig2x2,
    estimate_entries_loop,
    linear_inversion,
    pauli_matrix,
    projected,
    water_fill_loop,
)
from qdarwin import (
    OutcomeCounts,
    RunConfig,
    all_pauli_strings,
    diamond_mutual_information,
    estimate_correlators,
    mi_curve_from_counts,
    named_state,
    plan_measurements,
    project_to_physical,
    sample_setting,
    star_mutual_information,
    star_parameters,
)
from qdarwin.estimator import STAR_CORRELATORS
from qdarwin.measurement import (
    _BOOTSTRAP_STREAM,
    _correlator_plan,
    _estimate_batch,
    _reconstruction_replicas,
    clip_to_two_branch_model,
)
from qdarwin.qcore import DensityMatrix, _projected_density, _water_fill

TOL = 1e-12
ALL_LABELS = tuple(s.labels for s in all_pauli_strings(4))
STAR_LABELS = tuple(s.labels for s in plan_measurements("star").correlators)


def random_counts(settings, rng, shots_range=(20, 400)):
    data = []
    for setting in settings:
        shots = int(rng.integers(*shots_range))
        vector = rng.multinomial(shots, rng.dirichlet(np.full(16, 0.5)))
        data.append(OutcomeCounts.from_vector(setting, vector))
    return data


def assert_table_matches_oracle(data, wanted_labels):
    table = estimate_correlators(data, wanted_labels)
    oracle = estimate_entries_loop(
        [oc.setting.labels for oc in data],
        [oc.count_vector() for oc in data],
        [oc.shots for oc in data],
        wanted_labels,
    )
    for label, (value, sigma) in oracle.items():
        assert table.value(label) == pytest.approx(value, abs=TOL)
        assert table.sigma(label) == pytest.approx(sigma, abs=TOL)


class TestCorrelatorKernel:
    def test_random_counts_with_several_covering_settings(self, rng):
        # every tomography setting, plus repeats, so strings have 2..54 covers
        settings = list(plan_measurements("full_tomography").settings)
        settings += [settings[0], settings[40], settings[-1]]
        assert_table_matches_oracle(random_counts(settings, rng), ALL_LABELS)

    def test_batch_rows_match_one_table_each(self, rng):
        settings = plan_measurements("full_tomography").settings
        data = random_counts(settings, rng)
        labels = tuple(oc.setting.labels for oc in data)
        shots = np.array([oc.shots for oc in data])
        counts = np.stack(
            [rng.multinomial(n, np.full(16, 1 / 16)) for _ in range(7) for n in shots]
        ).reshape(7, len(shots), 16)
        values, sigmas = _estimate_batch(counts.astype(float), shots, _correlator_plan(labels, ALL_LABELS))
        for row in range(7):
            oracle = estimate_entries_loop(labels, counts[row].astype(float), shots, ALL_LABELS)
            np.testing.assert_allclose(values[row], [oracle[w][0] for w in ALL_LABELS], atol=TOL)
            np.testing.assert_allclose(sigmas[row], [oracle[w][1] for w in ALL_LABELS], atol=TOL)

    def test_exact_correlators_are_averaged_alone(self, rng):
        # ZZZZ read twice with a single outcome (sigma = 0 for every I/Z
        # string) and once with two; ZXYZ and XXYY add noisy covers
        exact_a = OutcomeCounts(setting="ZZZZ", shots=50, counts={"0110": 50})
        exact_b = OutcomeCounts(setting="ZZZZ", shots=80, counts={"0110": 80})
        noisy = OutcomeCounts(setting="ZZZZ", shots=60, counts={"0110": 30, "1001": 30})
        other = random_counts(["ZXYZ", "XXYY"], rng)
        data = [exact_a, noisy, exact_b, *other]
        wanted = ("IIII", "ZIII", "IZII", "ZZII", "ZIIZ", "IXYI", "XXYY")
        assert_table_matches_oracle(data, wanted)
        table = estimate_correlators(data, wanted)
        assert table.value("IZII") == -1.0 and table.sigma("IZII") == 0.0
        assert table.value("ZZII") == -1.0 and table.sigma("ZZII") == 0.0

    def test_opposite_exact_settings_average_to_zero(self):
        up = OutcomeCounts(setting="ZZZZ", shots=10, counts={"0000": 10})
        down = OutcomeCounts(setting="ZZZZ", shots=30, counts={"1000": 30})
        table = estimate_correlators([up, down], ["ZIII"])
        assert table.value("ZIII") == 0.0
        assert table.sigma("ZIII") == 0.0


def random_unphysical_spectra(rng, rows, dim):
    """Unit-sum spectra with at least one negative entry, sorted ascending."""
    raw = rng.normal(size=(rows, dim)) * rng.uniform(0.02, 0.3, size=(rows, 1))
    raw += (1.0 - raw.sum(axis=1, keepdims=True)) / dim
    raw[:, 0] = -np.abs(raw[:, 0]) - 0.01
    raw[:, 1:] += (1.0 - raw.sum(axis=1, keepdims=True)) / (dim - 1)
    return np.sort(raw, axis=1)


class TestProjectionKernel:
    def test_water_fill_matches_loop_and_one_pass_form(self, rng):
        eigs = random_unphysical_spectra(rng, 60, 16)
        filled = _water_fill(eigs)
        for row, out in zip(eigs, filled):
            np.testing.assert_allclose(out, water_fill_loop(row), atol=TOL)
            # one pass (Smolin, Gambetta, Smith): max(lambda - mu, 0) with mu
            # set by the longest descending prefix that stays above its shift
            ordered = np.sort(row)[::-1]
            shifts = (np.cumsum(ordered) - 1.0) / np.arange(1, 17)
            mu = shifts[np.sum(ordered > shifts) - 1]
            np.testing.assert_allclose(out, np.maximum(row - mu, 0.0), atol=TOL)
            assert out.min() >= 0.0 and out.sum() == pytest.approx(1.0, abs=TOL)

    def test_projected_stack_matches_one_matrix_at_a_time(self, rng):
        mats = []
        for _ in range(12):
            mat = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            herm = (mat + mat.conj().T) / 2 + 0.5 * np.eye(16)
            mats.append(herm / np.real(np.trace(herm)))
        mats = np.array(mats)
        eigs, vecs = np.linalg.eigh(mats)
        assert (eigs[:, 0] < 0).all()
        batch = _projected_density(eigs, vecs)
        for mat, out in zip(mats, batch):
            np.testing.assert_allclose(out, projected(mat), atol=TOL)
            single = project_to_physical(DensityMatrix(mat, physical=False)).entries
            np.testing.assert_allclose(out, single, atol=TOL)


def oracle_curve(values: dict, pipeline: str) -> list[float]:
    """One replica's curve from loop-estimated correlators, through explicit
    Pauli matrices, the loop projection and brute-force partial traces."""
    if pipeline == "closed_form":
        rho = sum(values[s] * pauli_matrix(s) for s in STAR_LABELS) / 16.0
        p, c = float(rho[5, 5].real), complex(rho[5, 10])
        p = min(max(p, 0.0), 1.0)
        c_max = np.sqrt(p * (1.0 - p))
        if abs(c) > c_max:
            c = c * c_max / abs(c)
        h = binary_entropy(p)
        return [h, h, 2 * h - binary_entropy(eig2x2(p, c)[0])]
    rho = linear_inversion(values)
    if np.linalg.eigvalsh(rho).min() < -1e-9:
        rho = projected(rho)
    return [
        float(np.mean([brute_mutual_information_dm(rho, 1, f, 4) for f in itertools.combinations((2, 3, 4), d)]))
        for d in (1, 2, 3)
    ]


def oracle_bootstrap(data, pipeline: str, replicas: int, seed: int) -> np.ndarray:
    labels = [oc.setting.labels for oc in data]
    shots = [oc.shots for oc in data]
    probabilities = [oc.count_vector() / oc.shots for oc in data]
    wanted = STAR_LABELS if pipeline == "closed_form" else ALL_LABELS
    rng = np.random.default_rng(np.random.SeedSequence([seed, _BOOTSTRAP_STREAM]))
    curves = []
    for _ in range(replicas):
        vectors = [rng.multinomial(n, p).astype(float) for n, p in zip(shots, probabilities)]
        entries = estimate_entries_loop(labels, vectors, shots, wanted)
        curves.append(oracle_curve({w: v for w, (v, _) in entries.items()}, pipeline))
    return np.array(curves)


class TestBootstrapAgainstOracle:
    @pytest.mark.parametrize(
        "name,pipeline,target,shots",
        [
            ("star-experimental", "closed_form", "star", 2000),
            ("diamond-canonical", "reconstruction", "full_tomography", 2000),
        ],
    )
    def test_stderr_at_twenty_replicas(self, name, pipeline, target, shots):
        cfg = RunConfig(shots_per_setting=shots, seed=5, bootstrap_resamples=20)
        data = [sample_setting(named_state(name), s, cfg) for s in plan_measurements(target).settings]
        curve = mi_curve_from_counts(data, 1, pipeline, bootstrap_resamples=20, seed=5)
        replicas = oracle_bootstrap(data, pipeline, 20, 5)
        expected = np.std(replicas, axis=0, ddof=1)
        np.testing.assert_allclose([p.stderr for p in curve.points], expected, atol=TOL)

    def test_replicas_that_need_projection(self):
        # at 30 shots per setting every replica's inversion is unphysical and
        # some lie beyond the point estimate's tolerance
        cfg = RunConfig(shots_per_setting=30, seed=3, bootstrap_resamples=2)
        data = [sample_setting(named_state("diamond-canonical"), s, cfg)
                for s in plan_measurements("full_tomography").settings]
        labels = tuple(oc.setting.labels for oc in data)
        shots = np.array([oc.shots for oc in data])
        rng = np.random.default_rng(11)
        probabilities = np.stack([oc.count_vector() / oc.shots for oc in data])
        counts = rng.multinomial(shots, probabilities, size=(6, len(shots))).astype(float)
        values, _ = _estimate_batch(counts, shots, _correlator_plan(labels, ALL_LABELS))
        (curves, _, _), _, lowest = _reconstruction_replicas(values, 1)
        assert (lowest < -0.25).any()
        for row in range(6):
            entries = estimate_entries_loop(labels, counts[row], shots, ALL_LABELS)
            oracle = oracle_curve({w: v for w, (v, _) in entries.items()}, "reconstruction")
            np.testing.assert_allclose(curves[row], oracle, atol=TOL)


class TestLowShotBootstrap:
    def test_replicas_beyond_tolerance_are_projected_and_counted(self):
        cfg = RunConfig(shots_per_setting=30, seed=1, bootstrap_resamples=100)
        data = [sample_setting(named_state("diamond-canonical"), s, cfg)
                for s in plan_measurements("full_tomography").settings]
        curve = mi_curve_from_counts(data, 1, "reconstruction", bootstrap_resamples=100, seed=1)
        diagnostics = curve._diagnostics
        assert all(np.isfinite(p.stderr) and p.stderr > 0 for p in curve.points)
        assert diagnostics["replicas_projected"] == 100
        assert 0 < diagnostics["replicas_beyond_tolerance"] <= 100
        assert diagnostics["worst_replica_eigenvalue"] < -0.25

    def test_closed_form_counts_clipped_replicas(self):
        cfg = RunConfig(shots_per_setting=2000, seed=4, bootstrap_resamples=30)
        data = [sample_setting(named_state("star-experimental"), s, cfg)
                for s in plan_measurements("star").settings]
        diagnostics = mi_curve_from_counts(data, 1, "closed_form", bootstrap_resamples=30, seed=4)._diagnostics
        # Re C = 1/2 is read exactly, so noise in Im C pushes |C| past its bound
        assert diagnostics == {"replicas_clipped": 30, "model_deviation": 0.0, "model_sigma_p": 0.00395014042472}


def scalar_point_curve(data, system: int, pipeline: str):
    """The point estimate through the public scalar functions: one
    (mean, min, max) per fragment size, and the system entropy."""
    if pipeline == "closed_form":
        params = clip_to_two_branch_model(star_parameters(estimate_correlators(data, STAR_CORRELATORS)))
        values = [star_mutual_information(params, d) for d in (1, 2, 3)]
        return [(v, v, v) for v in values], values[0]
    curve = diamond_mutual_information(estimate_correlators(data, all_pauli_strings(4)), system)
    return [(p.mean_mi, p.min_mi, p.max_mi) for p in curve.points], curve.system_entropy


class TestPointEstimateIsReplicaZero:
    """The point curve comes from the replica kernels run on the observed
    counts; it must equal the scalar path bit for bit."""

    @pytest.mark.parametrize("shots", [30, 300, 100_000])
    @pytest.mark.parametrize(
        "name,pipeline,target",
        [
            ("star-experimental", "closed_form", "star"),
            ("diamond-canonical", "reconstruction", "full_tomography"),
            ("hyperentangled-xi", "reconstruction", "full_tomography"),
        ],
    )
    def test_point_curve_equals_scalar_path(self, name, pipeline, target, shots):
        for seed in (1, 2, 3):
            cfg = RunConfig(shots_per_setting=shots, seed=seed)
            data = [sample_setting(named_state(name), s, cfg) for s in plan_measurements(target).settings]
            for system in (1, 2, 3, 4):
                points, system_entropy = scalar_point_curve(data, system, pipeline)
                curve = mi_curve_from_counts(data, system, pipeline, bootstrap_resamples=2, seed=seed)
                assert [(p.mean_mi, p.min_mi, p.max_mi) for p in curve.points] == points
                assert curve.system_entropy == system_entropy

    def test_point_refused_beyond_negativity_tolerance(self):
        # every shot of every setting reads 0000: all correlators are +1 and
        # the inversion's lowest eigenvalue is -0.933
        data = [OutcomeCounts(setting=s, shots=50, counts={"0000": 50})
                for s in plan_measurements("full_tomography").settings]
        with pytest.raises(ValueError, match=r"eigenvalue -0\.933, beyond the projection tolerance 0\.25"):
            mi_curve_from_counts(data, 1, "reconstruction", bootstrap_resamples=2)
