"""The batched correlator, projection and bootstrap kernels against loop
oracles: every replica's numbers must match a scalar, one-replica-at-a-time
computation to 1e-12."""
import itertools

import numpy as np
import pytest

from oracle_utils import (
    binary_entropy,
    brute_entropy,
    brute_mutual_information_dm,
    brute_partial_trace,
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
    StateVector,
    all_pauli_strings,
    correlator_table,
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
from qdarwin.estimator import STAR_CORRELATORS, _reconstruction_replicas, clip_to_two_branch_model
from qdarwin import measurement
from qdarwin.measurement import (
    _BOOTSTRAP_STREAM,
    _correlator_plan,
    _estimate_batch,
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


class TestBlockSizeIndependence:
    """Replicas are drawn replica-major and every kernel is row-independent,
    so the curve and its diagnostics must not depend on how many replicas
    a bootstrap block holds: one per block, the default budget, or all in one."""

    @pytest.mark.parametrize(
        "name,pipeline,target,shots,replicas,flag",
        [
            # the default budget gives blocks of 119 closed-form replicas
            ("star-experimental", "closed_form", "star", 2000, 250, "replicas_clipped"),
            ("star-experimental", "closed_form", "star", 3000, 250, "replicas_clipped"),
            # and of 25 tomography replicas
            ("diamond-canonical", "reconstruction", "full_tomography", 30, 60, "replicas_projected"),
        ],
    )
    def test_budget_does_not_move_a_bit(self, monkeypatch, name, pipeline, target, shots, replicas, flag):
        cfg = RunConfig(shots_per_setting=shots, seed=1)
        data = [sample_setting(named_state(name), s, cfg) for s in plan_measurements(target).settings]
        runs = []
        for budget in (measurement._BOOTSTRAP_ENTRIES, 1, 10**9):
            monkeypatch.setattr(measurement, "_BOOTSTRAP_ENTRIES", budget)
            runs.append(mi_curve_from_counts(data, 1, pipeline, bootstrap_resamples=replicas, seed=1))
        default = runs[0]
        assert default._diagnostics[flag] > 0
        for curve in runs[1:]:
            assert [(p.mean_mi, p.min_mi, p.max_mi, p.stderr) for p in curve.points] == [
                (p.mean_mi, p.min_mi, p.max_mi, p.stderr) for p in default.points
            ]
            assert curve.system_entropy == default.system_entropy
            assert curve._diagnostics == default._diagnostics


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


def tomography_table(name: str, shots: int, seed: int):
    cfg = RunConfig(shots_per_setting=shots, seed=seed)
    data = [sample_setting(named_state(name), s, cfg) for s in plan_measurements("full_tomography").settings]
    return estimate_correlators(data, all_pauli_strings(4))


def oracle_diamond_curve(table, system: int):
    """(mean, min, max) per fragment size, H_S, and whether the inversion needed
    projection, through explicit Pauli matrices, the loop projection and
    brute-force partial traces."""
    rho = linear_inversion({s.labels: table.value(s) for s in table.strings()})
    unphysical = np.linalg.eigvalsh(rho).min() < -1e-9
    if unphysical:
        rho = projected(rho)
    env = [q for q in (1, 2, 3, 4) if q != system]
    points = []
    for d in (1, 2, 3):
        values = [brute_mutual_information_dm(rho, system, f, 4) for f in itertools.combinations(env, d)]
        points.append((np.mean(values), min(values), max(values)))
    return points, brute_entropy(brute_partial_trace(rho, [system], 4)), unphysical


class TestDiamondMutualInformation:
    """diamond_mutual_information is row 0 of the reconstruction kernel, which
    makes TestPointEstimateIsReplicaZero compare that kernel with itself; the
    same tables are checked here against the brute-force oracle."""

    @pytest.mark.parametrize("shots", [30, 300, 100_000])
    @pytest.mark.parametrize("name", ["diamond-canonical", "hyperentangled-xi"])
    def test_matches_oracle_on_every_system(self, name, shots):
        unphysical = 0
        for seed in (1, 2, 3):
            table = tomography_table(name, shots, seed)
            for system in (1, 2, 3, 4):
                curve = diamond_mutual_information(table, system)
                points, system_entropy, needs_projection = oracle_diamond_curve(table, system)
                got = [(p.mean_mi, p.min_mi, p.max_mi) for p in curve.points]
                np.testing.assert_allclose(got, points, rtol=0, atol=TOL)
                assert curve.system_entropy == pytest.approx(system_entropy, rel=0, abs=TOL)
            unphysical += needs_projection
        if shots == 30:
            assert unphysical == 3  # every 30-shot table is projected before its entropies

    def test_one_decomposition_per_table(self, monkeypatch):
        from qdarwin import estimator

        calls = []

        def refused(name):
            def call(*args, **kwargs):
                raise AssertionError(f"estimator.{name} was called")
            return call

        def counted(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for name in ("reconstruct_density", "project_to_physical", "mi_curve"):
            monkeypatch.setattr(estimator, name, refused(name))
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        tables = [correlator_table(named_state("diamond-canonical"), all_pauli_strings(4)),
                  tomography_table("diamond-canonical", 30, 1)]
        for table in tables:
            calls.clear()
            diamond_mutual_information(table, 2)
            # one eigh of the inversion; one eigvalsh per entropy batch (H_S, then H_F and H_SF per size)
            assert calls.count("eigh") == 1
            assert calls.count("eigvalsh") == 7

    @pytest.mark.parametrize("system", [0, 5])
    def test_system_out_of_range_before_any_decomposition(self, monkeypatch, system):
        table = correlator_table(named_state("diamond-canonical"), all_pauli_strings(4))

        def decomposed(*args, **kwargs):
            raise AssertionError("decomposed before the system index was checked")

        monkeypatch.setattr(np.linalg, "eigh", decomposed)
        monkeypatch.setattr(np.linalg, "eigvalsh", decomposed)
        with pytest.raises(ValueError, match=f"^system index {system} out of range$"):
            diamond_mutual_information(table, system)


def star_counts(shots: int, seed: int):
    cfg = RunConfig(shots_per_setting=shots, seed=seed)
    return [sample_setting(named_state("star-experimental"), s, cfg) for s in plan_measurements("star").settings]


class TestLowShotClosedForm:
    """At a few shots per setting every ZZZZ shot may land on one bitstring:
    P is then 0 or 1 with sigma_P = 0, every replica equals the point, and the
    all-zero curve would carry zero error bars against a truth of (1, 1, 2)."""

    @pytest.mark.parametrize("shots", [1, 2, 3])
    def test_refuses_or_reports_an_error_bar(self, shots):
        refused = 0
        for seed in range(1, 11):
            data = star_counts(shots, seed)
            params = star_parameters(estimate_correlators(data, STAR_CORRELATORS))
            try:
                curve = mi_curve_from_counts(data, 1, "closed_form", bootstrap_resamples=20, seed=seed)
            except ValueError as refusal:
                assert "the counts pin no error on P" in str(refusal)
                assert "take more shots" in str(refusal)
                assert params.sigma_p == 0.0
                refused += 1
                continue
            assert params.sigma_p > 0
            assert all(p.stderr > 0 for p in curve.points)
        assert refused == {1: 10, 2: 5, 3: 2}[shots]

    def test_a_pure_branch_without_coherence_is_kept(self):
        # |1010>: P = 0 with sigma_P = 0 is the truth, and C is noise around 0
        cfg = RunConfig(shots_per_setting=500, seed=3)
        data = [sample_setting(StateVector.computational_basis("1010"), s, cfg)
                for s in plan_measurements("star").settings]
        assert star_parameters(estimate_correlators(data, STAR_CORRELATORS)).sigma_p == 0.0
        curve = mi_curve_from_counts(data, 1, "closed_form", bootstrap_resamples=5, seed=3)
        assert curve.mean_values() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "name,pipeline,target,match",
    [
        ("star-experimental", "closed_form", "star", "the counts pin no error on P"),
        ("diamond-canonical", "reconstruction", "full_tomography", r"eigenvalue -1\.177"),
    ],
)
def test_a_refused_run_draws_nothing(monkeypatch, name, pipeline, target, match):
    # one shot per setting: sigma_P = 0 for the closed form, a negative point estimate for the reconstruction
    cfg = RunConfig(shots_per_setting=1, seed=1)
    data = [sample_setting(named_state(name), s, cfg) for s in plan_measurements(target).settings]
    draws, real = [], np.random.default_rng

    class Counting:
        def __init__(self, *args):
            self.rng = real(*args)

        def multinomial(self, *args, **kwargs):
            draws.append(kwargs["size"])
            return self.rng.multinomial(*args, **kwargs)

    monkeypatch.setattr(measurement.np.random, "default_rng", Counting)
    with pytest.raises(ValueError, match=match):
        mi_curve_from_counts(data, 1, pipeline, bootstrap_resamples=100, seed=1)
    assert draws == []


class _FailingRng:
    def multinomial(self, *args, **kwargs):
        raise RuntimeError("multinomial stub failed")


class TestDrawWorker:
    """Bootstrap blocks are drawn in the calling thread, one just before its
    kernel runs: a failed draw raises in the caller with its own type, no
    thread outlives a call, and concurrent callers get the results of one
    call at a time."""

    @pytest.fixture
    def threads(self):
        import threading

        before = threading.active_count()
        yield
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "name,pipeline,target,shots",
        [
            ("star-experimental", "closed_form", "star", 2000),
            ("diamond-canonical", "reconstruction", "full_tomography", 300),
        ],
    )
    def test_joined_after_a_run(self, threads, name, pipeline, target, shots):
        cfg = RunConfig(shots_per_setting=shots, seed=2)
        data = [sample_setting(named_state(name), s, cfg) for s in plan_measurements(target).settings]
        mi_curve_from_counts(data, 1, pipeline, bootstrap_resamples=60, seed=2)

    def test_joined_after_the_closed_form_refusal(self, threads):
        with pytest.raises(ValueError, match="the counts pin no error on P"):
            mi_curve_from_counts(star_counts(1, 1), 1, "closed_form", bootstrap_resamples=500, seed=1)

    def test_joined_after_the_reconstruction_refusal(self, threads):
        cfg = RunConfig(shots_per_setting=1, seed=1)
        data = [sample_setting(named_state("diamond-canonical"), s, cfg)
                for s in plan_measurements("full_tomography").settings]
        with pytest.raises(ValueError, match=r"eigenvalue -1\.177"):
            mi_curve_from_counts(data, 1, "reconstruction", bootstrap_resamples=100, seed=1)

    def test_a_failed_draw_raises_in_the_caller(self, threads, monkeypatch):
        data = star_counts(2000, 1)
        monkeypatch.setattr(measurement.np.random, "default_rng", lambda *args: _FailingRng())
        with pytest.raises(RuntimeError, match="^multinomial stub failed$"):
            mi_curve_from_counts(data, 1, "closed_form", bootstrap_resamples=500, seed=1)

    def test_a_draw_failing_after_the_first_block(self, threads, monkeypatch):
        data = star_counts(2000, 1)
        real = np.random.default_rng

        class FailsSecond:
            def __init__(self, *args):
                self.rng, self.calls = real(*args), 0

            def multinomial(self, *args, **kwargs):
                self.calls += 1
                if self.calls == 2:
                    raise RuntimeError("second block failed")
                return self.rng.multinomial(*args, **kwargs)

        monkeypatch.setattr(measurement.np.random, "default_rng", FailsSecond)
        with pytest.raises(RuntimeError, match="^second block failed$"):
            mi_curve_from_counts(data, 1, "closed_form", bootstrap_resamples=500, seed=1)

    def test_two_user_threads_at_once(self):
        import threading

        cfg = RunConfig(shots_per_setting=3000, seed=5)
        jobs = {
            "closed_form": [sample_setting(named_state("star-experimental"), s, cfg)
                            for s in plan_measurements("star").settings],
            "reconstruction": [sample_setting(named_state("diamond-canonical"), s, cfg)
                               for s in plan_measurements("full_tomography").settings],
        }

        def result(pipeline):
            curve = mi_curve_from_counts(jobs[pipeline], 1, pipeline, bootstrap_resamples=120, seed=5)
            return [(p.mean_mi, p.min_mi, p.max_mi, p.stderr) for p in curve.points], curve.system_entropy, curve._diagnostics

        alone = {pipeline: result(pipeline) for pipeline in jobs}
        for _ in range(3):
            together = {}
            users = [threading.Thread(target=lambda p=p: together.update({p: result(p)})) for p in jobs]
            for user in users:
                user.start()
            for user in users:
                user.join(timeout=60)
                assert not user.is_alive()
            assert together == alone

    def test_many_small_blocks_under_fast_thread_switching(self, monkeypatch):
        # one replica per block makes a hand-over per replica; four callers
        # on two cores, switching threads every 10 us, must still get the
        # curves of one call at a time
        import sys
        import threading

        monkeypatch.setattr(measurement, "_BOOTSTRAP_ENTRIES", 1)
        datasets = [star_counts(500, seed) for seed in (1, 2, 3, 4)]

        def result(i):
            curve = mi_curve_from_counts(datasets[i], 1, "closed_form", bootstrap_resamples=40, seed=i)
            return [p.stderr for p in curve.points], curve._diagnostics

        alone = [result(i) for i in range(4)]
        together = [None] * 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            users = [threading.Thread(target=lambda i=i: together.__setitem__(i, result(i))) for i in range(4)]
            for user in users:
                user.start()
            for user in users:
                user.join(timeout=60)
                assert not user.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert together == alone
