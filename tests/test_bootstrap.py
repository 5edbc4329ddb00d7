"""The batched correlator, projection and bootstrap kernels against loop
oracles: every replica's numbers must match a scalar, one-replica-at-a-time
computation to 1e-12."""
import itertools
from functools import partial

import numpy as np
import pytest

from oracle_utils import (
    binary_entropy,
    brute_entropy,
    brute_mutual_information_dm,
    brute_partial_trace,
    eig2x2,
    estimate_batch_general,
    estimate_entries_loop,
    linear_inversion,
    mean_values,
    pauli_matrix,
    projected,
    star_populations_by_terms,
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
    estimate_mi_curve,
    mi_curve,
    mi_curve_from_counts,
    named_state,
    plan_measurements,
    project_to_physical,
    sample_setting,
    star_mutual_information,
    star_parameters,
)
from qdarwin.estimator import (
    STAR_CORRELATORS,
    _closed_form_replicas,
    _density_batch,
    _reconstruction_replicas,
    _star_populations,
    clip_to_two_branch_model,
)
from qdarwin import measurement
from qdarwin.measurement import (
    _BOOTSTRAP_STREAM,
    _correlator_plan,
    _cover_sum,
    _estimate_batch,
    _observed_counts,
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


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def count_block(labels, size, rng):
    """(size, S, 16) bootstrap-like counts and (S,) Poisson shot totals.  In
    row b, settings b and 3b + 1 (mod S) read one outcome only, so every
    string they cover has sigma = 0; with several rows, the last reads one outcome everywhere."""
    shots = np.maximum(rng.poisson(300, size=len(labels)), 1)
    counts = rng.multinomial(shots, rng.dirichlet(np.full(16, 0.5), size=len(labels)), size=(size, len(labels)))
    for row in range(size):
        pinned = {row % len(labels), (3 * row + 1) % len(labels)}
        if size > 1 and row == size - 1:
            pinned = range(len(labels))
        for setting in pinned:
            counts[row, setting] = 0
            counts[row, setting, rng.integers(16)] = shots[setting]
    return counts.astype(float), shots


class TestBitsOfTheReferences:
    """The one-cover fast path of _estimate_batch and the one-array star sum
    must keep every bit of the general weighted mean and of Python's
    term-by-term sum, whatever the block size."""

    @pytest.mark.parametrize("size", [1, 7, 119])
    @pytest.mark.parametrize(
        "target,wanted",
        [("star", STAR_LABELS), ("full_tomography", STAR_LABELS), ("full_tomography", ALL_LABELS)],
        ids=["star", "star from tomography", "tomography"],
    )
    def test_estimates_equal_the_general_weighted_mean(self, rng, target, wanted, size):
        labels = tuple(s.labels for s in plan_measurements(target).settings)
        plan = _correlator_plan(labels, wanted)
        counts, shots = count_block(labels, size, rng)
        got, expected = _estimate_batch(counts, shots, plan), estimate_batch_general(counts, shots, plan, wanted)
        assert same_bits(got[0], expected[0]) and same_bits(got[1], expected[1])

    def test_the_star_plan_estimates_31_one_cover_strings(self):
        # IIII, the one string with several covers, is filled as (1, 0), not estimated
        labels = tuple(s.labels for s in plan_measurements("star").settings)
        _, groups, _, width = _correlator_plan(labels, STAR_LABELS)
        assert width == 32 and len(groups) == 1
        rows, flat, settings = groups[0]
        assert settings.shape == (31, 1) and sorted(rows) == [i for i, w in enumerate(STAR_LABELS) if w != "IIII"]

    @pytest.mark.parametrize("covers", [1, 2, 3, 7, 8, 9, 16, 27, 81, 129, 300])
    def test_cover_sums_add_as_np_sum_on_the_covers_last_layout(self, rng, covers):
        # _cover_sum restates numpy's pairwise order for the (C, B, R) layout; a numpy that
        # sums a contiguous row otherwise fails here before any golden value moves.  Row 0
        # holds zeroed (exact) weights, row 1 zeros of both signs, row 2 all -0.0 (np.sum
        # gives +0.0), row 3 exact cancellations
        x = rng.standard_normal((6, 7, covers)) * 10.0 ** rng.integers(-8, 9, (6, 7, covers))
        x[0, :, rng.random(covers) < 0.5] = 0.0
        x[1] = np.where(rng.random((7, covers)) < 0.5, 0.0, -0.0)
        x[2] = -0.0
        x[3, :, : covers // 2 * 2] = np.repeat([[1.5, -1.5]], covers // 2, axis=0).ravel()
        expected = np.sum(x, axis=-1)
        for stack in (np.moveaxis(x, -1, 0), np.ascontiguousarray(np.moveaxis(x, -1, 0))):
            assert same_bits(_cover_sum(stack), expected)

    @pytest.mark.parametrize("size", [1, 7, 119])
    def test_star_populations_equal_the_term_by_term_sum(self, rng, size):
        labels = tuple(s.labels for s in plan_measurements("star").settings)
        counts, shots = count_block(labels, size, rng)
        values = _estimate_batch(counts, shots, _correlator_plan(labels, STAR_LABELS))[0]
        # a -0.0 first term of P, Q (IIII) and C (XXXX); with several rows, a row where every
        # term of P is -0.0 (-0.0 under a +1 coefficient, +0.0 under a -1), so P must be +0.0
        values[0, [STAR_LABELS.index("IIII"), STAR_LABELS.index("XXXX")]] = -0.0
        if size > 1:
            values[-1] = [np.copysign(0.0, -pauli_matrix(label)[5, 5].real) for label in STAR_LABELS]
        for batch in (values, values[0]):
            got, expected = _star_populations(batch), star_populations_by_terms(batch, STAR_LABELS)
            assert all(same_bits(g, e) for g, e in zip(got, expected))
        if size > 1:
            assert not np.signbit(star_populations_by_terms(values[-1], STAR_LABELS)[0])


def random_unphysical_spectra(rng, rows, dim):
    """Unit-sum spectra with at least one negative entry, sorted ascending."""
    raw = rng.normal(size=(rows, dim)) * rng.uniform(0.02, 0.3, size=(rows, 1))
    raw += (1.0 - raw.sum(axis=1, keepdims=True)) / dim
    raw[:, 0] = -np.abs(raw[:, 0]) - 0.01
    raw[:, 1:] += (1.0 - raw.sum(axis=1, keepdims=True)) / (dim - 1)
    return np.sort(raw, axis=1)


def collapse_onto(counts: np.ndarray, rep: np.ndarray) -> np.ndarray:
    """(B, S, 2^n) counts with every outcome's count moved to its class representative."""
    out = np.zeros_like(counts)
    for s, row in enumerate(rep):
        for x, r in enumerate(row):
            out[:, s, r] += counts[:, s, x]
    return out


class TestOutcomeClasses:
    """A bootstrap replica draws only the outcome classes its estimate reads;
    counts summed onto the class representatives must give the same numbers."""

    @pytest.mark.parametrize("extra", [(), ("ZZXY", "XZYZ", "XXXX", "YZZZ", "ZZZZ")], ids=["star", "extra covers"])
    def test_collapsed_counts_estimate_the_same(self, rng, extra):
        labels = tuple(s.labels for s in plan_measurements("star").settings) + extra
        plan = _correlator_plan(labels, STAR_LABELS)
        shots = rng.integers(20, 400, size=len(labels))
        counts = np.stack(
            [rng.multinomial(n, rng.dirichlet(np.full(16, 0.5))) for _ in range(5) for n in shots]
        ).reshape(5, len(labels), 16).astype(float)
        collapsed = collapse_onto(counts, plan[2])
        assert (np.count_nonzero(collapsed, axis=-1) < np.count_nonzero(counts, axis=-1)).any()
        values, sigmas = _estimate_batch(counts, shots, plan)
        collapsed_values, collapsed_sigmas = _estimate_batch(collapsed, shots, plan)
        assert (collapsed_values == values).all() and (collapsed_sigmas == sigmas).all()

    def test_star_classes_follow_the_labels(self):
        labels = tuple(s.labels for s in plan_measurements("star").settings)
        rep = _correlator_plan(labels, STAR_LABELS)[2]
        assert rep.tolist() == [star_outcome_classes(label) for label in labels]
        # an added ZZXY setting is read on ZIII, IZII and ZZII: four classes by its first two bits
        rep = _correlator_plan(labels + ("ZZXY",), STAR_LABELS)[2]
        assert rep[-1].tolist() == [x & 0b1100 for x in range(16)]

    def test_a_class_summing_past_one_is_drawn(self):
        # 1/13 + 6/13 + 3/13 + 3/13 rounds to 1 + 1 ulp, which multinomial refuses as pvals > 1
        even = OutcomeCounts(setting="XXXX", shots=13, counts={"0000": 1, "0011": 6, "0101": 3, "0110": 3})
        data = [even if oc.setting.labels == "XXXX" else oc for oc in star_counts(300, 1)]
        curve = mi_curve_from_counts(data, 1, "closed_form", bootstrap_resamples=5, seed=1)
        assert all(np.isfinite(p.stderr) for p in curve.points)

    def test_every_tomography_outcome_is_its_own_class(self):
        labels = tuple(s.labels for s in plan_measurements("full_tomography").settings)
        rep = _correlator_plan(labels, ALL_LABELS)[2]
        assert (rep == np.arange(16)).all()


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
        batch = _projected_density(_water_fill(eigs), vecs)
        for mat, out in zip(mats, batch):
            np.testing.assert_allclose(out, projected(mat), atol=TOL)
            single = project_to_physical(DensityMatrix(mat)).entries
            np.testing.assert_allclose(out, single, atol=TOL)


def table_correlators(rho: np.ndarray) -> np.ndarray:
    """Tr(rho p) of every string, in ALL_LABELS order, through explicit Pauli matrices."""
    return np.array([np.real(np.trace(rho @ pauli_matrix(label))) for label in ALL_LABELS])


class TestInversionKernel:
    def test_random_correlators_match_the_pauli_sum(self, rng):
        # values drawn uniformly in [-1, 1] invert to unphysical matrices
        values = rng.uniform(-1.0, 1.0, size=(8, 256))
        values[:, 0] = 1.0
        batch = _density_batch(values)
        assert np.linalg.eigvalsh(batch).min() < -0.1
        for row, out in zip(values, batch):
            np.testing.assert_allclose(out, linear_inversion(dict(zip(ALL_LABELS, row))), rtol=0, atol=TOL)
            assert np.array_equal(out, _density_batch(row[None])[0])  # alone, a row gives the same bits

    @pytest.mark.parametrize("name", ["diamond-canonical", "star-experimental"])
    def test_exact_tables_match_the_pauli_sum(self, name):
        table = correlator_table(named_state(name), all_pauli_strings(4))
        values = np.array([table.value(label) for label in ALL_LABELS])
        oracle = linear_inversion(dict(zip(ALL_LABELS, values)))
        np.testing.assert_allclose(_density_batch(values[None])[0], oracle, rtol=0, atol=TOL)

    def test_whole_state_entropy_on_projected_and_unprojected_replicas(self, rng):
        # full-rank random states invert to themselves; the noisy diamond
        # tables invert to unphysical matrices, which the kernel projects
        mixed = []
        for _ in range(4):
            g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            mixed.append(table_correlators(g @ g.conj().T / np.real(np.trace(g @ g.conj().T))))
        psi = named_state("diamond-canonical").amplitudes
        diamond = table_correlators(np.outer(psi, psi.conj()))
        noisy = np.clip(diamond + rng.uniform(-0.1, 0.1, size=(4, 256)), -1.0, 1.0)
        noisy[:, 0] = 1.0
        values = np.vstack([mixed, noisy])
        (curves, _, _), h_s, lowest = _reconstruction_replicas(values, 1)
        assert (lowest[:4] > 0).all() and (lowest[4:] < -1e-9).all()
        for row, curve, system_entropy in zip(values, curves, h_s):
            rho = projected(linear_inversion(dict(zip(ALL_LABELS, row))))
            # at size 3 the fragment is the whole environment and S u F the whole state
            h_env = brute_entropy(brute_partial_trace(rho, [2, 3, 4], 4))
            assert system_entropy + h_env - curve[2] == pytest.approx(brute_entropy(rho), rel=0, abs=TOL)


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


def star_outcome_classes(label: str) -> list[int]:
    """Each outcome's class representative in a star-plan setting, from its
    letters alone: an X/Y setting is read only on the parity of all four
    outcomes, so its classes are even (0) and odd (1); ZZZZ is read on every
    subset, so each outcome is its own class."""
    if label == "ZZZZ":
        return list(range(16))
    assert set(label) <= {"X", "Y"}
    return [bin(x).count("1") % 2 for x in range(16)]


def class_probabilities(p: np.ndarray, classes: list[int]) -> np.ndarray:
    """The probability of each class placed at its representative, summed one
    outcome at a time in outcome order."""
    out = np.zeros(len(p))
    for x, c in enumerate(classes):
        out[c] += p[x]
    return np.minimum(out, 1.0)


def oracle_bootstrap(data, pipeline: str, replicas: int, seed: int) -> np.ndarray:
    """Replica curves drawn one setting at a time: every outcome of a tomography
    setting, the outcome classes of a star-plan setting."""
    labels = [oc.setting.labels for oc in data]
    shots = [oc.shots for oc in data]
    probabilities = [oc.count_vector() / oc.shots for oc in data]
    wanted = STAR_LABELS if pipeline == "closed_form" else ALL_LABELS
    if pipeline == "closed_form":
        probabilities = [class_probabilities(p, star_outcome_classes(label)) for p, label in zip(probabilities, labels)]
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


class TestCoverageOfTheExactCurve:
    """Projection onto the physical set biases the reconstruction point
    estimate, and the bootstrap spread does not show that bias (Schwemmer et
    al., PRL 114, 080403 (2015)); the reported bootstrap bias does."""

    @pytest.mark.parametrize("shots", [300, 10_000])
    def test_closed_form_lies_within_three_stderr(self, shots):
        exact = [p.mean_mi for p in mi_curve(named_state("star-experimental"), 1).points]
        for seed in (1, 2, 3):
            cfg = RunConfig(shots_per_setting=shots, seed=seed, bootstrap_resamples=100)
            curve = estimate_mi_curve(named_state("star-experimental"), 1, cfg, "closed_form")
            for point, value in zip(curve.points, exact):
                assert abs(point.mean_mi - value) <= 3 * point.stderr

    @pytest.mark.parametrize("shots", [300, 10_000])
    def test_reconstruction_reports_its_bias(self, shots):
        exact = [p.mean_mi for p in mi_curve(named_state("diamond-canonical"), 1).points]
        for seed in (1, 2, 3):
            cfg = RunConfig(shots_per_setting=shots, seed=seed, bootstrap_resamples=100)
            curve = estimate_mi_curve(named_state("diamond-canonical"), 1, cfg, "reconstruction")
            bias = curve._diagnostics["bootstrap_bias"]
            for point, value, b in zip(curve.points, exact, bias):
                assert np.sign(b) == np.sign(point.mean_mi - value) != 0
            assert curve._diagnostics["bias_exceeds_stderr"]
            assert any(abs(b) > p.stderr for b, p in zip(bias, curve.points))

    def test_flag_clear_when_the_bias_is_inside_the_spread(self):
        # a full-rank state at 1e6 shots: no replica is projected, and the
        # plug-in entropies' bias falls below the spread
        psi = named_state("diamond-canonical").amplitudes
        rho = DensityMatrix(0.5 * np.outer(psi, psi.conj()) + 0.5 * np.eye(16) / 16)
        for seed in (1, 2):
            cfg = RunConfig(shots_per_setting=10**6, seed=seed, bootstrap_resamples=100)
            diagnostics = estimate_mi_curve(rho, 1, cfg, "reconstruction")._diagnostics
            assert diagnostics["replicas_projected"] == 0
            assert not diagnostics["bias_exceeds_stderr"]


class TestBlockSizeIndependence:
    """Replicas are drawn replica-major and every kernel is row-independent,
    so the curve and its diagnostics must not depend on how many replicas
    a bootstrap block holds: one per block, the default caps, either cap
    alone, or all in one."""

    @pytest.mark.parametrize(
        "name,pipeline,target,shots,replicas,flag",
        [
            # the default caps give closed-form blocks of 100, 100 and 50 replicas
            ("star-experimental", "closed_form", "star", 2000, 250, "replicas_clipped"),
            ("star-experimental", "closed_form", "star", 3000, 250, "replicas_clipped"),
            # and tomography blocks of 100, 100 and 30
            ("diamond-canonical", "reconstruction", "full_tomography", 30, 230, "replicas_projected"),
        ],
    )
    def test_budget_does_not_move_a_bit(self, monkeypatch, name, pipeline, target, shots, replicas, flag):
        cfg = RunConfig(shots_per_setting=shots, seed=1)
        data = [sample_setting(named_state(name), s, cfg) for s in plan_measurements(target).settings]
        runs = []
        budgets = [
            (measurement._BOOTSTRAP_REPLICAS, measurement._BOOTSTRAP_ENTRIES),  # the defaults
            (measurement._BOOTSTRAP_REPLICAS, 1),  # one replica per block
            (measurement._BOOTSTRAP_REPLICAS, 10**9),  # the replica cap alone: 100 per block
            (7, 10**9),  # a lower replica cap: 7 per block
            (10**9, 37 * 81 * 16),  # the entry cap alone: 37 tomography or 176 closed-form replicas
            (10**9, 10**9),  # all in one block
        ]
        for cap, budget in budgets:
            monkeypatch.setattr(measurement, "_BOOTSTRAP_REPLICAS", cap)
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
            # the tomography settings cover an I/Z string with k identities 3^k times (IIII 81 times)
            ("star-experimental", "closed_form", "full_tomography"),
            ("diamond-canonical", "reconstruction", "full_tomography"),
            ("hyperentangled-xi", "reconstruction", "full_tomography"),
        ],
    )
    @pytest.mark.parametrize("replicas", [2, 3, 5], ids=["1-block", "2-blocks", "3-blocks"])
    def test_point_curve_equals_scalar_path(self, monkeypatch, name, pipeline, target, shots, replicas):
        # blocks of at most 2 replicas: the point rides in the first block's kernel call
        monkeypatch.setattr(measurement, "_BOOTSTRAP_REPLICAS", 2)
        for seed in (1, 2, 3):
            cfg = RunConfig(shots_per_setting=shots, seed=seed)
            data = [sample_setting(named_state(name), s, cfg) for s in plan_measurements(target).settings]
            for system in (1, 2, 3, 4):
                points, system_entropy = scalar_point_curve(data, system, pipeline)
                curve = mi_curve_from_counts(data, system, pipeline, bootstrap_resamples=replicas, seed=seed)
                assert [(p.mean_mi, p.min_mi, p.max_mi) for p in curve.points] == points
                assert curve.system_entropy == system_entropy

    @pytest.mark.parametrize(
        "name,pipeline,target",
        [
            ("star-experimental", "closed_form", "star"),
            ("diamond-canonical", "reconstruction", "full_tomography"),
            ("hyperentangled-xi", "reconstruction", "full_tomography"),
        ],
    )
    def test_no_row_depends_on_its_company(self, name, pipeline, target):
        # the observed counts are row 0 of the first block, through the estimator and the kernel:
        # that row must equal the one-row call, and the block's rows the call without it, bit for bit
        data = [sample_setting(named_state(name), s, RunConfig(shots_per_setting=300, seed=4))
                for s in plan_measurements(target).settings]
        plan, counts, shots = _observed_counts(data, STAR_LABELS if pipeline == "closed_form" else ALL_LABELS)
        draws = np.random.default_rng(8).multinomial(shots, counts / shots[:, None], size=(100, len(shots)))
        (point, point_sigma), (block, block_sigma) = (_estimate_batch(c, shots, plan) for c in (counts[None], draws.astype(float)))
        values, sigmas = _estimate_batch(np.concatenate([counts[None], draws.astype(float)]), shots, plan)
        assert same_bits(values, np.concatenate([point, block])) and same_bits(sigmas, np.concatenate([point_sigma, block_sigma]))
        kernels = [_closed_form_replicas]
        if pipeline == "reconstruction":
            kernels = [partial(_reconstruction_replicas, system=system) for system in (1, 2, 3, 4)]
        for kernel in kernels:
            calls = (point, block, np.concatenate([point, block]))
            outputs = [(*curves, h_s, flag) for curves, h_s, flag in map(kernel, calls)]
            for alone, rest, together in zip(*outputs):
                assert same_bits(together[:1], alone) and same_bits(together[1:], rest)

    def test_the_refusal_reads_the_kernels_lowest_eigenvalue(self, monkeypatch):
        # one shot per setting: the inversion's lowest eigenvalue is -1.177
        data = [sample_setting(named_state("diamond-canonical"), s, RunConfig(shots_per_setting=1, seed=1))
                for s in plan_measurements("full_tomography").settings]
        plan, counts, shots = _observed_counts(data, ALL_LABELS)
        point = _estimate_batch(counts[None], shots, plan)[0]
        draws = np.random.default_rng(8).multinomial(shots, counts / shots[:, None], size=(100, len(shots)))
        block = _estimate_batch(draws.astype(float), shots, plan)[0]
        lowest = _reconstruction_replicas(point, 1)[2]
        in_company = _reconstruction_replicas(np.concatenate([point, block]), 1)[2][:1]
        eigh, checked = np.linalg.eigh, []  # a refused run's one eigh is the refusal's
        monkeypatch.setattr(np.linalg, "eigh", lambda m: checked.append(eigh(m)[0][:, 0]) or eigh(m))
        with pytest.raises(ValueError, match=rf"eigenvalue {float(lowest[0]):.3f}, beyond"):
            mi_curve_from_counts(data, 1, "reconstruction", bootstrap_resamples=2)
        assert same_bits(np.concatenate(checked), lowest) and same_bits(in_company, lowest)

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
    rho = linear_inversion({s.labels: table.value(s) for s in table.entries})
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
            # one eigh of the inversion, whose spectrum gives the whole state's entropy;
            # one eigvalsh per dimension of the other 14 reductions: 2 x 2, 4 x 4 and 8 x 8
            assert calls.count("eigh") == 1
            assert calls.count("eigvalsh") == 3

    @pytest.mark.parametrize("system", [0, 5, 2.5, True])
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
        assert mean_values(curve) == [0.0, 0.0, 0.0]


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


@pytest.mark.parametrize(
    "name,pipeline,target,shots,entries,sizes",
    [
        # 17 settings: the entry cap alone would allow 476 replicas, the replica cap allows 100
        ("star-experimental", "closed_form", "star", 2000, None, [100, 100, 50]),
        ("star-experimental", "closed_form", "full_tomography", 2000, None, [100, 100, 50]),
        ("diamond-canonical", "reconstruction", "full_tomography", 300, None, [100, 100, 50]),
        # a lower entry cap binds before the replica cap: 37 replicas of 81 settings
        ("diamond-canonical", "reconstruction", "full_tomography", 300, 37 * 81 * 16, [37] * 6 + [28]),
    ],
)
def test_no_block_exceeds_either_cap(monkeypatch, name, pipeline, target, shots, entries, sizes):
    cfg = RunConfig(shots_per_setting=shots, seed=4)
    data = [sample_setting(named_state(name), s, cfg) for s in plan_measurements(target).settings]
    if entries is not None:
        monkeypatch.setattr(measurement, "_BOOTSTRAP_ENTRIES", entries)
    draws, real = [], np.random.default_rng

    class Counting:
        def __init__(self, *args):
            self.rng = real(*args)

        def multinomial(self, *args, **kwargs):
            draws.append(kwargs["size"])
            return self.rng.multinomial(*args, **kwargs)

    monkeypatch.setattr(measurement.np.random, "default_rng", Counting)
    mi_curve_from_counts(data, 1, pipeline, bootstrap_resamples=250, seed=4)
    assert draws == [(size, len(data)) for size in sizes]
    for replicas, settings in draws:
        assert replicas <= measurement._BOOTSTRAP_REPLICAS
        assert replicas * settings * 16 <= measurement._BOOTSTRAP_ENTRIES


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
