"""Seeded outputs of both estimate pipelines, pinned at full precision.

Rerunning a seed must give the same curve (test_measurement checks that);
these values also pin what a seed gives across changes to the code, so a
refactor of the sampling, correlator or bootstrap kernels that moves any
bit shows here.  Each case is (pipeline, seed, shots per setting) with 20
bootstrap replicas and system 1: star-experimental for the closed form,
diamond-canonical for the reconstruction.  Values were recorded with
numpy 2.4.6 on OpenBLAS; another LAPACK build may move the last bits of
the reconstruction's eigensolver.
"""
import pytest

from qdarwin import RunConfig, estimate_mi_curve, named_state

STATES = {"closed_form": "star-experimental", "reconstruction": "diamond-canonical"}

# (pipeline, seed, shots): ([(mean, min, max, stderr) per fragment size], H_S, diagnostics)
GOLDEN = {
    ('closed_form', 1, 300): (
        [
            (0.9984284947115638, 0.9984284947115638, 0.9984284947115638, 0.0035297895183361238),
            (0.9984284947115638, 0.9984284947115638, 0.9984284947115638, 0.0035297895183361238),
            (1.9968569894231276, 1.9968569894231276, 1.9968569894231276, 0.007059579036672267),
        ],
        0.9984284947115638,
        {'replicas_clipped': 20, 'model_deviation': 0.0, 'model_sigma_p': 0.0101950877787},
    ),
    ('closed_form', 1, 100000): (
        [
            (0.9999898018532652, 0.9999898018532652, 0.9999898018532652, 2.3352015404400363e-05),
            (0.9999898018532652, 0.9999898018532652, 0.9999898018532652, 2.3352015404400363e-05),
            (1.9999796037065305, 1.9999796037065305, 1.9999796037065305, 4.6704030808791084e-05),
        ],
        0.9999898018532652,
        {'replicas_clipped': 20, 'model_deviation': 1.11022302463e-16, 'model_sigma_p': 0.000559013042782},
    ),
    ('closed_form', 2, 300): (
        [
            (0.9974015885677396, 0.9974015885677396, 0.9974015885677396, 0.007550085402823109),
            (0.9974015885677396, 0.9974015885677396, 0.9974015885677396, 0.007550085402823109),
            (1.9948031771354793, 1.9948031771354793, 1.9948031771354793, 0.015100170805646218),
        ],
        0.9974015885677396,
        {'replicas_clipped': 20, 'model_deviation': 2.22044604925e-16, 'model_sigma_p': 0.0101878195246},
    ),
    ('closed_form', 2, 100000): (
        [
            (0.9999952725717265, 0.9999952725717265, 0.9999952725717265, 8.054951967772516e-06),
            (0.9999952725717265, 0.9999952725717265, 0.9999952725717265, 8.054951967772516e-06),
            (1.999990545143453, 1.999990545143453, 1.999990545143453, 1.6109903935548962e-05),
        ],
        0.9999952725717265,
        {'replicas_clipped': 20, 'model_deviation': 0.0, 'model_sigma_p': 0.000559015162585},
    ),
    ('reconstruction', 1, 300): (
        [
            (0.2823769630418696, 0.0010896205349639754, 0.8440554777026199, 0.0051224264203654675),
            (1.5007433958033793, 0.9265009173171643, 1.7923712341573377, 0.016660193203124375),
            (1.9527836758228079, 1.9527836758228079, 1.9527836758228079, 0.014781973708131668),
        ],
        0.9995712623471431,
        {'replicas_projected': 20, 'replicas_beyond_tolerance': 0, 'worst_replica_eigenvalue': -0.108280524376,
         'bootstrap_bias': [-0.0114842224744, -0.0567223975698, -0.0246498874971], 'bias_exceeds_stderr': True},
    ),
    ('reconstruction', 1, 100000): (
        [
            (0.32820758301011543, 2.734562815964736e-06, 0.9846170470194913, 0.0006788585902941819),
            (1.6506844169690318, 0.9923361673724704, 1.9802542705548636, 0.0013308885672620242),
            (1.9942905397117496, 1.9942905397117496, 1.9942905397117496, 0.0011855662018753193),
        ],
        0.9999995027505454,
        {'replicas_projected': 20, 'replicas_beyond_tolerance': 0, 'worst_replica_eigenvalue': -0.00583943043725,
         'bootstrap_bias': [-0.00145622619423, -0.00520715396191, -0.00112771570627], 'bias_exceeds_stderr': True},
    ),
    ('reconstruction', 2, 300): (
        [
            (0.2868168877214378, 0.0008928856914303118, 0.8582940953138423, 0.005055766441119072),
            (1.5062031192304204, 0.9274255978296744, 1.8025324427682785, 0.014504236695468613),
            (1.9509437420472469, 1.9509437420472469, 1.9509437420472469, 0.01646923147464085),
        ],
        0.9995557849223875,
        {'replicas_projected': 20, 'replicas_beyond_tolerance': 0, 'worst_replica_eigenvalue': -0.114224504801,
         'bootstrap_bias': [-0.0111950998235, -0.056567225937, -0.0263663996827], 'bias_exceeds_stderr': True},
    ),
    ('reconstruction', 2, 100000): (
        [
            (0.3299352285913304, 3.4848335270787345e-06, 0.9897978363646782, 0.000888156357789343),
            (1.653469291419882, 0.9945538805266518, 1.9836471979469592, 0.001415495528824564),
            (1.9957560182127927, 1.9957560182127927, 1.9957560182127927, 0.0015382035859624519),
        ],
        0.999998167667128,
        {'replicas_projected': 20, 'replicas_beyond_tolerance': 0, 'worst_replica_eigenvalue': -0.00555375936127,
         'bootstrap_bias': [-0.00187444859517, -0.00624230652555, -0.00190618968077], 'bias_exceeds_stderr': True},
    ),
}


@pytest.mark.parametrize("pipeline,seed,shots", list(GOLDEN))
def test_seeded_curve_is_pinned(pipeline, seed, shots):
    cfg = RunConfig(shots_per_setting=shots, seed=seed, bootstrap_resamples=20)
    curve = estimate_mi_curve(named_state(STATES[pipeline]), 1, cfg, pipeline)
    points, system_entropy, diagnostics = GOLDEN[pipeline, seed, shots]
    assert [(p.mean_mi, p.min_mi, p.max_mi, p.stderr) for p in curve.points] == points
    assert curve.system_entropy == system_entropy
    assert curve._diagnostics == diagnostics
