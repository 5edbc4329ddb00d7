"""Finite-statistics data acquisition for the correlator pipeline.

Each measurement setting fixes a Pauli eigenbasis per qubit; a run draws a
multinomial sample of outcome bitstrings, correlators are estimated from
outcome parities with binomial one-sigma errors, and mutual-information
error bars come from bootstrap resampling of the counts.

Sampling streams are derived from (seed, setting), not from list position,
so results are independent of setting order and of any parallel scheduling.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache, partial, reduce

import numpy as np

from .darwinism import MICurve
from .estimator import (  # noqa: F401  (diamond_mutual_information, star_mutual_information, star_parameters: perfbench/tracer.py wraps these bindings)
    _NEGATIVITY_TOL,
    STAR_CORRELATORS,
    CorrelatorTable,
    _check_point,
    _closed_form_replicas,
    _point_curve,
    _reconstruction_replicas,
    _star_parameters,
    diamond_mutual_information,
    plan_measurements,
    star_mutual_information,
    star_parameters,
)
from .graphstate import _check_system, _is_integer, _json_fields
from .qcore import (  # noqa: F401  (apply_gate: perfbench/tracer.py wraps this binding)
    _EIGENVALUE_FLOOR,
    HADAMARD,
    PAULI_MATRICES,
    PauliString,
    StateVector,
    _rng,
    all_pauli_strings,
    apply_gate,
    as_pauli,
)

_SAMPLE_STREAM = 0x5E77
_BOOTSTRAP_STREAM = 0xB007
_LETTER_DIGITS = str.maketrans("IXYZ", "0123")  # a setting read in base 4 keys its sample stream
# A bootstrap block holds at most 100 replicas and the count entries (replicas x settings x
# outcomes) of 100 tomography replicas: fixed per-call costs are paid once per 100 replicas.
_BOOTSTRAP_REPLICAS, _BOOTSTRAP_ENTRIES = 100, 100 * 81 * 16

# Rotations that take each letter's eigenbasis to the computational basis,
# +1 eigenvector first, stacked in "XYZ" order (Z needs none: the identity).
_ROTATIONS = np.array([HADAMARD, np.array([[1, -1j], [1, 1j]]) / math.sqrt(2), PAULI_MATRICES["I"]])


@dataclass(frozen=True)
class RunConfig:
    """Acquisition parameters.

    The default 4500 shots per setting corresponds to roughly nine seconds of
    coincidences at a 500/s rate.  With poisson_shots=True the total per
    setting is itself Poisson-distributed with that mean.
    """

    shots_per_setting: int = 4500
    seed: int = 0
    bootstrap_resamples: int = 500
    poisson_shots: bool = False

    def __post_init__(self) -> None:
        if not _is_integer(self.shots_per_setting) or self.shots_per_setting < 1:
            raise ValueError(f"shots_per_setting must be a positive integer, got {self.shots_per_setting!r}")
        _check_bootstrap(self.bootstrap_resamples, self.seed)


def _check_bootstrap(count: int, seed: int) -> None:
    if not _is_integer(count) or count < 2:
        raise ValueError(f"bootstrap_resamples must be an integer of at least 2 for a standard error, got {count!r}")
    if not _is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")


@dataclass(frozen=True)
class OutcomeCounts:
    """Observed outcome histogram for one full-weight measurement setting."""

    setting: PauliString
    shots: int
    counts: dict

    def __post_init__(self) -> None:
        setting = as_pauli(self.setting)
        if setting.weight != len(setting):
            raise ValueError(f"setting {setting} contains identity symbols")
        if not _is_integer(self.shots) or self.shots < 1:
            raise ValueError(f"setting {setting} has {self.shots!r} shots; every setting needs a positive integer")
        n = len(setting)
        total = 0
        for key, count in self.counts.items():
            if len(key) != n or set(key) - {"0", "1"}:
                raise ValueError(f"outcome key {key!r} is not a {n}-bit string")
            if not _is_integer(count):
                raise ValueError(f"field 'counts' of setting {setting} must map outcomes to integers, got {key!r}: {count!r}")
            if count < 0:
                raise ValueError(f"negative count for outcome {key!r}")
            total += count
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected shots = {self.shots}")
        object.__setattr__(self, "setting", setting)
        object.__setattr__(self, "shots", int(self.shots))  # numpy integers are not JSON
        object.__setattr__(self, "counts", {key: int(count) for key, count in self.counts.items()})

    def count_vector(self) -> np.ndarray:
        n = len(self.setting)
        vec = np.zeros(2**n, dtype=float)
        for key, count in self.counts.items():
            vec[int(key, 2)] = count
        return vec

    def to_json_dict(self) -> dict:
        return {"setting": str(self.setting), "shots": self.shots, "counts": dict(self.counts)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "OutcomeCounts":
        setting, shots, counts = _json_fields(data, setting=str, shots=int, counts=dict)
        return cls(setting=PauliString(setting), shots=shots, counts=counts)

    @classmethod
    def from_vector(cls, setting: PauliString, vector: np.ndarray) -> "OutcomeCounts":
        n = len(setting)
        counts = {
            format(idx, f"0{n}b"): int(c) for idx, c in enumerate(vector) if c > 0
        }
        return cls(setting=setting, shots=int(vector.sum()), counts=counts)


def counts_to_json(data) -> str:
    return json.dumps([oc.to_json_dict() for oc in data], indent=2) + "\n"


def counts_from_json(text: str) -> list[OutcomeCounts]:
    items = json.loads(text)
    if not isinstance(items, list):
        raise ValueError(f"a counts file holds a JSON list of settings, got {type(items).__name__}")
    return [OutcomeCounts.from_json_dict(item) for item in items]


def _plan_probabilities(state, labels) -> np.ndarray:
    """Born probabilities (S, 2^n) of every setting in labels, each qubit read in
    the eigenbasis of its Pauli letter (bit 0 <-> eigenvalue +1).

    Qubit by qubit, the distinct setting prefixes form a stack, and one
    batched product rotates every prefix by its own letter's 2 x 2, so each
    rotation runs once per prefix.  A ket takes U on its qubit's axis as a 2 x
    2 by 2 x 2^(n-1) product per prefix, the product of a setting rotated
    alone, so no bit depends on the other settings.  A density matrix needs
    only diag(U rho U^dag): its row and column axes of the qubit are
    contracted together with u[a, i] conj(u[a, j]), which halves the tensor.
    """
    n = state.n_qubits
    ket = isinstance(state, StateVector)
    stack, rows = (state.amplitudes if ket else state.entries)[None], {"": 0}
    for q in range(n):
        heads = {}  # prefix of length q + 1 -> its row in the next stack
        for label in labels:
            heads.setdefault(label[: q + 1], len(heads))
        part, u = stack[[rows[p[:-1]] for p in heads]], _ROTATIONS[["XYZ".index(p[-1]) for p in heads]]
        if ket:
            shape = (len(heads),) + (2,) * n
            part = np.moveaxis(part.reshape(shape), q + 1, 1).reshape(len(heads), 2, -1)
            part = np.moveaxis((u @ part).reshape(shape), 1, q + 1)
        else:
            rest = 2 ** (n - q - 1)
            weights = u[:, :, :, None] * u.conj()[:, :, None, :]
            part = np.einsum("gaij,gdirjc->gdarc", weights, part.reshape(len(heads), 2**q, 2, rest, 2, rest))
        stack, rows = part.reshape(len(heads), -1), heads
    probs = np.clip(np.abs(stack) ** 2 if ket else np.real(stack), 0.0, None)
    return (probs / probs.sum(axis=1, keepdims=True))[[rows[label] for label in labels]]


def _sample_counts(state, labels, cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """Count vectors (S, 2^n) and shot totals (S,) of the full-weight settings in
    labels, each drawn from its own (cfg.seed, setting) stream as if alone."""
    probs = _plan_probabilities(state, labels)
    counts, shots = np.empty(probs.shape), np.empty(len(labels), dtype=int)
    for i, label in enumerate(labels):
        rng = _rng(cfg.seed, _SAMPLE_STREAM, int(label.translate(_LETTER_DIGITS), 4))
        shots[i] = cfg.shots_per_setting
        if cfg.poisson_shots:
            shots[i] = max(int(rng.poisson(cfg.shots_per_setting)), 1)
        counts[i] = rng.multinomial(shots[i], probs[i])
    return counts, shots


def sample_setting(state, setting, cfg: RunConfig) -> OutcomeCounts:
    """Multinomial sample of outcome bitstrings for one setting.

    Deterministic given cfg.seed; the stream is keyed by the setting itself.
    """
    setting = as_pauli(setting)
    if setting.weight != len(setting):
        raise ValueError(f"setting {setting} contains identity symbols; marginalize a full-weight setting instead")
    if len(setting) != state.n_qubits:
        raise ValueError(f"setting length {len(setting)} != {state.n_qubits} qubits")
    return next(sample_plan(state, [setting], cfg))


def sample_plan(state, settings, cfg: RunConfig):
    """sample_setting of each full-weight setting of the state's size, unchecked, all drawn
    by one _sample_counts call on the first next()."""
    counts, _ = _sample_counts(state, [s.labels for s in settings], cfg)
    yield from map(OutcomeCounts.from_vector, settings, counts)


@lru_cache(maxsize=64)
def _correlator_plan(setting_labels: tuple[str, ...], wanted_labels: tuple[str, ...]):
    """Label-only part of correlator estimation, shared by every replica: the
    2^n x 2^n parity (Walsh-Hadamard) matrix, which turns a count vector into
    the outcome parity of every qubit subset, the wanted strings grouped by
    their number of covering settings, the (S, 2^n) outcome classes rep and
    the number of wanted strings.  Per group: the strings' indices, and per
    string its parity's flat index in a settings x subsets grid and its
    covering settings, in data order.  The all-identity string is in no
    group: Tr rho = 1, and any counts read it as 1 with sigma 0.  rep[s, x]
    is the smallest outcome whose parity equals x's on every subset read from
    setting s: an X/Y setting of the star plan has two classes."""
    n = len(wanted_labels[0])
    if any(len(label) != n for label in wanted_labels + setting_labels):
        raise ValueError("all wanted strings and settings must have equal length")
    codes = {c: i for i, c in enumerate("IXYZ")}
    wanted = np.array([[codes[c] for c in w] for w in wanted_labels]).reshape(-1, n)
    settings = np.array([[codes[c] for c in s] for s in setting_labels]).reshape(-1, n)
    covers = np.all((wanted[:, None, :] == 0) | (wanted[:, None, :] == settings), axis=-1)
    n_covers = covers.sum(axis=1)
    if not n_covers.all():
        raise ValueError(f"no setting in the data covers {wanted_labels[np.argmin(n_covers)]}")
    subsets = (wanted != 0) @ (1 << np.arange(n - 1, -1, -1))
    groups, estimated = [], subsets != 0
    for size in sorted(set(n_covers[estimated].tolist())):  # np.unique would import numpy.ma (~20 ms)
        rows = np.flatnonzero(estimated & (n_covers == size))
        covering = np.nonzero(covers[rows])[1].reshape(len(rows), size)
        groups.append((rows, covering * 2**n + subsets[rows, None], covering))
    parity = reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * n)
    read = np.zeros((len(settings), 2**n), dtype=bool)
    for _, flat, _ in groups:
        read.flat[flat] = True
    # splits[s, z]: some subset read from s has odd parity on z, so x and x ^ z differ
    splits = read @ (parity < 0)
    rep = np.argmin(splits[:, np.arange(2**n)[:, None] ^ np.arange(2**n)], axis=-1)
    for array in (parity, rep, *(a for group in groups for a in group)):
        array.flags.writeable = False
    return parity, tuple(groups), rep, len(wanted_labels)


def _observed_counts(data: list, wanted_labels: tuple):
    """The correlator plan of data for the wanted strings, data's (S, 2^n) count
    vectors and its (S,) shot totals."""
    plan = _correlator_plan(tuple(oc.setting.labels for oc in data), wanted_labels)
    return plan, np.stack([oc.count_vector() for oc in data]), np.array([oc.shots for oc in data])


def _estimate_batch(counts: np.ndarray, shots: np.ndarray, plan) -> tuple[np.ndarray, np.ndarray]:
    """Correlators and one-sigma errors, (B, W) each, from a (B, S, 2^n)
    stack of count vectors.

    Every covering setting gives c = mean parity and sigma = sqrt((1 - c^2)/N);
    they combine by inverse-variance weighting, except that settings with
    sigma = 0 (all outcomes of one parity) are exact and are averaged alone.
    Only the parity sums a group gathers are divided by their shots.  The
    all-identity string, in no group, is filled as (1, 0): the bits that
    weighting gives it, since each setting's counts sum to its shots.
    """
    parity, groups, _, width = plan
    sums = (counts @ parity).reshape(len(counts), -1)  # integer parity sums, exact in any order
    value, sigma = np.ones((len(counts), width)), np.zeros((len(counts), width))
    for rows, flat, settings in groups:
        # covering settings first, (C, B, R): _cover_sum adds whole (B, R) slabs in np.sum's order on one string
        n_shots = shots[settings.T][:, None]
        values = np.take(sums, flat.T, axis=1).transpose(1, 0, 2) / n_shots
        sigmas = np.sqrt(np.maximum(1.0 - values * values, 0.0) / n_shots)
        exact = sigmas == 0.0
        inverse = 1.0 / np.where(exact, 1.0, sigmas * sigmas)
        if len(n_shots) == 1:  # one cover: the bits of the weighted mean below, without its sums
            value[:, rows] = np.where(exact, values, inverse * values / inverse)[0]
            sigma[:, rows] = np.where(exact, 0.0, 1.0 / np.sqrt(inverse))[0]
            continue
        n_exact = exact.sum(axis=0)
        weights = np.where(exact, 0.0, inverse)
        total = np.where(n_exact > 0, 1.0, _cover_sum(weights))
        exact_mean = _cover_sum(np.where(exact, values, 0.0)) / np.maximum(n_exact, 1)
        value[:, rows] = np.where(n_exact > 0, exact_mean, _cover_sum(weights * values) / total)
        sigma[:, rows] = np.where(n_exact > 0, 0.0, 1.0 / np.sqrt(total))
    return value, sigma


def _cover_sum(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=0) of a (C, ...) stack with the bits of np.sum(axis=-1) on the (..., C) layout: +0.0
    plus numpy's pairwise_sum of each contiguous row (numpy/_core/src/umath/loops_utils.h.src)."""
    if (n := len(x)) < 8:  # a left fold
        return reduce(np.add, x, 0.0)
    if n > 128:  # two halves, split at a multiple of 8
        return _cover_sum(x[: n // 16 * 8]) + _cover_sum(x[n // 16 * 8 :])
    # eight running sums of every eighth term, added as ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)), then the rest
    r = reduce(np.add, x[: n - n % 8].reshape((-1, 8) + x.shape[1:]))
    return reduce(np.add, x[n - n % 8 :], r[0] + r[1] + (r[2] + r[3]) + (r[4] + r[5] + (r[6] + r[7]))) + 0.0


def estimate_correlators(data, wanted) -> CorrelatorTable:
    """Estimate correlators from outcome histograms.

    A correlator is read from every covering setting as the mean outcome
    parity on its non-identity positions, with sigma = sqrt((1 - c^2)/N);
    several covering settings combine by inverse-variance weighting.
    """
    wanted = [as_pauli(w) for w in wanted]
    plan, counts, shots = _observed_counts(list(data), tuple(w.labels for w in wanted))
    values, sigmas = _estimate_batch(counts[None], shots, plan)
    return CorrelatorTable(dict(zip(wanted, zip(values[0], sigmas[0]))))


# the measurement plan each estimate pipeline samples
PLAN_TARGETS = {"closed_form": "star", "reconstruction": "full_tomography"}


def _check_estimate(system: int, pipeline: str) -> None:
    """Refuse an unknown pipeline or a system that is not an integer in 1..4, before any sampling."""
    if pipeline not in PLAN_TARGETS:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    _check_system(system, 4)


@lru_cache(maxsize=2)  # one entry per pipeline, each name checked before the call
def _pipeline_tables(pipeline: str):
    """The labels a pipeline reads, built once: its plan's settings and its wanted correlators."""
    wanted = STAR_CORRELATORS if pipeline == "closed_form" else all_pauli_strings(4)
    settings = tuple(s.labels for s in plan_measurements(PLAN_TARGETS[pipeline]).settings)
    return settings, tuple(w.labels for w in wanted)


def mi_curve_from_counts(
    data,
    system: int,
    pipeline: str,
    *,
    bootstrap_resamples: int = 500,
    seed: int = 0,
) -> MICurve:
    """Run the estimation pipeline on stored outcome histograms.

    The data, any iterable of OutcomeCounts, is read only after the other
    arguments pass their checks; it must cover the pipeline's correlators (17
    settings for closed_form, the 81 tomography settings for reconstruction).
    The observed counts are replica zero of a seeded bootstrap: point standard
    errors are standard deviations over multinomially resampled counts (at
    least 2).  The closed form raises when the point estimate fails its model
    check or its counts pin no error on P.  The curve's _diagnostics holds what
    the run did: the closed form's model margin and clipped replicas, or how
    many replicas the reconstruction projected, their lowest eigenvalue and the
    bootstrap bias, mean(replicas) - point."""
    _check_estimate(system, pipeline)
    _check_bootstrap(bootstrap_resamples, seed)
    observed = _observed_counts(list(data), _pipeline_tables(pipeline)[1])
    return _curve_from_counts(*observed, system, pipeline, bootstrap_resamples, seed)


def _curve_from_counts(plan, counts, shots, system: int, pipeline: str, bootstrap_resamples: int, seed: int):
    """mi_curve_from_counts on the arrays it reads: the data's correlator plan, its
    (S, 2^n) count vectors and (S,) shot totals.  A refused run draws no replica."""
    values, sigmas = _estimate_batch(counts[None], shots, plan)
    if pipeline == "closed_form":
        params = _star_parameters(values[0], sigmas[0].tolist())
        if params.sigma_p == 0.0 and abs(params.c) >= 3.0 * params.sigma_c:
            raise ValueError(
                f"the counts pin no error on P: every ZZZZ shot gave one outcome, so P = {params.p:.3g} with "
                f"sigma_P = 0, yet |C| = {abs(params.c):.3g} (sigma_C = {params.sigma_c:.3g}) needs both "
                "branches; take more shots per setting"
            )
        if not params.consistent:
            raise ValueError(
                "the closed-form model check failed: the two measured branch populations "
                f"give |P + Q - 1| = {params.deviation:.3g} with sigma_P = {params.sigma_p:.3g}, "
                "so the data are outside the two-branch model (use the reconstruction pipeline)"
            )
        kernel = _closed_form_replicas
    else:
        kernel = partial(_reconstruction_replicas, system=system)
        _check_point(values)  # before any replica is drawn
    # resample only the outcome classes the estimator reads, each at its representative;
    # a class summed to 1 + 1 ulp would fail multinomial's pvals > 1 check
    probabilities = np.zeros(counts.shape)
    np.add.at(probabilities, (np.arange(len(counts))[:, None], plan[2]), counts / counts.sum(axis=1, keepdims=True))
    probabilities = np.minimum(probabilities, 1.0)
    boot_rng = _rng(seed, _BOOTSTRAP_STREAM)
    per_block = max(1, min(_BOOTSTRAP_REPLICAS, _BOOTSTRAP_ENTRIES // counts.size))
    blocks = []
    for start in range(0, bootstrap_resamples, per_block):
        size = min(per_block, bootstrap_resamples - start)
        # replica-major, setting-minor: one multinomial per (replica, setting), however blocked
        block = boot_rng.multinomial(shots, probabilities, size=(size, len(shots))).astype(float)
        block = block if blocks else np.concatenate([counts[None], block])  # the observed counts ride as row 0
        blocks.append(kernel(_estimate_batch(block, shots, plan)[0]))
    replicas = np.concatenate([c for (c, _, _), _, _ in blocks])[1:]
    spread = np.std(replicas, axis=0, ddof=1)
    flags = np.concatenate([f for _, _, f in blocks])[1:]
    if pipeline == "closed_form":
        diagnostics = {
            "replicas_clipped": int(np.sum(flags)),
            "model_deviation": float(f"{params.deviation:.12g}"),
            "model_sigma_p": float(f"{params.sigma_p:.12g}"),
        }
    else:
        bias = replicas.mean(axis=0) - blocks[0][0][0][0]  # Efron and Tibshirani's bootstrap bias estimate
        diagnostics = {
            "replicas_projected": int(np.sum(flags < _EIGENVALUE_FLOOR)),
            "replicas_beyond_tolerance": int(np.sum(flags < -_NEGATIVITY_TOL)),
            "worst_replica_eigenvalue": float(f"{flags.min():.12g}"),
            "bootstrap_bias": [float(f"{b:.12g}") for b in bias],
            "bias_exceeds_stderr": bool(np.any(np.abs(bias) > spread)),
        }
    return _point_curve(blocks[0], spread.tolist(), diagnostics)


def estimate_mi_curve(state, system: int, cfg: RunConfig, pipeline: str) -> MICurve:
    """Full simulated pipeline: plan, sample, estimate, analyze, bootstrap.

    closed_form runs the star (P, C) extraction from 17 settings;
    reconstruction runs linear inversion plus physical projection from the 81
    tomography settings.  Every setting is sampled as sample_setting would
    sample it, and the counts go to mi_curve_from_counts's core as arrays.
    """
    if state.n_qubits != 4:
        raise ValueError("the estimation pipeline is defined for 4-qubit states")
    _check_estimate(system, pipeline)
    settings, wanted_labels = _pipeline_tables(pipeline)
    plan = _correlator_plan(settings, wanted_labels)
    return _curve_from_counts(
        plan, *_sample_counts(state, settings, cfg), system, pipeline, cfg.bootstrap_resamples, cfg.seed
    )
