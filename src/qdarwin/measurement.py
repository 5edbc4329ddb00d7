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
from .estimator import (  # noqa: F401  (diamond_mutual_information, star_mutual_information: perfbench/tracer.py wraps these bindings)
    _NEGATIVITY_TOL,
    STAR_CORRELATORS,
    CorrelatorTable,
    _check_negativity,
    _closed_form_replicas,
    _point_curve,
    _reconstruction_replicas,
    diamond_mutual_information,
    plan_measurements,
    star_mutual_information,
    star_parameters,
)
from .qcore import (  # noqa: F401  (apply_gate: perfbench/tracer.py wraps this binding)
    _EIGENVALUE_FLOOR,
    HADAMARD,
    PAULI_MATRICES,
    PauliString,
    StateVector,
    all_pauli_strings,
    apply_gate,
    as_pauli,
)

_SEED_MASK = (1 << 64) - 1
_SAMPLE_STREAM = 0x5E77
_BOOTSTRAP_STREAM = 0xB007
# Count entries (replicas x settings x outcomes) per bootstrap block, those of 25
# tomography replicas: it bounds the batched arrays whatever the replica count.
_BOOTSTRAP_ENTRIES = 25 * 81 * 16

# Rotations that take each letter's eigenbasis to the computational basis
# (Z needs none), +1 eigenvector first.
_ROTATIONS = {
    "X": HADAMARD,
    "Y": np.array([[1, -1j], [1, 1j]], dtype=complex) / math.sqrt(2),
}


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
        if self.shots_per_setting < 1:
            raise ValueError("shots_per_setting must be positive")
        _check_resamples(self.bootstrap_resamples)


def _check_resamples(count: int) -> None:
    if count < 2:
        raise ValueError(f"bootstrap_resamples must be at least 2 for a standard error, got {count}")


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
        if self.shots < 1:
            raise ValueError(f"setting {setting} has {self.shots} shots; every setting needs at least 1")
        n = len(setting)
        total = 0
        for key, count in self.counts.items():
            if len(key) != n or set(key) - {"0", "1"}:
                raise ValueError(f"outcome key {key!r} is not a {n}-bit string")
            if int(count) < 0:
                raise ValueError(f"negative count for outcome {key!r}")
            total += int(count)
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected shots = {self.shots}")
        object.__setattr__(self, "setting", setting)
        object.__setattr__(self, "counts", dict(self.counts))

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
        return cls(
            setting=PauliString(data["setting"]),
            shots=int(data["shots"]),
            counts={k: int(v) for k, v in data["counts"].items()},
        )

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
    return [OutcomeCounts.from_json_dict(item) for item in json.loads(text)]


def _setting_rng(seed: int, labels: str) -> np.random.Generator:
    code = 0
    for letter in labels:
        code = code * 4 + "IXYZ".index(letter)
    return np.random.default_rng(np.random.SeedSequence([seed & _SEED_MASK, _SAMPLE_STREAM, code]))


def _plan_probabilities(state, labels) -> np.ndarray:
    """Born probabilities (S, 2^n) of every setting in labels, each qubit read in
    the eigenbasis of its Pauli letter (bit 0 <-> eigenvalue +1).

    Qubit by qubit, the distinct setting prefixes form a stack, and those that
    add the same letter are rotated together, so each rotation runs once per
    prefix.  A ket takes U on its qubit's axis as one 2 x 2 by 2 x 2^(n-1)
    product per prefix, the product of a setting rotated alone, so no bit
    depends on the other settings.  A density matrix needs only diag(U rho
    U^dag): its row and column axes of the qubit are contracted together with
    u[a, i] conj(u[a, j]), which halves the tensor.
    """
    n = state.n_qubits
    ket = isinstance(state, StateVector)
    stack, rows = (state.amplitudes if ket else state.entries)[None], {"": 0}
    for q in range(n):
        heads = {}  # prefix of length q + 1 -> its row in the next stack
        for label in labels:
            heads.setdefault(label[: q + 1], len(heads))
        nxt = np.empty((len(heads), stack[0].size // (1 if ket else 2)), complex)
        for letter in "XYZ":
            group = [p for p in heads if p[-1] == letter]
            if not group:
                continue
            part = stack[[rows[p[:-1]] for p in group]]
            if ket and letter in _ROTATIONS:
                shape = (len(group),) + (2,) * n
                part = np.moveaxis(part.reshape(shape), q + 1, 1).reshape(len(group), 2, -1)
                part = np.moveaxis((_ROTATIONS[letter] @ part).reshape(shape), 1, q + 1)
            elif not ket:
                u = _ROTATIONS.get(letter, PAULI_MATRICES["I"])
                rest = 2 ** (n - q - 1)
                weights = u[:, :, None] * u.conj()[:, None, :]
                part = np.einsum("aij,dirjc->darc", weights, part.reshape(len(group) * 2**q, 2, rest, 2, rest))
            nxt[[heads[p] for p in group]] = part.reshape(len(group), -1)
        stack, rows = nxt, heads
    probs = np.clip(np.abs(stack) ** 2 if ket else np.real(stack), 0.0, None)
    return (probs / probs.sum(axis=1, keepdims=True))[[rows[label] for label in labels]]


def _sample_counts(state, labels, cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """Count vectors (S, 2^n) and shot totals (S,) of the full-weight settings in
    labels, each drawn from its own (cfg.seed, setting) stream as if alone."""
    probs = _plan_probabilities(state, labels)
    counts, shots = np.empty(probs.shape), np.empty(len(labels), dtype=int)
    for i, label in enumerate(labels):
        rng = _setting_rng(cfg.seed, label)
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
        raise ValueError(
            f"setting {setting} contains identity symbols; marginalize a "
            "full-weight setting instead"
        )
    if len(setting) != state.n_qubits:
        raise ValueError(f"setting length {len(setting)} != {state.n_qubits} qubits")
    counts, _ = _sample_counts(state, [setting.labels], cfg)
    return OutcomeCounts.from_vector(setting, counts[0])


@lru_cache(maxsize=64)
def _correlator_plan(setting_labels: tuple[str, ...], wanted_labels: tuple[str, ...]):
    """Label-only part of correlator estimation, shared by every replica: the
    2^n x 2^n parity (Walsh-Hadamard) matrix, which turns a count vector into
    the outcome parity of every qubit subset, and the wanted strings grouped
    by their number of covering settings.  Per group: the strings' indices,
    and per string its parity's flat index in a settings x subsets grid and
    its covering settings, in data order."""
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
    groups = []
    for size in sorted(set(n_covers.tolist())):  # np.unique would import numpy.ma (~20 ms)
        rows = np.flatnonzero(n_covers == size)
        covering = np.nonzero(covers[rows])[1].reshape(len(rows), size)
        groups.append((rows, covering * 2**n + subsets[rows, None], covering))
    parity = reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * n)
    for array in (parity, *(a for group in groups for a in group)):
        array.flags.writeable = False
    return parity, tuple(groups)


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
    """
    parity, groups = plan
    parities = ((counts @ parity) / shots[:, None]).reshape(len(counts), -1)
    value = np.empty((len(counts), sum(len(rows) for rows, _, _ in groups)))
    sigma = np.empty_like(value)
    for rows, flat, settings in groups:
        # np.take keeps each string's covering settings contiguous, so the
        # sums below add in the same order as np.sum over one string
        values = np.take(parities, flat, axis=1)
        sigmas = np.sqrt(np.maximum(1.0 - values * values, 0.0) / shots[settings])
        exact = sigmas == 0.0
        n_exact = exact.sum(axis=-1)
        weights = np.where(exact, 0.0, 1.0 / np.where(exact, 1.0, sigmas * sigmas))
        total = np.where(n_exact > 0, 1.0, weights.sum(axis=-1))
        value[:, rows] = np.where(
            n_exact > 0,
            np.where(exact, values, 0.0).sum(axis=-1) / np.maximum(n_exact, 1),
            (weights * values).sum(axis=-1) / total,
        )
        sigma[:, rows] = np.where(n_exact > 0, 0.0, 1.0 / np.sqrt(total))
    return value, sigma


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
    """Refuse an unknown pipeline or a system outside 1..4, before any sampling."""
    if pipeline not in PLAN_TARGETS:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    if not 1 <= system <= 4:
        raise ValueError(f"system index {system} out of range")


@lru_cache(maxsize=None)
def _pipeline_tables(pipeline: str):
    """The label tables a pipeline reads, built once: its plan's setting labels,
    its wanted correlators and their labels."""
    wanted = STAR_CORRELATORS if pipeline == "closed_form" else tuple(all_pauli_strings(4))
    settings = tuple(s.labels for s in plan_measurements(PLAN_TARGETS[pipeline]).settings)
    return settings, wanted, tuple(w.labels for w in wanted)


def mi_curve_from_counts(
    data,
    system: int,
    pipeline: str,
    *,
    bootstrap_resamples: int = 500,
    seed: int = 0,
) -> MICurve:
    """Run the estimation pipeline on stored outcome histograms.

    The data must cover the pipeline's correlators (17 settings for
    closed_form, the 81 tomography settings for reconstruction).  The
    observed counts are replica zero of a seeded bootstrap: point standard
    errors are standard deviations over multinomially resampled counts (at
    least 2).  The closed form raises when the point estimate fails its
    model check or its counts pin no error on P.  The curve's _diagnostics
    holds what the run did: the closed form's model margin and clipped
    replicas, or how many replicas the reconstruction projected and their
    lowest eigenvalue.
    """
    _check_estimate(system, pipeline)
    _check_resamples(bootstrap_resamples)
    observed = _observed_counts(list(data), _pipeline_tables(pipeline)[2])
    return _curve_from_counts(*observed, system, pipeline, bootstrap_resamples, seed)


def _curve_from_counts(plan, counts, shots, system: int, pipeline: str, bootstrap_resamples: int, seed: int):
    """mi_curve_from_counts on the arrays it reads: the data's correlator plan, its
    (S, 2^n) count vectors and (S,) shot totals.  A refused run draws no replica."""
    wanted = _pipeline_tables(pipeline)[1]
    values, sigmas = _estimate_batch(counts[None], shots, plan)
    if pipeline == "closed_form":
        params = star_parameters(CorrelatorTable(dict(zip(wanted, zip(values[0], sigmas[0])))))
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
    point = kernel(values)
    if pipeline == "reconstruction":
        _check_negativity(point[2][0])
    probabilities = counts / counts.sum(axis=1, keepdims=True)
    boot_rng = np.random.default_rng(np.random.SeedSequence([seed & _SEED_MASK, _BOOTSTRAP_STREAM]))
    per_block = max(1, _BOOTSTRAP_ENTRIES // counts.size)
    blocks = []
    for start in range(0, bootstrap_resamples, per_block):
        size = min(per_block, bootstrap_resamples - start)
        # replica-major, setting-minor: one multinomial per (replica, setting), however blocked
        block = boot_rng.multinomial(shots, probabilities, size=(size, len(shots))).astype(float)
        blocks.append(kernel(_estimate_batch(block, shots, plan)[0]))
    spread = np.std(np.concatenate([c for (c, _, _), _, _ in blocks]), axis=0, ddof=1)
    flags = np.concatenate([f for _, _, f in blocks])
    if pipeline == "closed_form":
        diagnostics = {
            "replicas_clipped": int(np.sum(flags)),
            "model_deviation": float(f"{params.deviation:.12g}"),
            "model_sigma_p": float(f"{params.sigma_p:.12g}"),
        }
    else:
        diagnostics = {
            "replicas_projected": int(np.sum(flags < _EIGENVALUE_FLOOR)),
            "replicas_beyond_tolerance": int(np.sum(flags < -_NEGATIVITY_TOL)),
            "worst_replica_eigenvalue": float(f"{flags.min():.12g}"),
        }
    return _point_curve(point, spread.tolist(), diagnostics)


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
    settings, _, wanted_labels = _pipeline_tables(pipeline)
    plan = _correlator_plan(settings, wanted_labels)
    return _curve_from_counts(
        plan, *_sample_counts(state, settings, cfg), system, pipeline, cfg.bootstrap_resamples, cfg.seed
    )
