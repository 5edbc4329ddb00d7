"""Finite-statistics data acquisition for the correlator pipeline.

Each measurement setting fixes a Pauli eigenbasis per qubit; a run draws a
multinomial sample of outcome bitstrings, correlators are estimated from
outcome parities with binomial one-sigma errors, and mutual-information
error bars come from bootstrap resampling of the counts.

Sampling streams are derived from (seed, setting), not from list position,
so results are independent of setting order and of any parallel scheduling.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial, reduce

import numpy as np

from .darwinism import MICurve, MIPoint, _mixed_entropies, _nonnegative
from .estimator import (  # noqa: F401  (diamond_mutual_information, star_mutual_information: perfbench/tracer.py wraps these bindings)
    _NEGATIVITY_TOL,
    STAR_CORRELATORS,
    CorrelatorTable,
    StarParameters,
    _check_negativity,
    _density_batch,
    _magnitude,
    _star_populations,
    _two_branch_mi,
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
    _projected_density,
    all_pauli_strings,
    apply_gate,
    as_pauli,
)

_SEED_MASK = (1 << 64) - 1
_SAMPLE_STREAM = 0x5E77
_BOOTSTRAP_STREAM = 0xB007
# Bootstrap replicas are resampled and analysed this many at a time, which
# bounds the memory of the batched arrays whatever the replica count.
_BOOTSTRAP_BLOCK = 25

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


def _setting_code(setting: PauliString) -> int:
    code = 0
    for letter in setting.labels:
        code = code * 4 + "IXYZ".index(letter)
    return code


def _setting_rng(seed: int, setting: PauliString) -> np.random.Generator:
    entropy = [seed & _SEED_MASK, _SAMPLE_STREAM, _setting_code(setting)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _measurement_probabilities(state, setting: PauliString) -> np.ndarray:
    """Born probabilities of the 2^n outcomes, each qubit read in the
    eigenbasis of its Pauli letter (bit 0 <-> eigenvalue +1).

    A ket takes each rotation U on its qubit's axis.  A density matrix needs
    only diag(U rho U^dag): qubit by qubit, its row and column axes are
    contracted together with u[a, i] conj(u[a, j]), which halves the tensor.
    """
    n = state.n_qubits
    if isinstance(state, StateVector):
        tensor = state.amplitudes.reshape((2,) * n)
        for q, letter in enumerate(setting.labels):
            if letter in _ROTATIONS:
                tensor = np.moveaxis(np.tensordot(_ROTATIONS[letter], tensor, axes=(1, q)), 0, q)
        probs = np.abs(tensor.reshape(-1)) ** 2
    else:
        tensor = state.entries
        for q, letter in enumerate(setting.labels):
            u = _ROTATIONS.get(letter, PAULI_MATRICES["I"])
            rest = 2 ** (n - q - 1)
            weights = u[:, :, None] * u.conj()[:, None, :]
            tensor = np.einsum("aij,dirjc->darc", weights, tensor.reshape(2**q, 2, rest, 2, rest))
        probs = np.real(tensor.reshape(-1))
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


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
    rng = _setting_rng(cfg.seed, setting)
    probs = _measurement_probabilities(state, setting)
    shots = cfg.shots_per_setting
    if cfg.poisson_shots:
        shots = max(int(rng.poisson(cfg.shots_per_setting)), 1)
    vector = rng.multinomial(shots, probs)
    return OutcomeCounts.from_vector(setting, vector)


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


def _observed_correlators(data: list, wanted: list):
    """The correlator plan of data for the wanted strings, data's (S, 2^n) count vectors
    and (S,) shot totals, and the (1, W) correlators and one-sigma errors they give."""
    plan = _correlator_plan(tuple(oc.setting.labels for oc in data), tuple(w.labels for w in wanted))
    counts, shots = np.stack([oc.count_vector() for oc in data]), np.array([oc.shots for oc in data])
    return (plan, counts, shots, *_estimate_batch(counts[None], shots, plan))


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
        # sums below add in the same order as np.sum over one string, and
        # float_power rounds as Python's ** on one value does
        values = np.take(parities, flat, axis=1)
        sigmas = np.sqrt(np.maximum(1.0 - np.float_power(values, 2), 0.0) / shots[settings])
        exact = sigmas == 0.0
        n_exact = exact.sum(axis=-1)
        weights = np.where(exact, 0.0, 1.0 / np.float_power(np.where(exact, 1.0, sigmas), 2))
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
    *_, values, sigmas = _observed_correlators(list(data), wanted)
    return CorrelatorTable(dict(zip(wanted, zip(values[0], sigmas[0]))))


def clip_to_two_branch_model(params: StarParameters) -> StarParameters:
    """Project sampled (P, C) onto the physical two-branch set.

    The ideal star state sits on the positivity boundary, and its Re C = 1/2
    is read exactly, so noise in Im C puts nearly every finite-sample
    estimate outside it; clamping P to [0, 1] and |C| to sqrt(P(1-P)) is the
    model-space analogue of project_to_physical and leaves the
    fragment-size-1/2 values untouched.
    """
    p, c = _clip_two_branch(params.p, params.c)
    if p == params.p and c == params.c:
        return params
    return replace(params, p=float(p), c=complex(c))


def _clip_two_branch(p, c):
    """clip_to_two_branch_model, elementwise over arrays of P and C."""
    p = np.clip(p, 0.0, 1.0)
    c_max = np.sqrt(np.maximum(p * (1.0 - p), 0.0))
    magnitude = _magnitude(c)
    over = magnitude > c_max
    return p, np.where(over, c * (c_max / np.where(over, magnitude, 1.0)), c)


def _closed_form_replicas(values: np.ndarray):
    """Mean, min and max (B, 3) per fragment size of each replica's 32 star
    correlators (one closed-form value per size, so all three are equal),
    its H_S = I(1), and whether its (P, C) had to be clipped into the
    two-branch model."""
    p_raw, _, c_raw = _star_populations(values)
    p, c = _clip_two_branch(p_raw, c_raw)
    curves, _ = _two_branch_mi(p, c)
    return (curves, curves, curves), curves[:, 0], (p != p_raw) | (c != c_raw)


def _reconstruction_replicas(values: np.ndarray, system: int):
    """Mean, min and max (B, 3) per fragment size of each replica's 256
    correlators, its H_S, and the lowest eigenvalue of its linear inversion.

    Every inversion is projected to the physical set however negative its
    spectrum: one bad resample must not end the run.  Refusing the point
    estimate is left to the caller.
    """
    rho = _density_batch(values)
    eigs, vecs = np.linalg.eigh(rho)
    lowest = eigs[:, 0]
    unphysical = lowest < _EIGENVALUE_FLOOR
    rho[unphysical] = _projected_density(eigs[unphysical], vecs[unphysical])
    env = [q for q in range(1, 5) if q != system]
    h = partial(_mixed_entropies, rho)
    h_s = h([(system,)])  # once for every size; S u F lists the system first, as in mutual_information
    sizes = [list(itertools.combinations(env, d)) for d in (1, 2, 3)]
    groups = [_nonnegative(h_s + h(fragments) - h([(system,) + f for f in fragments])) for fragments in sizes]
    mean, lo, hi = (np.stack([f(group, axis=1) for group in groups], axis=1) for f in (np.mean, np.min, np.max))
    # as in mi_curve: round-off must not put a mean outside [min, max]
    return (np.clip(mean, lo, hi), lo, hi), h_s[:, 0], lowest


def _check_estimate(system: int, pipeline: str) -> None:
    """Refuse an unknown pipeline or a system outside 1..4, before any sampling."""
    if pipeline not in ("closed_form", "reconstruction"):
        raise ValueError(f"unknown pipeline {pipeline!r}")
    if not 1 <= system <= 4:
        raise ValueError(f"system index {system} out of range")


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
    model check.  The curve's _diagnostics holds what the run did: the
    closed form's model margin and clipped replicas, or how many replicas
    the reconstruction projected and their lowest eigenvalue.
    """
    _check_estimate(system, pipeline)
    _check_resamples(bootstrap_resamples)
    data = list(data)
    wanted = STAR_CORRELATORS if pipeline == "closed_form" else all_pauli_strings(4)
    plan, counts, shots, values, sigmas = _observed_correlators(data, wanted)
    if pipeline == "closed_form":
        params = star_parameters(CorrelatorTable(dict(zip(wanted, zip(values[0], sigmas[0])))))
        if not params.consistent:
            raise ValueError(
                "the closed-form model check failed: the two measured branch populations "
                f"give |P + Q - 1| = {params.deviation:.3g} with sigma_P = {params.sigma_p:.3g}, "
                "so the data are outside the two-branch model (use the reconstruction pipeline)"
            )
        kernel = _closed_form_replicas
    else:
        kernel = partial(_reconstruction_replicas, system=system)
    (mean, lo, hi), h_s, flag = kernel(values)
    if pipeline == "reconstruction":
        _check_negativity(flag[0])

    probabilities = counts / counts.sum(axis=1, keepdims=True)
    boot_rng = np.random.default_rng(
        np.random.SeedSequence([seed & _SEED_MASK, _BOOTSTRAP_STREAM])
    )
    curves, flags = [], []
    for start in range(0, bootstrap_resamples, _BOOTSTRAP_BLOCK):
        size = min(_BOOTSTRAP_BLOCK, bootstrap_resamples - start)
        # replica-major, setting-minor: the same draws as one multinomial per
        # (replica, setting) in that order
        resampled = boot_rng.multinomial(shots, probabilities, size=(size, len(shots)))
        (block_curves, _, _), _, block_flags = kernel(_estimate_batch(resampled.astype(float), shots, plan)[0])
        curves.append(block_curves)
        flags.append(block_flags)
    spread = np.std(np.concatenate(curves), axis=0, ddof=1)
    flags = np.concatenate(flags)
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
    rows = zip((1, 2, 3), mean[0].tolist(), lo[0].tolist(), hi[0].tolist(), spread.tolist())
    points = tuple(MIPoint(d, m, low, high, math.comb(3, d), err) for d, m, low, high, err in rows)
    return MICurve(points=points, system_entropy=float(h_s[0]), n_env=3, _diagnostics=diagnostics)


def estimate_mi_curve(state, system: int, cfg: RunConfig, pipeline: str) -> MICurve:
    """Full simulated pipeline: plan, sample, estimate, analyze, bootstrap.

    closed_form runs the star (P, C) extraction from 17 settings;
    reconstruction runs linear inversion plus physical projection from the 81
    tomography settings.
    """
    if state.n_qubits != 4:
        raise ValueError("the estimation pipeline is defined for 4-qubit states")
    _check_estimate(system, pipeline)
    plan = plan_measurements("star" if pipeline == "closed_form" else "full_tomography")
    data = [sample_setting(state, s, cfg) for s in plan.settings]
    return mi_curve_from_counts(
        data, system, pipeline, bootstrap_resamples=cfg.bootstrap_resamples, seed=cfg.seed
    )
