"""System-fragment mutual information over environment fragments.

The environment of a state with system qubit s is every other qubit; a
fragment is a subset of those.  The curve of mutual information against
fragment size is the central object: a flat curve at the system entropy
signals redundant (objective) records, a growing one signals their absence.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    StateVector,
    _entropy_batch,
    _partial_trace_batch,
    partial_trace,
    subsystem_entropy,
    von_neumann_entropy,
)

_DEFAULT_MAX_EXHAUSTIVE = 10**6
_DEFAULT_SAMPLE_SIZE = 1000
_DEFAULT_SAMPLE_SEED = 1789

CSV_HEADER = "delta,mean_mi,min_mi,max_mi,n_fragments,stderr"


@dataclass(frozen=True)
class Fragment:
    """Ordered set of environment qubit labels."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        members = tuple(int(q) for q in self.members)
        if len(set(members)) != len(members):
            raise ValueError(f"fragment has repeated qubits: {members}")
        if any(q < 1 for q in members):
            raise ValueError(f"qubit labels are 1-based, got {members}")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def enumerate_fragments(n_env: int, delta: int) -> list[Fragment]:
    """All C(n_env, delta) fragments of environment qubits 2..n_env+1
    (system at qubit 1), in lexicographic order."""
    if n_env < 1:
        raise ValueError("n_env must be >= 1")
    if not 0 <= delta <= n_env:
        raise ValueError(f"delta {delta} out of range for {n_env} environment qubits")
    labels = range(2, n_env + 2)
    return [Fragment(combo) for combo in itertools.combinations(labels, delta)]


def _validate_fragment(n: int, system: int, fragment) -> tuple[int, ...]:
    members = tuple(fragment) if not isinstance(fragment, Fragment) else fragment.members
    members = Fragment(members).members
    if system in members:
        raise ValueError(f"fragment {members} contains the system qubit {system}")
    if any(q > n for q in members):
        raise ValueError(f"fragment {members} out of range for {n} qubits")
    return members


def mutual_information(state, system: int, fragment) -> float:
    """I = H_S + H_F - H_SF in bits, clamped to >= 0.

    Pure global states use the fast pure-bipartition route; density-matrix
    inputs go through explicit partial traces.
    """
    n = state.n_qubits
    if not 1 <= system <= n:
        raise ValueError(f"system index {system} out of range")
    members = _validate_fragment(n, system, fragment)
    if not members:
        return 0.0
    if not isinstance(state, StateVector):
        return float(_mutual_information_batch(state.entries, system, [members])[0])
    value = (
        subsystem_entropy(state, (system,))
        + subsystem_entropy(state, members)
        - subsystem_entropy(state, (system,) + members)
    )
    if value < -1e-9:
        raise ValueError(f"mutual information {value!r} violates nonnegativity")
    return max(value, 0.0) + 0.0  # + 0.0: no -0.0


def _mutual_information_batch(mats: np.ndarray, system: int, fragments) -> np.ndarray:
    """I(S:F) >= 0 of every density matrix in a (..., d, d) stack for every
    fragment (a validated tuple of labels): shape (..., len(fragments))."""
    h_s = _entropy_batch(_partial_trace_batch(mats, (system,)))
    values = np.empty(mats.shape[:-2] + (len(fragments),))
    for j, members in enumerate(fragments):
        h_f = _entropy_batch(_partial_trace_batch(mats, members))
        h_sf = _entropy_batch(_partial_trace_batch(mats, (system,) + members))
        values[..., j] = h_s + h_f - h_sf
    if values.min() < -1e-9:
        raise ValueError(f"mutual information {float(values.min())!r} violates nonnegativity")
    return np.maximum(values, 0.0) + 0.0


@dataclass(frozen=True)
class MIPoint:
    delta: int
    mean_mi: float
    min_mi: float
    max_mi: float
    n_fragments: int
    stderr: float | None = None


@dataclass(frozen=True)
class MICurve:
    """Mutual information aggregated per fragment size."""

    points: tuple[MIPoint, ...]
    system_entropy: float
    n_env: int

    def __post_init__(self) -> None:
        points = tuple(self.points)
        deltas = [p.delta for p in points]
        expected = list(range(1, self.n_env + 1))
        if deltas not in (expected, [0] + expected):
            raise ValueError(f"deltas {deltas} must cover 1..{self.n_env} (optionally with 0)")
        bound = 2 * self.system_entropy + 1e-9
        for p in points:
            if not (p.min_mi <= p.mean_mi <= p.max_mi):
                raise ValueError(f"point {p} violates min <= mean <= max")
            if p.min_mi < -1e-9 or p.max_mi > bound:
                raise ValueError(f"point {p} outside [0, 2 * system entropy]")
        object.__setattr__(self, "points", points)

    def point(self, delta: int) -> MIPoint:
        for p in self.points:
            if p.delta == delta:
                return p
        raise KeyError(f"no point at delta {delta}")

    def mean_values(self) -> list[float]:
        return [p.mean_mi for p in self.points if p.delta > 0]

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for p in self.points:
            stderr = "" if p.stderr is None else f"{p.stderr:.12g}"
            lines.append(
                f"{p.delta},{p.mean_mi:.12g},{p.min_mi:.12g},{p.max_mi:.12g},"
                f"{p.n_fragments},{stderr}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, system_entropy: float, n_env: int) -> "MICurve":
        lines = [ln for ln in text.strip().splitlines() if ln]
        if lines[0] != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {lines[0]!r}")
        points = []
        for line in lines[1:]:
            delta, mean, lo, hi, count, stderr = line.split(",")
            points.append(
                MIPoint(
                    delta=int(delta),
                    mean_mi=float(mean),
                    min_mi=float(lo),
                    max_mi=float(hi),
                    n_fragments=int(count),
                    stderr=None if stderr == "" else float(stderr),
                )
            )
        return cls(points=tuple(points), system_entropy=system_entropy, n_env=n_env)

    def to_json_dict(self) -> dict:
        return {
            "system_entropy": self.system_entropy,
            "n_env": self.n_env,
            "points": [
                {
                    "delta": p.delta,
                    "mean_mi": p.mean_mi,
                    "min_mi": p.min_mi,
                    "max_mi": p.max_mi,
                    "n_fragments": p.n_fragments,
                    "stderr": p.stderr,
                }
                for p in self.points
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "MICurve":
        points = tuple(MIPoint(**p) for p in data["points"])
        return cls(points=points, system_entropy=data["system_entropy"], n_env=data["n_env"])


def _aggregate(delta: int, values: np.ndarray, n_total: int, stderr: float | None) -> MIPoint:
    mean = float(np.mean(values))
    lo = float(np.min(values))
    hi = float(np.max(values))
    # the mathematical mean lies in [min, max]; pin down summation round-off
    mean = min(max(mean, lo), hi)
    return MIPoint(
        delta=delta,
        mean_mi=mean,
        min_mi=lo,
        max_mi=hi,
        n_fragments=n_total,
        stderr=stderr,
    )


def mi_curve(
    state,
    system: int,
    *,
    max_exhaustive: int = _DEFAULT_MAX_EXHAUSTIVE,
    sample_size: int = _DEFAULT_SAMPLE_SIZE,
    seed: int = _DEFAULT_SAMPLE_SEED,
) -> MICurve:
    """Mean/min/max mutual information for every fragment size 1..n_env.

    Sizes with more than max_exhaustive fragments are estimated from
    sample_size uniformly drawn fragments (fixed seed, reported standard
    error); everything else is enumerated exhaustively.
    """
    n = state.n_qubits
    if not 1 <= system <= n:
        raise ValueError(f"system index {system} out of range")
    env = [q for q in range(1, n + 1) if q != system]
    if isinstance(state, StateVector):
        h_s = subsystem_entropy(state, (system,))
    else:
        h_s = von_neumann_entropy(partial_trace(state, (system,)))
    rng = np.random.default_rng(seed)
    points = []
    for delta in range(1, len(env) + 1):
        n_total = math.comb(len(env), delta)
        if n_total <= max_exhaustive:
            fragments = itertools.combinations(env, delta)
            values = np.array([mutual_information(state, system, f) for f in fragments])
            stderr = None
        else:
            draws = [tuple(sorted(rng.choice(env, size=delta, replace=False))) for _ in range(sample_size)]
            values = np.array([mutual_information(state, system, f) for f in draws])
            stderr = float(np.std(values, ddof=1) / math.sqrt(len(values)))
        points.append(_aggregate(delta, values, n_total, stderr))
    return MICurve(points=tuple(points), system_entropy=h_s, n_env=len(env))


def classify_curve(curve: MICurve, slope_tol: float) -> str:
    """Label a curve as "plateau", "growing", or "other".

    Plateau: every size up to n_env - 1 sits within slope_tol of the system
    entropy (which must itself exceed slope_tol, otherwise there is no
    information whose redundancy could be witnessed).  Growing: at least two
    consecutive size steps each increase by more than slope_tol.
    """
    means = curve.mean_values()
    if len(means) < 3:
        raise ValueError("classification needs at least 3 curve points")
    if curve.system_entropy > slope_tol and all(
        abs(m - curve.system_entropy) <= slope_tol for m in means[:-1]
    ):
        return "plateau"
    steps = [b - a for a, b in zip(means, means[1:])]
    for first, second in zip(steps, steps[1:]):
        if first > slope_tol and second > slope_tol:
            return "growing"
    return "other"
