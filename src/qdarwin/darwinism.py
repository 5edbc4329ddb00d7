"""System-fragment mutual information over environment fragments.

The environment of a state with system qubit s is every other qubit; a
fragment is a subset of those.  The curve of mutual information against
fragment size is the central object: a flat curve at the system entropy
signals redundant (objective) records, a growing one signals their absence.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .graphstate import GraphSpec
from .qcore import (  # noqa: F401  (partial_trace, von_neumann_entropy: perfbench/tracer.py wraps these bindings)
    StateVector,
    _check_qubit_budget,
    _cut,
    _entropy_batch,
    _partial_trace_batch,
    _pure_entropies,
    partial_trace,
    subsystem_entropy,
    von_neumann_entropy,
)

_PI_SLACK = 1e-12  # rad: round-off of phases such as 3*pi or -g*t, nothing more
_DEFAULT_MAX_EXHAUSTIVE = 10**6
_DEFAULT_SAMPLE_SIZE = 1000
_DEFAULT_SAMPLE_SEED = 1789
_STEP_SIGMAS = 2.0  # classify_curve: a step between points with stderr must beat this many sigma

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
    members = Fragment(tuple(fragment)).members
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
    return float(_nonnegative(np.array(value)))


def _nonnegative(values: np.ndarray) -> np.ndarray:
    """Mutual-information values clamped to >= 0 (and -0.0 to 0.0); a value
    below -1e-9 is an error, not round-off."""
    if values.min() < -1e-9:
        raise ValueError(f"mutual information {float(values.min())!r} violates nonnegativity")
    return np.maximum(values, 0.0) + 0.0


def _mutual_information_batch(mats: np.ndarray, system: int, fragments) -> np.ndarray:
    """I(S:F) >= 0 of every density matrix in a (..., d, d) stack for every
    fragment (a validated tuple of labels): shape (..., len(fragments))."""
    h = functools.partial(_mixed_entropies, mats)
    return _nonnegative(h([(system,)]) + h(fragments) - h([(system,) + f for f in fragments]))


def _mixed_entropies(mats: np.ndarray, subsets) -> np.ndarray:
    """Entropies in bits of the reductions of a (..., d, d) stack of density
    matrices to each subset: shape (..., len(subsets))."""
    return _entropy_batch(np.stack([_partial_trace_batch(mats, s) for s in subsets], axis=-3))


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
            stderr = None if stderr == "" else float(stderr)
            points.append(MIPoint(int(delta), float(mean), float(lo), float(hi), int(count), stderr))
        return cls(points=tuple(points), system_entropy=system_entropy, n_env=n_env)

    def to_json_dict(self) -> dict:
        return {
            "system_entropy": self.system_entropy,
            "n_env": self.n_env,
            "points": [asdict(p) for p in self.points],
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
    return MIPoint(delta, mean, lo, hi, n_total, stderr)


def _backend(source) -> str:
    """mi_curve's entropy backend: "stabilizer" for a GraphSpec whose edge
    phases are all pi or 0 (mod 2 pi), "weighted-graph" for other GraphSpecs,
    "dense-pure" for a StateVector and "dense-mixed" for a DensityMatrix."""
    if isinstance(source, GraphSpec):
        offsets = [abs(math.remainder(phase, 2 * math.pi)) for _, _, phase in source.edges]
        return "stabilizer" if all(min(x, math.pi - x) <= _PI_SLACK for x in offsets) else "weighted-graph"
    return "dense-pure" if isinstance(source, StateVector) else "dense-mixed"


def _curve_diagnostics(source) -> dict:
    """What mi_curve(source, system) does with its default sampling: the
    backend and how many fragments it enumerates and draws."""
    counts = [math.comb(source.n_qubits - 1, d) for d in range(1, source.n_qubits)]
    return {
        "backend": _backend(source),
        "fragments_exhaustive": sum(c for c in counts if c <= _DEFAULT_MAX_EXHAUSTIVE),
        "fragments_sampled": sum(_DEFAULT_SAMPLE_SIZE for c in counts if c > _DEFAULT_MAX_EXHAUSTIVE),
        "sample_size": _DEFAULT_SAMPLE_SIZE,
    }


def _cut_blocks(spec: GraphSpec, subsets) -> np.ndarray:
    """(B, k, n - k) blocks of edge phases, reduced into [-pi, pi], between
    each of B subsets A of k labels and the rest of the graph."""
    phases = np.zeros((spec.n_qubits, spec.n_qubits))
    for j, k, phase in spec.edges:
        phases[j - 1, k - 1] = phases[k - 1, j - 1] = math.remainder(phase, 2 * math.pi) + 0.0
    k = len(subsets[0])
    order = _cut(spec.n_qubits, subsets)
    return phases[order[:, :k, None], order[:, None, k:]]


def _graph_entropies(spec: GraphSpec, subsets) -> np.ndarray:
    """Entropies in bits of the reductions of a graph state with edge phases
    pi or 0 (mod 2 pi) to B subsets A of k labels each: the ranks over GF(2)
    of the adjacency blocks Gamma[A, not A] (Hein, Eisert and Briegel, PRA
    69, 062311 (2004)), by Gaussian elimination on all blocks at once."""
    blocks = (np.abs(_cut_blocks(spec, subsets)) > math.pi / 2).astype(np.uint8)  # pi, not 0: an edge
    if 2 * len(subsets[0]) < spec.n_qubits:
        blocks = blocks.transpose(0, 2, 1).copy()  # eliminate along the shorter side
    rank = np.zeros(len(blocks))
    for col in range(blocks.shape[2]):
        ones = blocks[:, :, col]
        rank += ones.any(axis=1)
        # adding a pivot row to every row with a 1 in this column clears the
        # column and the pivot row itself, which leaves the other rows' rank
        blocks ^= ones[:, :, None] * blocks[np.arange(len(blocks)), ones.argmax(axis=1)][:, None, :]
    return rank


def _weighted_entropies(spec: GraphSpec, subsets) -> np.ndarray:
    """Entropies in bits of the reductions of any graph state to B subsets of k
    labels each, from the edges across each cut (Hein et al., quant-ph/0602096):
    with W the phases between the coupled qubits (those with a cross edge), rows
    on the side with fewer of them (s), the reduction is D R D^dag, D diagonal,
    R[x, x'] = 2^-s prod_j cos((c_j(x) - c_j(x')) / 2), c(x) = x^T W; s = 0
    leaves it pure.  Byte-identical blocks W are diagonalised once."""
    blocks = _cut_blocks(spec, subsets)
    size = max(blocks.shape[1:])
    square = np.pad(blocks, ((0, 0), (0, size - blocks.shape[1]), (0, size - blocks.shape[2])))
    flip = blocks.any(axis=2).sum(axis=1) > blocks.any(axis=1).sum(axis=1)
    square[flip] = np.swapaxes(square[flip], 1, 2)  # rows: the side with fewer coupled qubits
    coupled = [square.any(axis=2), square.any(axis=1)]  # qubits with a cross edge, moved first
    rows, cols = (np.argsort(~c, axis=1, kind="stable") for c in coupled)
    square = square[np.arange(len(square))[:, None, None], rows[:, :, None], cols[:, None, :]]
    side, width = (c.sum(axis=1) for c in coupled)
    out = np.zeros(len(square))
    for s in set(side.tolist()) - {0}:
        pick = np.flatnonzero(side == s)
        w = square[pick, :s, : width[pick].max()]
        distinct, inverse = np.unique(w.reshape(len(w), -1).view(f"V{w[0].nbytes}"), return_inverse=True)
        distinct = distinct.view(float).reshape(-1, *w.shape[1:])
        step = max(1, 2**18 // (8 * 4**s))  # stacks of R of about 256 KB
        parts = [_coupling_entropies(distinct[i : i + step]) for i in range(0, len(distinct), step)]
        out[pick] = np.concatenate(parts)[inverse.reshape(-1)]
    return out


def _coupling_entropies(w: np.ndarray) -> np.ndarray:
    """Entropies in bits of R (see _weighted_entropies) of a (B, s, t) stack of
    blocks W, from cos and sin tables of the half angles c(x) / 2."""
    s = w.shape[1]
    half = np.swapaxes(w, 1, 2) @ ((np.arange(2**s) >> np.arange(s)[:, None]) & 1) / 2  # (B, t, 2^s)
    cos, sin = np.cos(half)[..., None], np.sin(half)[..., None]
    mats = np.full((len(w), 2**s, 2**s), 2.0**-s)
    for j in range(w.shape[2]):  # cos(u - v) = cos u cos v + sin u sin v
        mats *= cos[:, j] * np.swapaxes(cos[:, j], 1, 2) + sin[:, j] * np.swapaxes(sin[:, j], 1, 2)
    return _entropy_batch(mats)


def _in_chunks(kernel, subsets) -> np.ndarray:
    """kernel(chunk) over an iterable of subsets, 4096 at a time, so that
    only one chunk of label tuples is ever held."""
    subsets = iter(subsets)
    return np.concatenate([kernel(c) for c in iter(lambda: list(itertools.islice(subsets, 4096)), [])])


def mi_curve(
    source,
    system: int,
    *,
    max_exhaustive: int = _DEFAULT_MAX_EXHAUSTIVE,
    sample_size: int = _DEFAULT_SAMPLE_SIZE,
    seed: int = _DEFAULT_SAMPLE_SEED,
) -> MICurve:
    """Mean/min/max mutual information for every fragment size 1..n_env.

    `source` is a StateVector, DensityMatrix or GraphSpec (its `system` is
    ignored); it sets the entropy backend, see _backend.  Sizes with more
    than max_exhaustive fragments are estimated from sample_size uniformly
    drawn fragments (fixed seed, reported standard error); everything else
    is enumerated exhaustively.
    """
    if not 1 <= system <= source.n_qubits:
        raise ValueError(f"system index {system} out of range")
    env = [q for q in range(1, source.n_qubits + 1) if q != system]
    backend = _backend(source)
    mixed = backend == "dense-mixed"
    if backend == "stabilizer":
        kernel = functools.partial(_graph_entropies, source)
    elif backend == "weighted-graph":
        _check_qubit_budget(source.n_qubits)  # R is up to 2^(n/2) square
        kernel = functools.partial(_weighted_entropies, source)
    elif backend == "dense-pure":
        kernel = functools.partial(_pure_entropies, source.amplitudes)
    else:
        kernel = functools.partial(_mixed_entropies, source.entries)
    entropies = functools.partial(_in_chunks, kernel)
    h_s = float(entropies([(system,)])[0])
    rng = np.random.default_rng(seed)
    h_f, h_sf = {0: np.zeros(1)}, {}  # entropies of the fragments and their unions with S, by size
    for d in range(1, len(env) + 1):
        sampled = math.comb(len(env), d) > max_exhaustive
        if sampled:
            fragments = [tuple(sorted(rng.choice(env, size=d, replace=False))) for _ in range(sample_size)]
        else:
            fragments = itertools.combinations(env, d)
        if sampled or mixed:
            fragments = list(fragments)
            # H(S u F), which is H(E \ F) if the global state is pure
            joint = [(system,) + f if mixed else tuple(q for q in env if q not in f) for f in fragments]
            h_sf[d] = entropies(joint)
        h_f[d] = entropies(fragments)
    points = []
    for d in range(1, len(env) + 1):
        sampled = math.comb(len(env), d) > max_exhaustive
        # otherwise H(S u F) is H(E \ F) again, and the complements of the
        # size-d subsets are the size-(n_env - d) subsets in reverse order
        values = _nonnegative(h_s + h_f[d] - (h_sf[d] if d in h_sf else h_f[len(env) - d][::-1]))
        stderr = float(np.std(values, ddof=1) / math.sqrt(len(values))) if sampled else None
        points.append(_aggregate(d, values, math.comb(len(env), d), stderr))
    return MICurve(points=tuple(points), system_entropy=h_s, n_env=len(env))


def classify_curve(curve: MICurve, slope_tol: float) -> str:
    """Label a curve as "plateau", "growing", or "other".

    Plateau: every size up to n_env - 1 sits within slope_tol of the system
    entropy (which must itself exceed slope_tol, otherwise there is no
    information whose redundancy could be witnessed).  Growing: at least two
    consecutive size steps each rise by more than slope_tol, and by more than
    2 sigma of the step where both points carry a stderr.
    """
    points = [p for p in curve.points if p.delta > 0]
    if len(points) < 3:
        raise ValueError("classification needs at least 3 curve points")
    if curve.system_entropy > slope_tol and all(
        abs(p.mean_mi - curve.system_entropy) <= slope_tol for p in points[:-1]
    ):
        return "plateau"
    rises = []
    for a, b in zip(points, points[1:]):
        noise = 0.0 if None in (a.stderr, b.stderr) else _STEP_SIGMAS * math.hypot(a.stderr, b.stderr)
        rises.append(b.mean_mi - a.mean_mi > max(slope_tol, noise))
    return "growing" if any(first and second for first, second in zip(rises, rises[1:])) else "other"
