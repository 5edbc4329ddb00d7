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
from dataclasses import asdict, dataclass, field

import numpy as np

from .graphstate import GraphSpec
from .qcore import (  # noqa: F401  (partial_trace, subsystem_entropy, von_neumann_entropy: perfbench/tracer.py wraps these bindings)
    StateVector,
    _check_qubit_budget,
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
_CHUNK = 4096  # qubit masks per entropy-kernel call, across fragment sizes

CSV_HEADER = "delta,mean_mi,min_mi,max_mi,n_fragments,stderr"
_BINOMIALS = np.array([[math.comb(c, i) for c in range(65)] for i in range(65)], dtype=np.int64)  # C(c, i) at [i, c]
_BINOMIALS.flags.writeable = False


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


def mutual_information(state, system: int, fragment) -> float:
    """I = H_S + H_F - H_SF in bits, clamped to >= 0.

    Pure global states use the fast pure-bipartition route; density-matrix
    inputs go through explicit partial traces.
    """
    n = state.n_qubits
    if not 1 <= system <= n:
        raise ValueError(f"system index {system} out of range")
    members = Fragment(tuple(fragment)).members
    if system in members:
        raise ValueError(f"fragment {members} contains the system qubit {system}")
    if any(q > n for q in members):
        raise ValueError(f"fragment {members} out of range for {n} qubits")
    if not members:
        return 0.0
    source = state.amplitudes if isinstance(state, StateVector) else state.entries
    h = functools.partial(_pure_entropies if source.ndim == 1 else _mixed_entropies, source)
    return float(_nonnegative(h([(system,)]) + h([members]) - h([(system,) + members]))[0])


def _nonnegative(values: np.ndarray) -> np.ndarray:
    """Mutual-information values clamped to >= 0 (and -0.0 to 0.0); a value
    below -1e-9 is an error, not round-off."""
    if values.min() < -1e-9:
        raise ValueError(f"mutual information {float(values.min())!r} violates nonnegativity")
    return np.maximum(values, 0.0) + 0.0


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
    _diagnostics: dict | None = field(default=None, compare=False, repr=False)  # what mi_curve or the estimate did

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


def _backend(source) -> str:
    """mi_curve's entropy backend: "stabilizer" for a GraphSpec whose edge
    phases are all pi or 0 (mod 2 pi), "weighted-graph" for other GraphSpecs,
    "dense-pure" for a StateVector and "dense-mixed" for a DensityMatrix."""
    if isinstance(source, GraphSpec):
        offsets = [abs(math.remainder(phase, 2 * math.pi)) for _, _, phase in source.edges]
        return "stabilizer" if all(min(x, math.pi - x) <= _PI_SLACK for x in offsets) else "weighted-graph"
    return "dense-pure" if isinstance(source, StateVector) else "dense-mixed"


def _masks(subsets) -> np.ndarray:
    """uint64 masks (bit q - 1 for label q) of label tuples; mask arrays pass through."""
    if isinstance(subsets, np.ndarray):
        return subsets
    return np.array([sum(1 << (int(q) - 1) for q in s) for s in subsets], dtype=np.uint64)


def _bits(masks: np.ndarray, n: int) -> np.ndarray:
    """(B, n) membership of n qubits in B masks, label q at column q - 1."""
    return (masks[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1) != 0


def _unrank(env_bits: np.ndarray, sizes, ranks: np.ndarray) -> np.ndarray:
    """Masks of the subsets of env_bits (one bit each) of the given sizes with
    the given ranks in itertools.combinations order.  Reversed positions
    c = m - 1 - a put that order backwards into colex order, whose rank
    sum_i C(c_i, i) over c_d > ... > c_1 the combinatorial number system
    reads off greedily."""
    m = len(env_bits)
    sizes = np.broadcast_to(sizes, ranks.shape)
    rest = _BINOMIALS[sizes, m] - 1 - ranks
    masks = np.zeros(len(ranks), dtype=np.uint64)
    for i in range(int(sizes.max(initial=0)), 0, -1):
        c = np.searchsorted(_BINOMIALS[i, :m], rest, side="right") - 1
        take = sizes >= i
        rest = np.where(take, rest - _BINOMIALS[i, c], rest)
        masks |= np.where(take, env_bits[m - 1 - c], np.uint64(0))
    return masks


@functools.lru_cache(maxsize=1)
def _graph_tables(spec: GraphSpec) -> tuple[np.ndarray, np.ndarray]:
    """Read-only, built once per spec: the (n, n) edge phases reduced into
    [-pi, pi], and the uint64 masks of the neighbours by phase pi (not 0) of
    qubits 1..n and, last, of no qubit."""
    phases = np.zeros((spec.n_qubits,) * 2)
    for j, k, phase in spec.edges:
        phases[j - 1, k - 1] = phases[k - 1, j - 1] = math.remainder(phase, 2 * math.pi) + 0.0
    bits = np.uint64(1) << np.arange(spec.n_qubits, dtype=np.uint64)
    adjacency = np.append((np.abs(phases) > math.pi / 2) @ bits, np.uint64(0))
    phases.flags.writeable = adjacency.flags.writeable = False
    return phases, adjacency


def _graph_entropies(spec: GraphSpec, subsets) -> np.ndarray:
    """Entropies in bits of the reductions of a graph state with edge phases
    pi or 0 (mod 2 pi) to B subsets A (label tuples or masks): the ranks over
    GF(2) of the adjacency blocks Gamma[A, not A] (Hein, Eisert and Briegel,
    PRA 69, 062311 (2004)).  Each qubit q on the smaller side gives one row,
    the uint64 mask adj[q] & (other side); a (rows, B) array, padded with
    zero rows to the widest side, is eliminated for all B blocks at once."""
    masks, full = _masks(subsets), np.uint64(2**spec.n_qubits - 1)
    side = np.where(2 * np.bitwise_count(masks) <= spec.n_qubits, masks, ~masks & full)  # the smaller side
    other = side ^ full
    rows = np.empty((int(np.bitwise_count(side).max(initial=0)), len(masks)), dtype=np.uint64)
    adjacency = _graph_tables(spec)[1]
    for row in rows:
        low = side & (~side + np.uint64(1))  # the lowest qubit of each side left
        side ^= low
        # 2^q has binary exponent q + 1 and 0 has 0, whose index -1 is no qubit
        row[:] = adjacency[np.frexp(low.astype(float))[1] - 1] & other
    rank = np.zeros(len(masks), dtype=np.uint8)  # at most 32
    for i, pivot in enumerate(rows):
        rank += pivot != 0
        low = pivot & (~pivot + np.uint64(1))  # the pivot's lowest set bit
        # adding the pivot to every later row with that bit clears its column
        rest = rows[i + 1 :]
        rest ^= ((rest & low) != 0) * pivot
    return rank


def _weighted_entropies(spec: GraphSpec, subsets) -> np.ndarray:
    """Entropies in bits of the reductions of any graph state to B subsets
    (label tuples or masks), from the edges across each cut (Hein et al.,
    quant-ph/0602096): with W the phases between the coupled qubits (those
    with a cross edge), rows on the side with fewer of them (s), the
    reduction is D R D^dag, D diagonal, R[x, x'] = 2^-s prod_j cos((c_j(x) -
    c_j(x')) / 2), c(x) = x^T W; s = 0 leaves it pure.  Blocks W equal up
    to the order of their rows and columns share one R (see _canonical)."""
    phases = _graph_tables(spec)[0]
    inside = _bits(_masks(subsets), spec.n_qubits)
    cut = (inside[:, :, None] != inside[:, None, :]) & (phases != 0)  # each cut's cross edges
    coupled = cut.any(axis=2)  # qubits with a cross edge
    # rows: the side with fewer coupled qubits, A itself on a tie
    row_side = inside == ((coupled & inside).sum(axis=1) <= (coupled & ~inside).sum(axis=1))[:, None]
    order = np.argsort(np.where(coupled, ~row_side, 2), axis=1, kind="stable")  # coupled rows, then columns
    side, ends = (coupled & row_side).sum(axis=1), coupled.sum(axis=1)
    out = np.zeros(len(inside))
    for s in set(side.tolist()) - {0}:
        pick = np.flatnonzero(side == s)
        r, c = order[pick, :s, None], order[pick, None, s : ends[pick].max()]  # uncoupled columns are 0
        w = _canonical(np.where(cut[pick[:, None, None], r, c], phases[r, c], 0.0).view(np.uint64))
        distinct, inverse = np.unique(w.reshape(len(w), -1).view(f"V{w[0].nbytes}"), return_inverse=True)
        distinct = distinct.view(float).reshape(-1, *w.shape[1:])
        step = max(1, 2**18 // (8 * 4**s))  # stacks of R of about 256 KB
        parts = [_coupling_entropies(distinct[i : i + step]) for i in range(0, len(distinct), step)]
        out[pick] = np.concatenate(parts)[inverse.reshape(-1)]
    return out


def _canonical(bits: np.ndarray) -> np.ndarray:
    """A (P, s, t) stack of blocks W as uint64 bits, rows and columns permuted
    so that blocks equal up to that order mostly come out equal.  Two rounds of
    colour refinement hash each row's colour with its (weight, column colour)
    pairs, and each column's likewise.  Columns go in colour order, then rows
    and columns again by colour, ties by content in the other axis's order
    (lexsort's last key leads).  A miss costs sharing, never a value."""
    def mix(x):  # a multiply-xorshift hash; products wrap mod 2^64
        x = (x ^ (x >> np.uint64(32))) * np.uint64(0xBF58476D1CE4E5B9)
        return x ^ (x >> np.uint64(29))
    rows, cols = np.zeros(bits.shape[:2], np.uint64), np.zeros((len(bits), bits.shape[2]), np.uint64)
    for _ in range(2):
        rows = mix(rows + mix(bits ^ cols[:, None, :]).sum(axis=2))
        cols = mix(cols + mix(bits ^ rows[:, :, None]).sum(axis=1))
    c = np.argsort(cols, axis=1, kind="stable")
    r = np.lexsort((*np.take_along_axis(bits, c[:, None, :], axis=2).transpose(2, 0, 1)[::-1], rows), axis=-1)
    c = np.lexsort((*np.take_along_axis(bits, r[:, :, None], axis=1).transpose(1, 0, 2)[::-1], cols), axis=-1)
    return bits[np.arange(len(bits))[:, None, None], r[:, :, None], c[:, None, :]]


def _coupling_entropies(w: np.ndarray) -> np.ndarray:
    """Entropies in bits of R (see _weighted_entropies) of a (B, s, t) stack of
    blocks W, from cos and sin tables of the half angles c(x) / 2."""
    s = w.shape[1]
    half = np.swapaxes(w, 1, 2) @ ((np.arange(2**s) >> np.arange(s)[:, None]) & 1) / 2  # (B, t, 2^s)
    pairs = np.stack([np.cos(half), np.sin(half)], axis=-1)  # (B, t, 2^s, 2)
    mats = np.full((len(w), 2**s, 2**s), 2.0**-s)
    for j in range(w.shape[2]):  # cos(u - v) = cos u cos v + sin u sin v
        mats *= pairs[:, j] @ np.swapaxes(pairs[:, j], 1, 2)
    return _entropy_batch(mats)


def _by_size(kernel, n: int, system: int, masks: np.ndarray) -> np.ndarray:
    """kernel(labels) on each size k in a chunk of masks, labels (B, k) with the
    system first as in mutual_information's S u F; the empty set has entropy 0."""
    order = np.array([system] + [q for q in range(1, n + 1) if q != system])
    inside = _bits(masks, n)[:, order - 1]
    sizes = inside.sum(axis=1)
    out = np.zeros(len(masks))
    for k in set(sizes.tolist()) - {0}:
        pick = np.flatnonzero(sizes == k)
        out[pick] = kernel(order[np.nonzero(inside[pick])[1]].reshape(-1, k))
    return out


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
    ignored; at most 64 qubits); it sets the entropy backend, see _backend.
    Sizes with more than max_exhaustive fragments are estimated from
    sample_size >= 2 uniformly drawn fragments (fixed seed, reported
    standard error); everything else is enumerated exhaustively.  Every size feeds
    one stream of qubit masks that the backend reads _CHUNK at a time.
    """
    n = source.n_qubits
    if not 1 <= system <= n:
        raise ValueError(f"system index {system} out of range")
    if sample_size < 2:
        raise ValueError(f"sample_size must be at least 2 for a standard error, got {sample_size}")
    backend = _backend(source)
    if isinstance(source, GraphSpec):
        if n > 64:
            raise ValueError(f"{backend} curves hold qubit sets in 64-bit masks: {n} qubits exceed the limit of 64")
        if backend == "weighted-graph":
            _check_qubit_budget(n)  # R is up to 2^(n/2) square
        kernel = functools.partial(_graph_entropies if backend == "stabilizer" else _weighted_entropies, source)
    else:
        dense = (_pure_entropies, source.amplitudes) if backend == "dense-pure" else (_mixed_entropies, source.entries)
        kernel = functools.partial(_by_size, functools.partial(*dense), n, system)
    env = [q for q in range(1, n + 1) if q != system]
    env_bits, sizes = _masks([[q] for q in env]), range(1, len(env) + 1)
    rng = np.random.default_rng(seed)
    drawn = {  # seeded draws, in size order
        d: _masks([rng.choice(env, size=d, replace=False) for _ in range(sample_size)])
        for d in sizes if math.comb(len(env), d) > max_exhaustive
    }
    # one stream of parts (d, x), the size-d fragments F XOR x, unranked ones
    # first: S (the empty set XOR S), every F, then S u F or, for a pure state,
    # E \ F of the same entropy, which exhaustive sizes find in reverse order
    # among the size-(n_env - d) fragments
    mixed = backend == "dense-mixed"
    flip = 1 << (system - 1) if mixed else sum(1 << (q - 1) for q in env)
    every = [d for d in sizes if d not in drawn]
    ranked = [(0, 1 << (system - 1))] + [(d, 0) for d in every] + [(d, flip) for d in every if mixed]
    listed = [(d, x) for x in (0, flip) for d in drawn]
    given = np.concatenate([drawn[d] ^ x for d, x in listed] + [np.zeros(0, dtype=np.uint64)])
    bounds = np.cumsum([0] + [math.comb(len(env), d) for d, _ in ranked] + [len(drawn[d]) for d, _ in listed])
    part_d, part_x = np.array([d for d, _ in ranked]), np.array([x for _, x in ranked], dtype=np.uint64)
    end = int(bounds[len(ranked)])  # of the unranked parts
    table = np.empty(int(bounds[-1]), dtype=np.uint8 if backend == "stabilizer" else float)  # ranks fit a byte
    for start in range(0, len(table), _CHUNK):  # chunks run across part boundaries
        stop = min(start + _CHUNK, len(table))
        at = np.arange(start, min(stop, end))
        part = np.searchsorted(bounds, at, side="right") - 1
        masks = _unrank(env_bits, part_d[part], at - bounds[part]) ^ part_x[part]
        table[start:stop] = kernel(np.concatenate([masks, given[max(start - end, 0) : max(stop - end, 0)]]))
    tables = dict(zip(ranked + listed, np.split(table, bounds[1:-1])))
    h_s = float(table[0])
    h_f = {0: np.zeros(1), **{d: tables[d, 0] for d in sizes}}  # by size
    h_sf = {d: tables[d, flip] for d in sizes if (d, flip) in tables}
    points = []
    for d in sizes:
        values = _nonnegative(h_s + h_f[d] - (h_sf[d] if d in h_sf else h_f[len(env) - d][::-1]))
        stderr = float(np.std(values, ddof=1) / math.sqrt(len(values))) if d in drawn else None
        lo, hi = float(np.min(values)), float(np.max(values))
        # the mathematical mean lies in [min, max]; pin down summation round-off
        points.append(MIPoint(d, min(max(float(np.mean(values)), lo), hi), lo, hi, math.comb(len(env), d), stderr))
    diagnostics = {
        "backend": backend,
        "fragments_exhaustive": sum(math.comb(len(env), d) for d in every),
        "fragments_sampled": sum(len(f) for f in drawn.values()),
        "sample_size": sample_size,
    }
    return MICurve(points=tuple(points), system_entropy=h_s, n_env=len(env), _diagnostics=diagnostics)


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
