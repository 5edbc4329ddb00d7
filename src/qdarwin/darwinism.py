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
from dataclasses import dataclass, field

import numpy as np

from .graphstate import GraphSpec, _check_system, _is_integer, _json_fields
from .qcore import (  # noqa: F401  (partial_trace, subsystem_entropy, von_neumann_entropy: perfbench/tracer.py wraps these bindings)
    StateVector,
    _check_qubit_budget,
    _entropy_batch,
    _partial_trace_batch,
    _pure_entropies,
    _rng,
    _validate_keep,
    partial_trace,
    subsystem_entropy,
    von_neumann_entropy,
)

_PI_SLACK = 1e-12  # rad: round-off of phases such as 3*pi or -g*t, nothing more
_DEFAULT_MAX_EXHAUSTIVE = math.comb(23, 11)  # every size of every curve of up to 24 qubits
_DEFAULT_SAMPLE_SIZE = 1000
_DEFAULT_SAMPLE_SEED = 1789
_CURVE_STREAM = 0xF4A6  # sampled size d draws from stream (_CURVE_STREAM, d) of the seed
_STEP_SIGMAS = 2.0  # classify_curve: a step between points with stderr must beat this many sigma
_CHUNK = 4096  # qubit masks per entropy-kernel call, across fragment sizes

CSV_HEADER = "delta,mean_mi,min_mi,max_mi,n_fragments,stderr"
_NUMBER = (int, float)  # a JSON number; _json_fields refuses a bool
_STDERR = (*_NUMBER, type(None))  # a point's stderr, never a bool
_POINT_JSON = "    {\n" + ",\n".join(f'      "{k}": %s' for k in CSV_HEADER.split(",")) + "\n    }"  # MICurve.to_json's point


def mutual_information(state, system: int, fragment) -> float:
    """I = H_S + H_F - H_SF in bits, clamped to >= 0.

    Pure global states use the fast pure-bipartition route; density-matrix
    inputs go through explicit partial traces.
    """
    n = state.n_qubits
    _check_system(system, n)
    fragment = tuple(fragment)
    if not fragment:
        return 0.0
    members = _validate_keep(n, fragment)
    if system in members:
        raise ValueError(f"fragment {members} contains the system qubit {system}")
    source = state.amplitudes if isinstance(state, StateVector) else state.entries
    h = functools.partial(_pure_entropies if source.ndim == 1 else _mixed_entropies, source)
    return float(_nonnegative(h([(system,)]) + h([members]) - h([(system,) + members]))[0])


def _nonnegative(values: np.ndarray) -> np.ndarray:
    """Mutual-information values clamped in place to >= 0 (and -0.0 to 0.0); a value
    below -1e-9 is an error, not round-off."""
    if values.min(initial=0) < -1e-9:
        raise ValueError(f"mutual information {float(values.min())!r} violates nonnegativity")
    return np.add(np.maximum(values, 0, out=values), 0, out=values)  # + 0: -0.0 becomes 0.0


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
        if not all(map(_is_integer, [self.n_env, *deltas])) or deltas != list(range(1, self.n_env + 1)):
            raise ValueError(f"deltas {deltas} must be the integers 1..{self.n_env!r}")
        # a NaN or infinite entropy would bound nothing; a bool, like any other field's, would not read back
        if isinstance(self.system_entropy, bool) or not -1e-9 <= self.system_entropy < math.inf:
            raise ValueError(f"system entropy {self.system_entropy!r} is not a finite number >= 0")
        bound = 2 * self.system_entropy + 1e-9
        for p in points:
            if not _is_integer(p.n_fragments) or not isinstance(p.stderr, _STDERR) or bool in map(type, vars(p).values()):
                raise ValueError(f"point {p} needs an integer n_fragments, a number or None as stderr, and no bool field")
            if not (p.min_mi <= p.mean_mi <= p.max_mi):
                raise ValueError(f"point {p} violates min <= mean <= max")
            if p.min_mi < -1e-9 or p.max_mi > bound:
                raise ValueError(f"point {p} outside [0, 2 * system entropy]")
        object.__setattr__(self, "points", points)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for p in self.points:
            stderr = "" if p.stderr is None else f"{p.stderr:.12g}"
            lines.append(f"{p.delta},{p.mean_mi:.12g},{p.min_mi:.12g},{p.max_mi:.12g},{p.n_fragments},{stderr}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, system_entropy: float, n_env: int) -> "MICurve":
        """The curve of a CSV that to_csv wrote; a ValueError names the line and field it cannot read."""
        lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()] or [(1, "")]
        if lines[0][1] != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {lines[0][1]!r}")
        names, points = CSV_HEADER.split(","), []
        for number, line in lines[1:]:
            if len(fields := line.split(",")) != len(names):
                raise ValueError(f"CSV line {number} has {len(fields)} fields, expected {len(names)}: {CSV_HEADER}")
            values = []
            for name, kind, value in zip(names, (int, float, float, float, int, float), fields):
                try:
                    values.append(None if name == "stderr" and value == "" else kind(value))
                except ValueError:
                    raise ValueError(f"CSV line {number}: field {name!r} must be {kind.__name__}, got {value!r}") from None
            points.append(MIPoint(*values))
        return cls(points=tuple(points), system_entropy=system_entropy, n_env=n_env)

    def to_json_dict(self) -> dict:  # the fields in order, no deep copy
        return {"system_entropy": self.system_entropy, "n_env": self.n_env, "points": [dict(vars(p)) for p in self.points]}

    def to_json(self) -> str:
        """json.dumps(self.to_json_dict(), indent=2) + "\n" byte for byte, from one call of json's C encoder (an indent runs
        its pure-Python one): __post_init__ leaves numbers and null, so the values split on ", " fill the layout."""
        text = json.dumps([self.system_entropy, self.n_env, *(v for p in self.points for v in vars(p).values())])[1:-1]
        points = "\n" + ",\n".join([_POINT_JSON] * len(self.points)) + "\n  " if self.points else ""
        return ('{\n  "system_entropy": %s,\n  "n_env": %s,\n  "points": [' + points + "]\n}\n") % tuple(text.split(", "))

    @classmethod
    def from_json_dict(cls, data: dict) -> "MICurve":
        """The curve of a file to_json wrote; a ValueError names a field that is missing, unexpected or not of
        its type.  An integer counts as a number, a boolean never does."""
        entropy, n_env, points = _json_fields(data, system_entropy=_NUMBER, n_env=int, points=list)
        kinds = dict(delta=int, mean_mi=_NUMBER, min_mi=_NUMBER, max_mi=_NUMBER, n_fragments=int, stderr=_STDERR)
        return cls(points=tuple(MIPoint(*_json_fields(p, **kinds)) for p in points), system_entropy=entropy, n_env=n_env)


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


def _fragments(env_bits: np.ndarray, parts):
    """Masks of each part (d, x), the size-d subsets of env_bits (one bit each)
    XOR x, in itertools.combinations order, at most 2^16 at a time; the parts
    start at size 0 or 1.  Those of size d that start with env_bits[a] are that
    bit OR'd onto the last C(m - a - 1, d - 1) of size d - 1; a size that does
    not follow the one held is the complements of the size m - d held, reversed."""
    m, full = len(env_bits), np.bitwise_or.reduce(env_bits)
    for d, x in parts:
        if d <= 1:
            size, held = 0, np.zeros(1, np.uint64)  # the empty set
        if d == size + 1:
            grown, stop = np.empty(math.comb(m, d), np.uint64), 0
            for a, bit in enumerate(env_bits[: m - d + 1]):
                tail = math.comb(m - a - 1, d - 1)
                np.bitwise_or(held[-tail:], bit, out=grown[stop : stop + tail])
                stop += tail
            held = grown
        elif d != size:
            held = full ^ held[::-1]
        size = d
        for lo in range(0, len(held), 2**16):
            yield held[lo : lo + 2**16] ^ x if x else held[lo : lo + 2**16]  # a view: the consumer copies


@functools.lru_cache(maxsize=1)
def _graph_tables(spec: GraphSpec) -> tuple[np.ndarray, ...]:
    """Read-only, built once per spec: the (n, n) edge phases reduced into
    [-pi, pi], the uint64 masks of the neighbours by phase pi (not 0) of
    qubits 1..n and, last, of no qubit, those by any nonzero phase, and
    those by a phase of exactly +-pi (an exact CZ, no slack)."""
    phases = np.zeros((spec.n_qubits,) * 2)
    for j, k, phase in spec.edges:
        phases[j - 1, k - 1] = phases[k - 1, j - 1] = math.remainder(phase, 2 * math.pi) + 0.0
    bits = np.uint64(1) << np.arange(spec.n_qubits, dtype=np.uint64)
    adjacency = np.append((np.abs(phases) > math.pi / 2) @ bits, np.uint64(0))
    neighbours, cz = (phases != 0) @ bits, (np.abs(phases) == math.pi) @ bits
    phases.flags.writeable = adjacency.flags.writeable = neighbours.flags.writeable = cz.flags.writeable = False
    return phases, adjacency, neighbours, cz


def _graph_entropies(spec: GraphSpec, subsets) -> np.ndarray:
    """Entropies in bits of the reductions of a graph state with edge phases
    pi or 0 (mod 2 pi) to B subsets A (label tuples or masks): the ranks over
    GF(2) of the adjacency blocks Gamma[A, not A] (Hein, Eisert and Briegel,
    PRA 69, 062311 (2004)).  Each qubit q on the smaller side gives one row,
    the mask adj[q] & (other side); a (rows, B) array, padded with zero rows
    to the widest side, is eliminated for all B blocks at once, in uint32
    words up to 32 qubits (faster than uint64) and uint64 words above."""
    word = np.uint32 if spec.n_qubits <= 32 else np.uint64
    masks, full = _masks(subsets).astype(word, copy=False), word(2**spec.n_qubits - 1)
    side = np.where(2 * np.bitwise_count(masks) <= spec.n_qubits, masks, ~masks & full)  # the smaller side
    other = side ^ full
    rows = np.empty((int(np.bitwise_count(side).max(initial=0)), len(masks)), dtype=word)
    adjacency = _graph_tables(spec)[1].astype(word, copy=False)
    for row in rows:
        low = side & (~side + word(1))  # the lowest qubit of each side left
        side ^= low
        # 2^q has binary exponent q + 1 and 0 has 0, whose index -1 is no qubit
        row[:] = adjacency[np.frexp(low.astype(float))[1] - 1] & other
    rank = np.zeros(len(masks), dtype=np.uint8)  # at most 32
    for i, pivot in enumerate(rows):
        rank += pivot != 0
        low = pivot & (~pivot + word(1))  # the pivot's lowest set bit
        # adding the pivot to every later row with that bit clears its column
        rest = rows[i + 1 :]
        rest ^= ((rest & low) != 0) * pivot
    return rank


def _weighted_entropies(spec: GraphSpec, subsets, solved=None) -> np.ndarray:
    """Entropies in bits of the reductions of any graph state to B subsets
    (label tuples or masks), from the edges across each cut (Hein et al.,
    quant-ph/0602096).  First the Clifford part: a leaf, a qubit whose one
    cross edge has phase exactly +-pi after the remainder (a CZ; pi -+ 1 ulp
    is not one), and its hub, that edge's other end, hold a Bell pair, since a
    unitary on the leaf's side controlled by the leaf in the X basis undoes
    the hub's other cross edges.  Each round peels 1 bit per hub (an isolated
    pi edge makes both ends hubs) and drops hubs and leaves from the cut.
    Then, with W the phases between the coupled qubits left (those with a
    cross edge), rows on the side with fewer of them (s), the reduction is
    D R D^dag, D diagonal, R[x, x'] = 2^-s prod_j cos((c_j(x) - c_j(x')) /
    2), c(x) = x^T W; s = 0 leaves it pure.  Blocks W equal up to the order
    of their rows and columns share one R (see _canonical), and `solved`
    (shape and canonical bytes -> entropy) carries them across calls."""
    phases, _, neighbours, cz = _graph_tables(spec)
    n, masks = spec.n_qubits, _masks(subsets)
    inside = _bits(masks, n)
    cross = np.where(inside, ~masks[:, None], masks[:, None]) & neighbours  # (B, n) cross-edge masks
    out, solved = np.zeros(len(inside)), {} if solved is None else solved
    while cz.any() and (leaf := (np.bitwise_count(cross) == 1) & (cross & cz != 0)).any():
        hubs = np.bitwise_or.reduce(cross * leaf, axis=1)  # each leaf's one cross neighbour
        leaves = leaf @ (np.uint64(1) << np.arange(n, dtype=np.uint64))
        out += np.bitwise_count(hubs & ~leaves) + np.bitwise_count(hubs & leaves) / 2
        cross = np.where(_bits(hubs, n), 0, cross & ~hubs[:, None])  # a leaf's one edge goes with its hub
    coupled = cross != 0
    # rows: the side with fewer coupled qubits, A itself on a tie
    row_side = inside == ((coupled & inside).sum(axis=1) <= (coupled & ~inside).sum(axis=1))[:, None]
    order = np.argsort(np.where(coupled, ~row_side, 2), axis=1, kind="stable")  # coupled rows, then columns
    side, ends = (coupled & row_side).sum(axis=1), coupled.sum(axis=1)
    for s in set(side.tolist()) - {0}:
        pick = np.flatnonzero(side == s)
        r, c = order[pick, :s, None], order[pick, None, s : ends[pick].max()]  # uncoupled columns are zeroed
        w = np.where(np.arange(s, s + c.shape[2]) >= ends[pick, None, None], 0.0, phases[r, c]).view(np.uint64)
        raw, first = np.unique(w.reshape(len(w), -1).view(f"V{w[0].nbytes}"), return_inverse=True)
        w = _canonical(raw.view(np.uint64).reshape(-1, *w.shape[1:]))  # once per distinct raw block
        distinct, inverse = np.unique(w.reshape(len(w), -1).view(f"V{w[0].nbytes}"), return_inverse=True)
        keys = [(w.shape[1:], v.tobytes()) for v in distinct]  # equal bytes of other shapes are other blocks
        new = [i for i, key in enumerate(keys) if key not in solved]
        blocks = distinct[new].view(float).reshape(-1, *w.shape[1:])
        step = max(1, 2**18 // (8 * 4**s))  # stacks of R's top rows of about 128 KB
        for i in range(0, len(blocks), step):
            solved.update(zip([keys[j] for j in new[i : i + step]], _coupling_entropies(blocks[i : i + step])))
        out[pick] += np.array([solved[key] for key in keys])[inverse.reshape(-1)[first.reshape(-1)]]
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
    blocks W, from cos and sin tables of the half angles c(x) / 2.  Flipping
    every bit, ~x = 2^s - 1 - x, sends c(x) to sum_i W_i - c(x), and cos is
    even, so R[~x, ~y] = R[x, y]: R's spectrum is that of the two halves
    R[x, y] +- R[x, ~y] over x, y < 2^(s-1), and only those rows are built."""
    s, h = w.shape[1], 2 ** (w.shape[1] - 1)
    half = np.swapaxes(w, 1, 2) @ ((np.arange(2**s) >> np.arange(s)[:, None]) & 1) / 2  # (B, t, 2^s)
    pairs = np.stack([np.cos(half), np.sin(half)], axis=-1)  # (B, t, 2^s, 2)
    rows = np.full((len(w), h, 2**s), 2.0**-s)
    for j in range(w.shape[2]):  # cos(u - v) = cos u cos v + sin u sin v
        rows *= pairs[:, j, :h] @ np.swapaxes(pairs[:, j], 1, 2)
    flipped = rows[:, :, : h - 1 : -1]  # R[x, ~y] for y < h
    return _entropy_batch(np.stack([rows[:, :, :h] + flipped, rows[:, :, :h] - flipped], axis=1)).sum(axis=1)


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

    `source` is a StateVector, DensityMatrix or GraphSpec (at most 64
    qubits); it sets the entropy backend, see _backend.  Sizes with more
    than max_exhaustive fragments are estimated from sample_size >= 2
    uniformly drawn fragments (reported standard error), each size from its
    own stream of the integer seed; everything else is enumerated
    exhaustively.  Every size feeds one stream of qubit masks that the
    backend reads _CHUNK at a time.
    """
    n = source.n_qubits
    _check_system(system, n)
    if not _is_integer(sample_size):
        raise ValueError(f"sample_size must be an integer, got {sample_size!r}")
    if sample_size < 2:
        raise ValueError(f"sample_size must be at least 2 for a standard error, got {sample_size}")
    if not _is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    backend, solved = _backend(source), {}  # solved: weighted-graph classes, once per curve
    if isinstance(source, GraphSpec):
        if n > 64:
            raise ValueError(f"{backend} curves hold qubit sets in 64-bit masks: {n} qubits exceed the limit of 64")
        kernel = functools.partial(_graph_entropies, source)
        if backend == "weighted-graph":
            _check_qubit_budget(n)  # R's halves are up to 2^(n/2 - 1) square
            kernel = functools.partial(_weighted_entropies, source, solved=solved)
    else:
        dense = (_pure_entropies, source.amplitudes) if backend == "dense-pure" else (_mixed_entropies, source.entries)
        kernel = functools.partial(_by_size, functools.partial(*dense), n, system)
    env = [q for q in range(1, n + 1) if q != system]
    env_bits, sizes = _masks([[q] for q in env]), range(1, len(env) + 1)
    drawn = {}  # a uniform d-subset per row: the d smallest of m uniform keys, OR'd into a mask
    for d in (d for d in sizes if math.comb(len(env), d) > max_exhaustive):
        keys = _rng(seed, _CURVE_STREAM, d).random((sample_size, len(env)))
        drawn[d] = np.bitwise_or.reduce(env_bits[np.argpartition(keys, d - 1, axis=1)[:, :d]], axis=1)
    # one stream of parts (d, x), the size-d fragments F XOR x, enumerated ones
    # first: S (the empty set XOR S), every F, then S u F or, for a pure state,
    # E \ F of the same entropy, which exhaustive sizes find in reverse order
    # among the size-(n_env - d) fragments
    mixed = backend == "dense-mixed"
    flip = 1 << (system - 1) if mixed else sum(1 << (q - 1) for q in env)
    every = [d for d in sizes if d not in drawn]
    enumerated = [(0, 1 << (system - 1))] + [(d, 0) for d in every] + [(d, flip) for d in every if mixed]
    listed = [(d, x) for x in (0, flip) for d in drawn]
    bounds = np.cumsum([0] + [math.comb(len(env), d) for d, _ in enumerated] + [len(drawn[d]) for d, _ in listed])
    chunks, held = [], np.zeros(0, np.uint64)  # the kernel's values by chunk, and masks not yet handed over
    for piece in itertools.chain(_fragments(env_bits, enumerated), (drawn[d] ^ x for d, x in listed)):
        held = np.concatenate([held, piece])
        while len(held) >= _CHUNK:
            chunks.append(kernel(held[:_CHUNK]))
            held = held[_CHUNK:]
    table = np.concatenate(chunks + ([kernel(held)] if len(held) else []))  # stabilizer ranks are bytes
    # (0, 0): the empty fragment; every size's values in one array, checked and clamped at once
    tables = {(0, 0): np.zeros(1, table.dtype)} | {k: table[a:b] for k, a, b in zip(enumerated + listed, bounds, bounds[1:])}
    values = np.concatenate([table[:0]] + [tables[d, 0] for d in sizes], dtype=np.promote_types(table.dtype, np.int8))
    np.add(table[0], values, out=values)  # H_S + H_F in one pass, in one buffer that is signed for ranks too
    starts = np.cumsum([0] + [len(tables[d, 0]) for d in sizes])  # extremes from one reduceat each
    by_size = [values[a:b] for a, b in zip(starts[:-1], starts[1:])]
    for d, part in zip(sizes, by_size):  # - H_SF: a view per size, so no second full-length array
        part -= tables.get((d, flip), tables[len(env) - d, 0][::-1])
    _nonnegative(values)
    lows, highs = (f.reduceat(values, starts[:-1]).astype(float).tolist() for f in (np.minimum, np.maximum))
    points = []
    for d, part, lo, hi in zip(sizes, by_size, lows, highs):
        stderr = float(np.std(part, ddof=1) / math.sqrt(len(part))) if d in drawn else None
        # np.mean's sum and division; the mathematical mean lies in [min, max], so pin down round-off
        mean = float(np.add.reduce(part, dtype=float) / len(part))
        points.append(MIPoint(d, min(max(mean, lo), hi), lo, hi, len(part), stderr))
    diagnostics = {
        "backend": backend,
        "fragments_exhaustive": sum(math.comb(len(env), d) for d in every),
        "fragments_sampled": sum(len(f) for f in drawn.values()),
        "sampled_sizes": list(drawn),  # in size order
        "sample_size": sample_size,
        **({"seed": int(seed)} if drawn else {}),
        **({"eigenproblems": len(solved)} if backend == "weighted-graph" else {}),
    }
    return MICurve(points=tuple(points), system_entropy=float(table[0]), n_env=len(env), _diagnostics=diagnostics)


def classify_curve(curve: MICurve, slope_tol: float) -> str:
    """Label a curve as "plateau", "growing", or "other".

    Plateau: every size up to n_env - 1 sits within slope_tol of the system
    entropy (which must itself exceed slope_tol, otherwise there is no
    information whose redundancy could be witnessed).  Growing: at least two
    consecutive size steps each rise by more than slope_tol, and by more than
    2 sigma of the step where both points carry a stderr.
    """
    if len(curve.points) < 3:
        raise ValueError("classification needs at least 3 curve points")
    if curve.system_entropy > slope_tol and all(
        abs(p.mean_mi - curve.system_entropy) <= slope_tol for p in curve.points[:-1]
    ):
        return "plateau"
    rises = []
    for a, b in zip(curve.points, curve.points[1:]):
        noise = 0.0 if None in (a.stderr, b.stderr) else _STEP_SIGMAS * math.hypot(a.stderr, b.stderr)
        rises.append(b.mean_mi - a.mean_mi > max(slope_tol, noise))
    return "growing" if any(first and second for first, second in zip(rises, rises[1:])) else "other"
