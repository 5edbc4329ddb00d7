"""Star- and diamond-shaped graph states, their Ising-evolution picture, and
the local-equivalence identities used to validate them.

A graph state is built by applying controlled-phase gates along weighted
edges to qubits prepared in |+>.  The star family couples a designated
system qubit to every environment qubit; the diamond family adds an open
chain of couplings between consecutive environment qubits.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, pi, sqrt

import numpy as np

from .qcore import (  # noqa: F401  (apply_gate: perfbench/tracer.py wraps this binding)
    Gate,
    StateVector,
    _check_qubit_budget,
    _is_integer,
    _seal,
    apply_circuit,
    apply_gate,
    fidelity,
)

_EQUIVALENCE_TOL = 1e-9


@dataclass(frozen=True)
class GraphSpec:
    """Weighted edge list over 1-based qubit labels."""

    n_qubits: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        if not _is_integer(self.n_qubits) or self.n_qubits < 1:
            raise ValueError(f"n_qubits must be a positive integer, got {self.n_qubits!r}")
        edges = tuple((j, k, float(phase)) for j, k, phase in self.edges)
        seen = set()
        for j, k, phase in edges:
            if not (_is_integer(j) and _is_integer(k)):
                raise ValueError(f"edge ({j!r}, {k!r}) endpoints must be integer qubit labels")
            if j == k:
                raise ValueError(f"self-edge ({j}, {k}) not allowed")
            if not (1 <= j <= self.n_qubits and 1 <= k <= self.n_qubits):
                raise ValueError(f"edge ({j}, {k}) out of range for {self.n_qubits} qubits")
            if not isfinite(phase):
                raise ValueError(f"edge ({j}, {k}) has non-finite phase")
            pair = frozenset((j, k))
            if pair in seen:
                raise ValueError(f"duplicate edge between qubits {j} and {k} (listed twice)")
            seen.add(pair)
        object.__setattr__(self, "n_qubits", int(self.n_qubits))
        object.__setattr__(self, "edges", tuple((int(j), int(k), phase) for j, k, phase in edges))

    @classmethod
    def from_dict(cls, data: dict) -> "GraphSpec":
        n_qubits, edges = _json_fields(data, n_qubits=int, edges=list)
        numbers = (isinstance(x, float) or _is_integer(x) for e in edges for x in e)
        if not all(isinstance(e, list) and len(e) == 3 for e in edges) or not all(numbers):
            raise ValueError(f"field 'edges' must list [j, k, phase] number triples, got {edges!r}")
        return cls(n_qubits=n_qubits, edges=edges)


def _check_system(system, n_qubits: int) -> None:
    """Refuse a system index that is not an integer in 1..n_qubits."""
    if not (_is_integer(system) and 1 <= system <= n_qubits):
        raise ValueError(f"system index {system} out of range")


def _json_fields(data, **kinds) -> list:
    """The named fields of a parsed JSON object, in order; a ValueError names
    the field that is missing, not of its type or types (a bool is only a
    bool), or not asked for."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object with fields {', '.join(kinds)}, got {type(data).__name__}")
    unexpected = sorted(data.keys() - kinds)
    if unexpected:
        raise ValueError(f"unexpected field {unexpected[0]!r}; expected fields {', '.join(kinds)}")
    for name, kind in kinds.items():
        if name not in data or not isinstance(data[name], kind) or (isinstance(data[name], bool) and kind is not bool):
            got = repr(data[name]) if name in data else "nothing"
            raise ValueError(f"field {name!r} must be {' or '.join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))}, got {got}")
    return [data[name] for name in kinds]


def star_spec(n_env: int, phi: float) -> GraphSpec:
    """System qubit 1 coupled with phase phi to environment qubits 2..n_env+1."""
    if n_env < 1:
        raise ValueError("star graph needs at least one environment qubit")
    return GraphSpec(n_qubits=n_env + 1, edges=_star_edges(n_env, phi))


def _star_edges(n_env: int, phi: float) -> tuple:
    return tuple((1, k, float(phi)) for k in range(2, n_env + 2))


def diamond_spec(n_env: int, phi: float, theta: float) -> GraphSpec:
    """Star edges plus an open chain (j, j+1, theta) through the environment."""
    if n_env < 2:
        raise ValueError("diamond graph needs at least two environment qubits")
    chain = tuple((j, j + 1, float(theta)) for j in range(2, n_env + 1))
    return GraphSpec(n_qubits=n_env + 1, edges=_star_edges(n_env, phi) + chain)


def build_graph_state(spec: GraphSpec) -> StateVector:
    """|+>^n under the controlled-phase network, grown from qubit n up to 1:
    with qubits m+1..n in amps[:2^(n-m)], qubit m's |1> half is that block
    times the product of [1, e^{i phase}] over m's edges to later qubits, as
    two factors of at most 2^ceil((n-m)/2) entries beside the one 2^n buffer."""
    n = spec.n_qubits
    _check_qubit_budget(n)
    later = [{} for _ in range(n + 1)]  # later[j][k] = e^{i phase} of edge (j, k), j < k
    for j, k, phase in spec.edges:
        later[min(j, k)][max(j, k)] = np.exp(1j * phase)
    amps = np.empty(2**n, dtype=complex)
    amps[0] = 1.0 / sqrt(2**n)
    for m in range(n, 0, -1):
        size = 2 ** (n - m)
        factors = [np.ones(1, dtype=complex), np.ones(1, dtype=complex)]
        for q in range(m + 1, max(later[m], default=m) + 1):
            lower = q > m + (n - m + 1) // 2
            factors[lower] = np.multiply.outer(factors[lower], [1, later[m].get(q, 1)]).ravel()
        hi, lo = factors
        shape = (hi.size, lo.size, size // (hi.size * lo.size))
        new = amps[size : 2 * size].reshape(shape)
        np.multiply(amps[:size].reshape(shape), hi[:, None, None], out=new)
        if lo.size > 1:
            new *= lo[:, None]
    return StateVector(_seal(amps))


def evolve_ising(n_qubits: int, couplings: dict, time: float) -> StateVector:
    """Evolve |+>^n under the diagonal pair Hamiltonian sum g_jk |11><11|_jk.

    `couplings` maps unordered qubit pairs (j, k) to rates g_jk.  Each basis
    amplitude only picks up the phase exp(-i t sum g_jk b_j b_k), so the
    result is the graph state with edge phases -g_jk * t (at the paper's
    phi = pi the two sign conventions coincide); the pairs are validated as
    GraphSpec edges.
    """
    if not np.isfinite(time):
        raise ValueError("time must be finite")
    edges = tuple((j, k, -rate * time) for (j, k), rate in couplings.items())
    return build_graph_state(GraphSpec(n_qubits, edges))


def _superposition(*terms: tuple[complex, str]) -> StateVector:
    vec = sum(coeff * StateVector.computational_basis(bits).amplitudes for coeff, bits in terms)
    return StateVector(vec / np.linalg.norm(vec))


def ghz_state(n_qubits: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2)."""
    if n_qubits < 2:
        raise ValueError("GHZ needs at least 2 qubits")
    return _superposition((1, "0" * n_qubits), (1, "1" * n_qubits))


# The parameterless named states as (amplitude, basis ket) terms, in the
# paper's qubit order 1234 (logical 0/1 for H/V and left/right path).
_DIAMOND_KET = ((-1, "0001"), (1, "0110"), (1, "1010"), (1, "1101"))
_NAMED_KETS = {
    "hyperentangled-xi": ((1, "0001"), (1, "0010"), (1, "1101"), (1, "1110")),  # (|00> + |11>)(|01> + |10>)
    "star-experimental": ((1, "0101"), (1, "1010")),
    "diamond-experimental": _DIAMOND_KET,  # the waveplate-encoded ket coincides with the canonical one
    "diamond-canonical": _DIAMOND_KET,
    "ghz4": ((1, "0000"), (1, "1111")),
}
NAMED_FIXED_STATES = tuple(_NAMED_KETS)


def named_state(name: str) -> StateVector:
    """One of the fixed resource states of NAMED_FIXED_STATES, spelled with "_"
    or "-" in any case."""
    key = name.strip().lower().replace("_", "-")
    if key not in _NAMED_KETS:
        raise ValueError(f"unknown named state {name!r}")
    return _superposition(*_NAMED_KETS[key])


@dataclass(frozen=True)
class EquivalenceReport:
    fidelity: float
    passed: bool


def check_local_equivalence(a: StateVector, b: StateVector, circuit) -> EquivalenceReport:
    """Fidelity |<b| U_circuit |a>|^2 for a circuit of Gates: Hadamard, X and
    Z on single qubits, and Swap, which merely relabels qubits (permuting
    fragment labels without changing mutual-information statistics).  Gate
    has no entangling kind, so every such circuit is local."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("states must have equal qubit counts")
    value = fidelity(apply_circuit(a, circuit), b)
    return EquivalenceReport(fidelity=value, passed=value >= 1.0 - _EQUIVALENCE_TOL)


def star_ghz_check(n_env: int = 3) -> EquivalenceReport:
    """Star graph state maps to GHZ under Hadamards on every environment qubit."""
    star = build_graph_state(star_spec(n_env, pi))
    circuit = [Gate.hadamard(q) for q in range(2, n_env + 2)]
    return check_local_equivalence(star, ghz_state(n_env + 1), circuit)


def diamond_canonical_check() -> EquivalenceReport:
    """Four-qubit diamond graph state maps to the canonical four-term ket under
    Swap(2,3) composed with per-qubit Hadamards and X/Z corrections."""
    diamond = build_graph_state(diamond_spec(3, pi, pi))
    circuit = [
        Gate.hadamard(1),
        Gate.hadamard(2),
        Gate.pauli_x(2),
        Gate.hadamard(3),
        Gate.hadamard(4),
        Gate.pauli_z(4),
        Gate.swap(2, 3),
    ]
    return check_local_equivalence(diamond, named_state("diamond-canonical"), circuit)
