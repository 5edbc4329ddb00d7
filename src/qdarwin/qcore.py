"""Dense complex linear algebra for few-qubit pure and mixed states.

Qubit convention used across the whole package: qubits carry 1-based labels
and qubit 1 is the most significant bit of the amplitude index, so the basis
ket |q1 q2 ... qn> sits at index int("q1q2...qn", 2).  All containers are
immutable after construction and safe to share between threads.  Entropies
are in bits (log base 2).
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from math import sqrt

import numpy as np

DEFAULT_MAX_QUBITS = 24
_ENV_MAX_QUBITS = "QDARWIN_MAX_QUBITS"

_HERMITIAN_TOL = 1e-10
_TRACE_TOL = 1e-10
_NORM_TOL = 1e-10
_EIGENVALUE_FLOOR = -1e-9
_LOG_CUTOFF = 1e-12

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / sqrt(2)


def max_qubits() -> int:
    """Size cap in qubits; override with the QDARWIN_MAX_QUBITS env var."""
    raw = os.environ.get(_ENV_MAX_QUBITS)
    if raw is None:
        return DEFAULT_MAX_QUBITS
    value = int(raw) if raw.strip().isdecimal() else 0
    if value < 1:
        raise ValueError(f"{_ENV_MAX_QUBITS} must be a positive integer, got {raw!r}")
    return value


def _is_integer(value) -> bool:
    """An integer, numpy's included, that is not a bool: JSON true must not read as 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _rng(seed: int, *key: int) -> np.random.Generator:
    """The generator of stream `key` of an integer seed, taken mod 2^64: every sampler draws from its own
    (seed, key) stream; SeedSequence gets the uint32 words it reads from [seed, *key]: low word first, 0 as one."""
    words = [v >> s & 0xFFFFFFFF for v in (int(seed) % 2**64, *map(int, key)) for s in range(0, v.bit_length() or 1, 32)]
    return np.random.default_rng(np.random.SeedSequence(np.array(words, np.uint32)))


def _check_qubit_budget(n_qubits: int) -> None:
    cap = max_qubits()
    if n_qubits > cap:
        raise ValueError(
            f"state of {n_qubits} qubits exceeds the configured cap of {cap} "
            f"(set {_ENV_MAX_QUBITS} to raise it)"
        )


def _freeze(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=complex, copy=True)
    out.flags.writeable = False
    return out


class _Fresh(np.ndarray):
    """A buffer the package has just built, sealed and handed to a StateVector
    uncopied; nothing else holds it, so no caller can write to it later."""


def _seal(buffer: np.ndarray) -> _Fresh:
    """Make a fresh buffer and all it views read-only, marked to be kept uncopied."""
    array = buffer
    while isinstance(array, np.ndarray):
        array.flags.writeable = False
        array = array.base
    return buffer.view(_Fresh)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of n qubits: 2^n complex amplitudes with unit norm."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        fresh = isinstance(self.amplitudes, _Fresh)
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        n = amps.size.bit_length() - 1
        if amps.size < 2 or amps.size != 2**n:
            raise ValueError(f"amplitude count {amps.size} is not 2^n for n >= 1")
        _check_qubit_budget(n)
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValueError(f"state is not normalized: sum |a|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", amps if fresh else _freeze(amps))

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    @classmethod
    def computational_basis(cls, bits: str) -> "StateVector":
        """Basis ket |bits>, e.g. "0101"."""
        if not bits or set(bits) - {"0", "1"}:
            raise ValueError(f"bits must be a nonempty 0/1 string, got {bits!r}")
        amps = np.zeros(2 ** len(bits), dtype=complex)
        amps[int(bits, 2)] = 1.0
        return cls(_seal(amps))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian unit-trace operator on n qubits.  Its spectrum is not
    checked: von_neumann_entropy refuses eigenvalues below -1e-9, and
    project_to_physical removes them."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"entries must be a square matrix, got shape {mat.shape}")
        n = mat.shape[0].bit_length() - 1
        if mat.shape[0] < 2 or mat.shape[0] != 2**n:
            raise ValueError(f"matrix dimension {mat.shape[0]} is not 2^n for n >= 1")
        _check_qubit_budget(n)
        deviation = float(np.max(np.abs(mat - mat.conj().T)))
        if deviation > _HERMITIAN_TOL:
            raise ValueError(f"matrix is not Hermitian: max |rho - rho^dag| = {deviation:.3e}")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace must be 1, got {trace!r}")
        object.__setattr__(self, "entries", _freeze(mat))

    @property
    def n_qubits(self) -> int:
        return self.entries.shape[0].bit_length() - 1


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis, e.g. "ZIZI" (letters I,X,Y,Z)."""

    labels: str

    def __post_init__(self) -> None:
        if not self.labels or set(self.labels) - set("IXYZ"):
            raise ValueError(f"labels must be a nonempty string over IXYZ, got {self.labels!r}")

    @property
    def weight(self) -> int:
        """Number of non-identity letters."""
        return sum(1 for c in self.labels if c != "I")

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i) -> str:
        return self.labels[i]

    def __str__(self) -> str:
        return self.labels


def as_pauli(value) -> PauliString:
    return value if isinstance(value, PauliString) else PauliString(str(value))


def all_pauli_strings(n_qubits: int):
    """All 4^n Pauli strings in lexicographic I<X<Y<Z order."""
    return [PauliString("".join(t)) for t in itertools.product("IXYZ", repeat=n_qubits)]


_GATE_ARITY = {"hadamard": 1, "pauli_x": 1, "pauli_z": 1, "swap": 2}
_FIXED_1Q = {
    "hadamard": HADAMARD,
    "pauli_x": PAULI_MATRICES["X"],
    "pauli_z": PAULI_MATRICES["Z"],
}


@dataclass(frozen=True, eq=False)
class Gate:
    """A local Clifford to apply: Hadamard, X or Z on one qubit, or Swap of
    two, which only relabels them.  No gate entangles."""

    kind: str
    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in _GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if not all(_is_integer(t) and t >= 1 for t in self.targets):
            raise ValueError(f"qubit labels are 1-based integers, got {self.targets}")
        targets = tuple(int(t) for t in self.targets)
        if len(targets) != _GATE_ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {_GATE_ARITY[self.kind]} target(s), got {targets}")
        if len(set(targets)) != len(targets):
            raise ValueError(f"duplicate gate targets {targets}")
        object.__setattr__(self, "targets", targets)

    @classmethod
    def hadamard(cls, qubit: int) -> "Gate":
        return cls("hadamard", (qubit,))

    @classmethod
    def pauli_x(cls, qubit: int) -> "Gate":
        return cls("pauli_x", (qubit,))

    @classmethod
    def pauli_z(cls, qubit: int) -> "Gate":
        return cls("pauli_z", (qubit,))

    @classmethod
    def swap(cls, qubit_a: int, qubit_b: int) -> "Gate":
        return cls("swap", (qubit_a, qubit_b))


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply a gate; the output norm is preserved within 1e-10."""
    n = state.n_qubits
    for t in gate.targets:
        if t > n:
            raise ValueError(f"gate target {t} out of range for {n} qubits")
    amplitudes, out, axis = state.amplitudes, np.empty_like(state.amplitudes), gate.targets[0] - 1
    if gate.kind == "swap":  # every branch writes the result once, into out
        np.copyto(out.reshape([2] * n), np.swapaxes(amplitudes.reshape([2] * n), axis, gate.targets[1] - 1))
    elif axis < n - 1:
        np.matmul(_FIXED_1Q[gate.kind], amplitudes.reshape(2**axis, 2, -1), out=out.reshape(2**axis, 2, -1))
    else:  # (2^(n-1), 2) x U^T: a one-column product would run another BLAS routine and round otherwise
        np.matmul(amplitudes.reshape(-1, 2), _FIXED_1Q[gate.kind].T, out=out.reshape(-1, 2))
    return StateVector(_seal(out))


def apply_circuit(state: StateVector, gates) -> StateVector:
    for gate in gates:
        state = apply_gate(state, gate)
    return state


def _validate_keep(n: int, keep) -> tuple[int, ...]:
    keep = tuple(keep)
    if not keep:
        raise ValueError("keep set must be nonempty")
    for q in keep:
        if not (_is_integer(q) and 1 <= q <= n):
            raise ValueError(f"qubit label {q!r} out of range for {n} qubits (labels are integers 1..{n})")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate qubit labels in keep set {keep}")
    return tuple(int(q) for q in keep)


def _partial_trace_batch(mats: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Reduced matrices on the (validated) qubits `keep` of a (..., 2^n, 2^n) stack, in the order the
    qubits are listed: one einsum over the (..., 2, ..., 2) view, with no transposed copy."""
    n, kept = mats.shape[-1].bit_length() - 1, [q - 1 for q in keep]
    labels = [*range(n), *(n + a if a in kept else a for a in range(n))]  # a traced qubit's column axis is its row's
    out = np.einsum(mats.reshape(mats.shape[:-2] + (2,) * (2 * n)), [..., *labels], [..., *kept, *(n + a for a in kept)])
    return out.reshape(mats.shape[:-2] + (2 ** len(keep),) * 2) + 0.0  # as a sum from 0: keeping all gives no -0.0


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the given qubits, in the order they are listed."""
    keep = _validate_keep(rho.n_qubits, keep)
    return DensityMatrix(_partial_trace_batch(rho.entries, keep))


def _pure_entropies(amplitudes: np.ndarray, subsets) -> np.ndarray:
    """Entropies in bits of a pure state's reductions to B subsets of k qubit
    labels each, from the Gram matrix of the smaller side of each cut, in
    chunks of about 256 KB so that the transposed copies never pile up."""
    n = amplitudes.size.bit_length() - 1
    subsets = np.array(subsets, dtype=int)
    k = subsets.shape[1]
    inside = np.zeros((len(subsets), n), dtype=bool)
    inside[np.arange(len(subsets))[:, None], subsets - 1] = True
    if 2 * k > n:  # the complement is the smaller side
        inside, k = ~inside, n - k
    order = np.argsort(~inside, axis=1, kind="stable")  # each cut's side ascending, then the rest
    tensor = amplitudes.reshape((2,) * n)
    chunk = max(1, 2**18 // amplitudes.nbytes)
    out = np.empty(len(order))
    for start in range(0, len(order), chunk):
        mats = np.stack([tensor.transpose(axes).reshape(2**k, -1) for axes in order[start : start + chunk]])
        out[start : start + chunk] = _entropy_batch(mats @ np.conj(np.swapaxes(mats, -1, -2)))
    return out


def subsystem_entropy(state: StateVector, subset) -> float:
    """Entropy of a reduction of a pure state, from the Gram matrix of the
    smaller side of the cut (never forms the global density matrix)."""
    subset = _validate_keep(state.n_qubits, subset)
    return float(_pure_entropies(state.amplitudes, [subset])[0])


def _entropy_batch(mats: np.ndarray) -> np.ndarray:
    """von Neumann entropies in bits of a (..., d, d) stack of Hermitian
    matrices; eigenvalues in [-1e-9, 0) count as 0, lower ones raise."""
    return _spectrum_entropies(np.linalg.eigvalsh(mats))


def _spectrum_entropies(eigs: np.ndarray) -> np.ndarray:
    """_entropy_batch of the matrices with these (..., d) ascending spectra."""
    if float(eigs.min()) < _EIGENVALUE_FLOOR:
        raise ValueError(
            f"eigenvalue {float(eigs.min()):.3e} below -1e-9; use project_to_physical first"
        )
    flat = np.clip(eigs, 0.0, None).reshape(-1, eigs.shape[-1])
    terms = _xlogx(flat)
    # spectra ascend (eigvalsh and eigh sort them; water-filling keeps the order), so the kept
    # eigenvalues are a suffix of each row; each suffix is summed as a contiguous row, so a
    # spectrum gives the same bits alone as in any batch
    n_kept = (flat > _LOG_CUTOFF).sum(axis=-1)
    totals = np.zeros(len(flat))
    for m in set(n_kept.tolist()) - {0}:
        rows = n_kept == m
        totals[rows] = np.ascontiguousarray(terms[rows, eigs.shape[-1] - m :]).sum(axis=-1)
    return (np.maximum(-totals, 0.0) + 0.0).reshape(eigs.shape[:-1])


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x log2 x elementwise for x >= 0, with 0 log 0 := 0: x up to 1e-12 gives 0."""
    safe = np.where(x > _LOG_CUTOFF, x, 1.0)
    return safe * np.log2(safe)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr[rho log2 rho] with 0 log 0 := 0.

    Eigenvalues in [-1e-9, 0) are clamped to 0 (round-off on rank-deficient
    states); anything more negative raises (see project_to_physical).
    """
    return float(_entropy_batch(rho.entries))


def pauli_expectation(state, pauli) -> float:
    """Expectation value of a Pauli string; real within a 1e-9 residue check.  A string with X-part x
    and Z-part z (Y sets both bits, qubit 1 is the top bit) has <r|P|r ^ x> = (-i)^|x & z| (-1)^(z.r),
    so <P> sums those signs times conj(psi[r]) psi[r ^ x], or times rho[r ^ x, r]."""
    pauli = as_pauli(pauli)
    n = state.n_qubits
    if len(pauli) != n:
        raise ValueError(f"Pauli string length {len(pauli)} != {n} qubits")
    x, z = (int(pauli.labels.translate(str.maketrans("IXYZ", bits)), 2) for bits in ("0110", "0011"))
    rows = np.arange(2**n)
    signs = 1.0 - 2.0 * (np.bitwise_count(rows & z) & 1)
    if isinstance(state, StateVector):
        total = np.vdot(state.amplitudes, signs * state.amplitudes[rows ^ x])
    else:
        total = np.dot(signs, state.entries[rows ^ x, rows])
    value = complex((1, -1j, -1, 1j)[(x & z).bit_count() % 4] * total)
    if abs(value.imag) > 1e-9:
        raise ValueError(f"expectation has imaginary residue {value.imag:.3e} beyond 1e-9")
    return float(value.real)


def fidelity(a, b) -> float:
    """Fidelity between two states given as StateVector or DensityMatrix, at
    least one of them pure: |<a|b>|^2, or <psi|rho|psi> for a mixed one."""
    if not (isinstance(a, StateVector) or isinstance(b, StateVector)):
        raise ValueError("fidelity needs at least one pure state (StateVector), got two density matrices")
    dim_a = a.amplitudes.size if isinstance(a, StateVector) else a.entries.shape[0]
    dim_b = b.amplitudes.size if isinstance(b, StateVector) else b.entries.shape[0]
    if dim_a != dim_b:
        raise ValueError(f"dimension mismatch: {dim_a} vs {dim_b}")
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        value = float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
    else:
        psi, rho = (a.amplitudes, b.entries) if isinstance(a, StateVector) else (b.amplitudes, a.entries)
        value = float(np.real(psi.conj() @ rho @ psi))
    if value < -1e-9 or value > 1.0 + 1e-9:
        raise ValueError(f"fidelity {value!r} outside [0, 1] beyond tolerance")
    return float(min(max(value, 0.0), 1.0))


def _water_fill(eigs: np.ndarray) -> np.ndarray:
    """Closest unit-sum nonnegative vectors to the rows of a (B, d) array of
    unit-sum spectra, max(eigs - mu, 0) with one mu per row (Smolin, Gambetta
    and Smith, PRL 108, 070502 (2012)).  Each pass zeroes the negatives of
    every row that has some and shifts its positive entries back to unit sum."""
    lam = np.array(eigs, dtype=float)
    active = lam.min(axis=-1) < 0.0
    while active.any():
        rows = lam[active]
        rows[rows < 0.0] = 0.0
        survivors = rows > 0.0
        deficit = 1.0 - rows.sum(axis=-1)
        rows += np.where(survivors, (deficit / survivors.sum(axis=-1))[:, None], 0.0)
        lam[active] = rows
        active[active] = rows.min(axis=-1) < 0.0
    return lam


def _projected_density(filled: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Unit-trace PSD matrices rebuilt from the eigenvectors of a (B, d, d)
    stack and its eigenvalues, already water-filled (see _water_fill)."""
    mats = (vecs * filled[:, None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))
    mats = (mats + np.conj(np.swapaxes(mats, -1, -2))) / 2
    return mats / np.real(np.trace(mats, axis1=-2, axis2=-1))[:, None, None]


def project_to_physical(rho: DensityMatrix) -> DensityMatrix:
    """Closest (Frobenius) positive-semidefinite unit-trace matrix.

    Eigenvalue water-filling: negative eigenvalues go to zero and the others
    shift down together until the trace is one again.
    """
    eigs, vecs = np.linalg.eigh(rho.entries)
    if float(eigs.min()) >= 0.0:
        return rho
    return DensityMatrix(_projected_density(_water_fill(eigs[None]), vecs[None])[0])
