"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the library's reshape/transpose code
paths: partial traces run over explicit binary indices, states are plain
numpy arrays, and mutual information always goes through the dense global
density matrix (partial_trace_transposed, the library's former partial
trace, is kept only as a bit-for-bit reference).  Slow, but trustworthy for n <= 6.  The helpers at the end
that build library objects (plus_state, density, maximally_mixed, spec_dict,
mean_values) stand in for conveniences the library does not offer, and
curve_json spells a curve through json's own indented encoder.
"""
from __future__ import annotations

import dataclasses
import json

import numpy as np

from qdarwin import DensityMatrix, StateVector

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def ket(bits: str) -> np.ndarray:
    vec = np.zeros(2 ** len(bits), dtype=complex)
    vec[int(bits, 2)] = 1.0
    return vec


def kron_all(mats) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def pauli_matrix(labels: str) -> np.ndarray:
    return kron_all([PAULI[c] for c in labels])


def graph_state_amplitudes(n: int, edges) -> np.ndarray:
    """Graph state on n qubits, one basis index at a time:
    2^{-n/2} exp(i * sum of the phases of the edges (j, k, phase) whose two
    qubits are both 1 in that index)."""
    amps = np.empty(2**n, dtype=complex)
    for index in range(2**n):
        bits = format(index, f"0{n}b")
        phase = sum(p for j, k, p in edges if bits[j - 1] == "1" and bits[k - 1] == "1")
        amps[index] = np.exp(1j * phase) / np.sqrt(2**n)
    return amps


def gf2_rank(rows) -> int:
    """Rank over GF(2) of a matrix given as lists of 0/1 entries, by plain
    row reduction: take a row with a 1 in the current column as pivot, add
    it to every other row with a 1 there."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def measurement_probabilities_kron(rho: np.ndarray, setting: str) -> np.ndarray:
    """Outcome probabilities of a full-weight setting from the explicit
    2^n x 2^n rotation U = kron of per-qubit blocks (Hadamard for X, the Y
    eigenbasis rotation for Y, identity for Z): diag(U rho U^dag), clipped
    at 0 and normalised."""
    blocks = {
        "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
        "Y": np.array([[1, -1j], [1, 1j]], dtype=complex) / np.sqrt(2),
        "Z": I2,
    }
    unitary = kron_all([blocks[c] for c in setting])
    probs = np.clip(np.real(np.diag(unitary @ rho @ unitary.conj().T)), 0.0, None)
    return probs / probs.sum()


def brute_partial_trace(rho: np.ndarray, keep, n: int) -> np.ndarray:
    """Partial trace by explicit summation over binary indices (qubit 1 is
    the most significant bit, labels 1-based, keep order preserved)."""
    keep = list(keep)
    traced = [q for q in range(1, n + 1) if q not in keep]
    dk, dt = 2 ** len(keep), 2 ** len(traced)
    out = np.zeros((dk, dk), dtype=complex)
    for i in range(dk):
        for j in range(dk):
            acc = 0.0 + 0j
            for t in range(dt):
                row = 0
                col = 0
                for pos, q in enumerate(keep):
                    row |= ((i >> (len(keep) - 1 - pos)) & 1) << (n - q)
                    col |= ((j >> (len(keep) - 1 - pos)) & 1) << (n - q)
                for pos, q in enumerate(traced):
                    bit = (t >> (len(traced) - 1 - pos)) & 1
                    row |= bit << (n - q)
                    col |= bit << (n - q)
                acc += rho[row, col]
            out[i, j] = acc
    return out


def partial_trace_transposed(mats: np.ndarray, keep) -> np.ndarray:
    """Reference for qcore._partial_trace_batch, which must match it bit for
    bit: the transpose-reshape partial trace it replaced.  Each qubit is an
    axis of the (..., 2, ..., 2) view; the kept axes, in keep order, then the
    traced ones in label order are copied into (..., d_keep, d_traced, d_keep,
    d_traced), and the traced index is summed off its diagonal."""
    n = mats.shape[-1].bit_length() - 1
    lead = mats.shape[:-2]
    k = len(lead)
    axes = [q - 1 for q in keep] + [q - 1 for q in range(1, n + 1) if q not in keep]
    tensor = mats.reshape(lead + (2,) * (2 * n))
    tensor = tensor.transpose(list(range(k)) + [k + a for a in axes] + [k + n + a for a in axes])
    tensor = tensor.reshape(lead + (2 ** len(keep), 2 ** (n - len(keep)), 2 ** len(keep), 2 ** (n - len(keep))))
    return np.einsum("...aibi->...ab", tensor)


def brute_entropy(rho: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(rho)
    eigs = eigs[eigs > 1e-12]
    return float(-np.sum(eigs * np.log2(eigs)))


def brute_pure_entropy(psi: np.ndarray, keep, n: int) -> float:
    """Entropy of a pure state's reduction from the Gram matrix M M^dag of
    the smaller side of the cut, M[i, t] = psi at the index whose side qubits
    read i and other qubits read t, placed bit by bit (qubit 1 most
    significant, labels 1-based)."""
    side = sorted(keep)
    if 2 * len(side) > n:
        side = [q for q in range(1, n + 1) if q not in side]
    other = [q for q in range(1, n + 1) if q not in side]
    index = np.zeros((2 ** len(side), 2 ** len(other)), dtype=np.int64)
    for qubits, axis in ((side, 0), (other, 1)):
        values = np.arange(2 ** len(qubits)).reshape((-1, 1) if axis == 0 else (1, -1))
        for pos, q in enumerate(qubits):
            index |= ((values >> (len(qubits) - 1 - pos)) & 1) << (n - q)
    m = psi[index]
    return brute_entropy(m @ m.conj().T)


def brute_mutual_information(psi: np.ndarray, system: int, fragment, n: int) -> float:
    rho = np.outer(psi, psi.conj())
    return brute_mutual_information_dm(rho, system, fragment, n)


def brute_mutual_information_dm(rho: np.ndarray, system: int, fragment, n: int) -> float:
    h_s = brute_entropy(brute_partial_trace(rho, [system], n))
    h_f = brute_entropy(brute_partial_trace(rho, list(fragment), n))
    h_sf = brute_entropy(brute_partial_trace(rho, [system] + list(fragment), n))
    return h_s + h_f - h_sf


def random_pure_array(n: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return vec / np.linalg.norm(vec)


def random_density_array(n: int, rng: np.random.Generator, rank: int = 3) -> np.ndarray:
    dim = 2**n
    rho = np.zeros((dim, dim), dtype=complex)
    weights = rng.dirichlet(np.ones(rank))
    for w in weights:
        psi = random_pure_array(n, rng)
        rho += w * np.outer(psi, psi.conj())
    return rho


def states_equal_up_to_phase(a, b, tol: float = 1e-10) -> bool:
    """Equality of two StateVectors modulo a global phase: | |<a|b>| - 1 | <= tol."""
    return bool(abs(abs(np.vdot(a.amplitudes, b.amplitudes)) - 1.0) <= tol)


def two_branch_rho(p: float, c: complex) -> np.ndarray:
    """rho = p |0101><0101| + (1-p) |1010><1010| + (c |0101><1010| + h.c.)."""
    rho = np.zeros((16, 16), dtype=complex)
    hi, lo = int("0101", 2), int("1010", 2)
    rho[hi, hi] = p
    rho[lo, lo] = 1.0 - p
    rho[hi, lo] = c
    rho[lo, hi] = np.conj(c)
    return rho


def binary_entropy(p: float) -> float:
    total = 0.0
    for x in (p, 1.0 - p):
        if x > 1e-12:
            total -= x * np.log2(x)
    return total


def eig2x2(p: float, c: complex) -> tuple[float, float]:
    """Roots of the characteristic polynomial of [[p, c], [c*, 1-p]]."""
    disc = np.sqrt((2.0 * p - 1.0) ** 2 + 4.0 * abs(c) ** 2)
    return float((1.0 + disc) / 2.0), float((1.0 - disc) / 2.0)


def estimate_entries_loop(setting_labels, vectors, shots, wanted_labels) -> dict:
    """Correlators {label: (value, sigma)} by explicit loops over strings and
    settings, one string and one setting at a time.

    A wanted string is read from every setting that matches it on its
    non-identity positions, as the mean outcome parity of those positions
    with sigma = sqrt((1 - c^2)/N).  Settings with sigma = 0 are exact and
    are averaged alone; otherwise the estimates combine by inverse-variance
    weighting.
    """
    entries = {}
    for label in wanted_labels:
        n = len(label)
        positions = [i for i, c in enumerate(label) if c != "I"]
        parity = np.ones(2**n)
        for pos in positions:
            parity *= 1.0 - 2.0 * ((np.arange(2**n) >> (n - 1 - pos)) & 1)
        estimates = []
        for setting, vector, total in zip(setting_labels, vectors, shots):
            if all(w == "I" or w == s for w, s in zip(label, setting)):
                value = float(parity @ vector) / total
                estimates.append((value, np.sqrt(max(1.0 - value**2, 0.0) / total)))
        if not estimates:
            raise ValueError(f"no setting covers {label}")
        exact = [v for v, s in estimates if s == 0.0]
        if exact:
            entries[label] = (float(np.mean(exact)), 0.0)
        else:
            weights = np.array([1.0 / s**2 for _, s in estimates])
            values = np.array([v for v, _ in estimates])
            entries[label] = (
                float(np.sum(weights * values) / np.sum(weights)),
                float(1.0 / np.sqrt(np.sum(weights))),
            )
    return entries


def estimate_batch_general(counts: np.ndarray, shots: np.ndarray, plan, wanted_labels) -> tuple[np.ndarray, np.ndarray]:
    """Reference for measurement._estimate_batch, which must match it bit for
    bit: every parity of every setting divided by its shots, then every group
    of strings through the general weighted mean, one-cover groups included.
    The all-identity string, which the plan leaves out of its groups, is
    estimated too, from subset 0 of every setting.  Exact covers (sigma = 0)
    are averaged alone; otherwise the covers combine by inverse-variance
    weighting, summed in each string's cover order.  A string no group
    reaches reads NaN."""
    parity, groups, _, _ = plan
    identity = np.array([i for i, label in enumerate(wanted_labels) if set(label) == {"I"}], dtype=int)
    every = np.tile(np.arange(counts.shape[1]), (len(identity), 1))
    groups = (*groups, (identity, every * counts.shape[2], every))
    parities = ((counts @ parity) / shots[:, None]).reshape(len(counts), -1)
    value = np.full((len(counts), len(wanted_labels)), np.nan)
    sigma = np.full_like(value, np.nan)
    for rows, flat, settings in groups:
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


def star_populations_by_terms(values: np.ndarray, labels) -> tuple:
    """Reference for estimator._star_populations: P, Q and C, the entries
    <0101|rho|0101>, <1010|rho|1010> and <0101|rho|1010> of rho = (1/16)
    sum_s <s> s, for (..., 32) correlator vectors whose last axis follows
    labels.  Each is Python's sum of <r|s|c> <s> over the strings s with a
    nonzero entry, in alphabetical (I < X < Y < Z) order, divided by 16."""
    out = []
    for row, col in (("0101", "0101"), ("1010", "1010"), ("0101", "1010")):
        r, c = int(row, 2), int(col, 2)
        entries = [(label, pauli_matrix(label)[r, c]) for label in sorted(labels)]
        terms = [(e.real if r == c else e) * values[..., labels.index(label)] for label, e in entries if e != 0]
        out.append(sum(terms) / 16.0)
    return tuple(out)


def water_fill_loop(eigs: np.ndarray) -> np.ndarray:
    """Water-filling of one unit-sum spectrum by repeated passes: zero the
    negatives, shift the positive entries uniformly back to unit sum, and
    repeat while the shift drove new entries negative."""
    lam = np.array(eigs, dtype=float)
    if lam.min() >= 0.0:
        return lam
    while True:
        lam[lam < 0.0] = 0.0
        survivors = lam > 0.0
        deficit = 1.0 - float(lam.sum())
        lam[survivors] += deficit / int(survivors.sum())
        if float(lam.min()) >= 0.0:
            return lam


def linear_inversion(values: dict) -> np.ndarray:
    """rho = (1/16) sum_p <p> p over a {label: value} map, hermitised and
    normalised, built from explicit Pauli matrices."""
    rho = sum(v * pauli_matrix(label) for label, v in values.items()) / 16.0
    rho = (rho + rho.conj().T) / 2
    return rho / np.real(np.trace(rho))


def projected(rho: np.ndarray) -> np.ndarray:
    """rho with its spectrum water-filled (unchanged if already PSD)."""
    eigs, vecs = np.linalg.eigh(rho)
    out = (vecs * water_fill_loop(eigs)) @ vecs.conj().T
    out = (out + out.conj().T) / 2
    return out / np.real(np.trace(out))


def plus_state(n: int) -> StateVector:
    """|+>^n, the uniform superposition."""
    return StateVector(np.full(2**n, 1.0 / np.sqrt(2**n), dtype=complex))


def density(state: StateVector) -> DensityMatrix:
    """|psi><psi| of a ket."""
    return DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()))


def maximally_mixed(n: int) -> DensityMatrix:
    """I / 2^n."""
    return DensityMatrix(np.eye(2**n, dtype=complex) / 2**n)


def spec_dict(spec) -> dict:
    """A GraphSpec as the JSON object that GraphSpec.from_dict and --graph-file read."""
    return {"n_qubits": spec.n_qubits, "edges": [[j, k, phase] for j, k, phase in spec.edges]}


def mean_values(curve) -> list[float]:
    """Each point's mean mutual information, in fragment-size order."""
    return [p.mean_mi for p in curve.points]


def curve_json(curve) -> str:
    """The bytes MICurve.to_json must write: json.dumps(..., indent=2) of the
    curve's fields, each point's in declaration order, and a final newline."""
    points = [{f.name: getattr(p, f.name) for f in dataclasses.fields(p)} for p in curve.points]
    return json.dumps({"system_entropy": curve.system_entropy, "n_env": curve.n_env, "points": points}, indent=2) + "\n"
