"""Correlator-based analysis of the four-qubit resource states.

Everything here works from four-point Pauli correlators: linear-inversion
reconstruction of the density matrix, extraction of the two-branch model
parameters (P, C) for the star state, the closed-form mutual information
they determine, and the measurement plan that certifies a 32-correlator
budget against full tomography.

P, Q and C are the entries <0101|rho|0101>, <1010|rho|1010> and
<0101|rho|1010> of the linear inversion rho = (1/16) sum_p <p> p, so each
correlator enters with the matching entry of its Pauli matrix; the ideal
star state yields (P, C) = (1/2, 1/2).
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from math import comb, prod, sqrt

import numpy as np

from .darwinism import MICurve, MIPoint, _mixed_entropies, _nonnegative
from .darwinism import mi_curve  # noqa: F401  (mi_curve: perfbench/tracer.py wraps this binding)
from .graphstate import _check_system
from .qcore import (  # noqa: F401  (project_to_physical: perfbench/tracer.py wraps this binding)
    _EIGENVALUE_FLOOR,
    PAULI_MATRICES,
    DensityMatrix,
    PauliString,
    _projected_density,
    _spectrum_entropies,
    _water_fill,
    _xlogx,
    all_pauli_strings,
    as_pauli,
    pauli_expectation,
    project_to_physical,
)

_F_WINDOW = 1e-9
_NEGATIVITY_TOL = 0.25


@dataclass(frozen=True)
class CorrelatorTable:
    """Map from four-letter Pauli strings to expectation values, with optional
    one-sigma errors."""

    entries: dict

    def __post_init__(self) -> None:
        normalized: dict[PauliString, tuple[float, float | None]] = {}
        length = None
        for key, payload in self.entries.items():
            string = as_pauli(key)
            if length is None:
                length = len(string)
            elif len(string) != length:
                raise ValueError("all strings in a table must have equal length")
            value, sigma = payload if isinstance(payload, tuple) else (payload, None)
            value = float(value)
            sigma = None if sigma is None else float(sigma)
            if not -1.0 - 1e-9 <= value <= 1.0 + 1e-9:
                raise ValueError(f"correlator {string} = {value!r} outside [-1, 1]")
            if sigma is not None and sigma < 0:
                raise ValueError(f"negative sigma for {string}")
            if string.weight == 0:
                tol = sigma if sigma is not None else 1e-9
                if abs(value - 1.0) > tol:
                    raise ValueError(f"identity correlator must be 1 within {tol}, got {value!r}")
            normalized[string] = (value, sigma)
        object.__setattr__(self, "entries", normalized)

    def __contains__(self, key) -> bool:
        return as_pauli(key) in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def value(self, key) -> float:
        return self.entries[as_pauli(key)][0]

    def sigma(self, key) -> float | None:
        return self.entries[as_pauli(key)][1]


def correlator_table(state, strings) -> CorrelatorTable:
    """Exact correlators of a four-qubit state for the requested strings."""
    if state.n_qubits != 4:
        raise ValueError(f"correlator analysis is defined for 4 qubits, got {state.n_qubits}")
    return CorrelatorTable({as_pauli(s): pauli_expectation(state, s) for s in strings})


_pauli_strings = lru_cache(maxsize=1)(partial(all_pauli_strings, 4))


@lru_cache(maxsize=1)
def _inversion_tables():
    """Linear inversion as 16-point Walsh-Hadamard transforms.  A string with
    X-part x and Z-part z (Y sets both bits, qubit 1 is the top bit) has one
    entry per row r, <r|p|r ^ x> = (-i)^|x & z| (-1)^(z.r), so
    rho[r, r ^ x] = sum_z (-1)^(z.r) <p(x, z)> (-i)^|x & z| / 16.  Returns
    the string index and the factor (-i)^|x & z| / 16 of each (z, x), the
    signs (-1)^(g.q) for the top three bits g of z and q of r, and the flat
    (r, x) of each rho[r, s]."""
    bits = (np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1
    z, x = bits[:, None, :], bits[None, :, :]
    order = ((x + z + 2 * z * (1 - x)) @ 4 ** np.arange(3, -1, -1)).ravel()  # letters I, X, Y, Z are 0..3
    phases = np.array([1, -1j, -1, 1j])[(x & z).sum(axis=-1) % 4, None] / 16
    signs = (-1.0) ** (bits[:8, 1:] @ bits[:8, 1:].T)[:, :, None, None]
    rows = np.arange(16)[:, None]
    tables = order, phases, signs, (rows * 16 + (rows ^ rows.T)).ravel()
    for table in tables:
        table.flags.writeable = False
    return tables


def _table_values(table: CorrelatorTable, strings) -> np.ndarray:
    """The values of the given strings in table, in order; a missing string is refused."""
    missing = [str(s) for s in strings if s not in table]
    if missing:
        raise ValueError(f"table is missing {len(missing)} strings (e.g. {missing[:4]})")
    return np.array([table.value(s) for s in strings])


def reconstruct_density(table: CorrelatorTable) -> DensityMatrix:
    """Linear inversion: rho = (1/16) sum_p <p> p over all 256 Pauli strings.
    Finite-statistics tables can give eigenvalues below zero; see
    project_to_physical."""
    return DensityMatrix(_density_batch(_table_values(table, _pauli_strings())))


def _density_batch(values: np.ndarray) -> np.ndarray:
    """Linear inversion of (..., 256) correlator vectors, ordered as
    all_pauli_strings(4): Hermitian, unit-trace (..., 16, 16) matrices, from
    one Walsh-Hadamard transform per X-part (see _inversion_tables)."""
    order, phases, signs, gather = _inversion_tables()
    coeffs = (np.take(values.reshape(-1, 256).T, order, axis=0).reshape(16, 16, -1) * phases).reshape(16, -1)
    # the sums over z add as the dense 256 x 256 product they replace did on OpenBLAS, so seeded
    # values keep their bits: each pair z, z ^ 1 first, then the eight pair sums in z order; and
    # a contiguous rho's trace adds in the same order in any batch (why one product, not in-place adds: README)
    pairs = np.stack([coeffs[0::2] + coeffs[1::2], coeffs[0::2] - coeffs[1::2]], axis=1)
    entries = np.take(sum(signs * pairs[:, None]).reshape(256, -1), gather, axis=0)
    rho = np.ascontiguousarray(entries.T).reshape(values.shape[:-1] + (16, 16))
    rho = (rho + np.conj(np.swapaxes(rho, -1, -2))) / 2
    return rho / np.real(np.trace(rho, axis1=-2, axis2=-1))[..., None, None]


def _pauli_entries(letters: str, row: str, col: str) -> list[tuple[str, complex]]:
    """(s, <row|s|col>) for every string s over `letters`, in lexicographic
    order: each entry is the product of the single-qubit matrix entries."""
    return [
        ("".join(s), prod(PAULI_MATRICES[x][int(r), int(c)] for x, r, c in zip(s, row, col)))
        for s in itertools.product(letters, repeat=len(row))
    ]


# x16 coefficients of P, Q and C; the strings outside these letters give 0
_P_TERMS = [(s, entry.real) for s, entry in _pauli_entries("IZ", "0101", "0101")]
_Q_TERMS = [(s, entry.real) for s, entry in _pauli_entries("IZ", "1010", "1010")]
_C_TERMS = _pauli_entries("XY", "0101", "1010")


def _star_families() -> tuple[PauliString, ...]:
    """The 32 correlators entering P and C, grouped the way the budget is
    usually quoted: both uniform strings first, then each permutation family."""

    def perms(multiset: str) -> list[str]:
        return sorted({"".join(p) for p in itertools.permutations(multiset)})

    ordered = (
        ["IIII", "ZZZZ"]
        + perms("IIIZ")
        + perms("IIZZ")
        + perms("IZZZ")
        + ["XXXX", "YYYY"]
        + perms("XXXY")
        + perms("XYYY")
        + perms("XXYY")
    )
    return tuple(PauliString(s) for s in ordered)


STAR_CORRELATORS = _star_families()


_STAR_INDEX = {s.labels: i for i, s in enumerate(STAR_CORRELATORS)}
# term k of P, Q and C: its string's index in STAR_CORRELATORS (16, 3) and its coefficient (16, 3, 1)
_STAR_TERMS = np.array([[_STAR_INDEX[labels] for labels, _ in terms] for terms in (_P_TERMS, _Q_TERMS, _C_TERMS)]).T
_STAR_COEFFICIENTS = np.array([[coeff for _, coeff in terms] for terms in (_P_TERMS, _Q_TERMS, _C_TERMS)]).T[..., None]


def _star_populations(values: np.ndarray):
    """(P, Q, C) of (..., 32) correlator vectors ordered as STAR_CORRELATORS, summed
    term by term in expansion order from +0.0, as Python's sum adds them, along the
    leading term axis: no batch size changes that order (a BLAS product's would)."""
    terms = _STAR_COEFFICIENTS * values.reshape(-1, 32).T[_STAR_TERMS]
    terms[0] += 0.0  # a -0.0 first term gives +0.0, as 0 + -0.0 does
    p, q, c = np.add.accumulate(terms)[-1].reshape((3,) + values.shape[:-1])
    return p.real / 16.0, q.real / 16.0, c / 16.0


@dataclass(frozen=True)
class StarParameters:
    """Two-branch model rho = P |0101><0101| + (1-P) |1010><1010| + coherence C.

    `consistent` records whether the two measured branch populations P and Q
    sum to one, i.e. whether `deviation` = |P + Q - 1| lies within
    max(1e-6, 6 sigma_P); tables from states outside the model (e.g. the
    maximally mixed state) are flagged False.
    """

    p: float
    c: complex
    sigma_p: float | None = None
    sigma_c: float | None = None
    consistent: bool = True
    deviation: float = 0.0


def star_parameters(table: CorrelatorTable) -> StarParameters:
    """Extract (P, C) from the 32 star correlators."""
    return _star_parameters(_table_values(table, STAR_CORRELATORS), [table.sigma(s) for s in STAR_CORRELATORS])


def _star_parameters(values: np.ndarray, sigmas: list) -> StarParameters:
    """star_parameters of 32 correlators and their sigmas (or None), ordered as STAR_CORRELATORS."""
    p_value, q_value, c_value = _star_populations(values)

    sigmas_diag = [sigmas[_STAR_INDEX[s]] for s, _ in _P_TERMS]
    sigmas_xy = [sigmas[_STAR_INDEX[s]] for s, _ in _C_TERMS]
    if all(s is not None for s in sigmas_diag + sigmas_xy):
        sigma_p = sqrt(sum(s**2 for s in sigmas_diag)) / 16.0
        sigma_c = sqrt(sum(s**2 for s in sigmas_xy)) / 16.0
    else:
        sigma_p = sigma_c = None

    tol = 1e-6 if sigma_p is None else max(1e-6, 6.0 * sigma_p)
    deviation = float(abs(p_value + q_value - 1.0))
    return StarParameters(
        p=float(p_value),
        c=complex(c_value),
        sigma_p=sigma_p,
        sigma_c=sigma_c,
        consistent=deviation <= tol,
        deviation=deviation,
    )


def branch_eigenvalues(params: StarParameters) -> tuple[float, float]:
    """f+/f- = (1 +- sqrt(4|C|^2 + (1-2P)^2))/2, the eigenvalues of the
    coherence block [[P, C], [C*, 1-P]]; they sum to one."""
    f_plus, f_minus = _branch_eigenvalues(params.p, params.c)
    return float(f_plus), float(f_minus)


def _branch_eigenvalues(p, c):
    # hypot and float_power round exactly as Python's abs and ** on scalars
    spread = np.sqrt(4.0 * np.float_power(_magnitude(c), 2) + np.float_power(1.0 - 2.0 * p, 2))
    return (1.0 + spread) / 2.0, (1.0 - spread) / 2.0


def star_mutual_information(params: StarParameters, delta: int) -> float:
    """Closed-form system-fragment mutual information of the two-branch state.

    Fragment sizes 1 and 2 depend on P alone; size 3 also feels the coherence
    through the branch eigenvalues f+/f-.  Every size raises when those
    eigenvalues leave [0, 1], since (P, C) is then outside the model.
    """
    if delta not in (1, 2, 3):
        raise ValueError(f"delta must be 1, 2 or 3, got {delta}")
    values, in_model = _two_branch_mi(params.p, params.c)
    if not in_model:
        raise ValueError(
            f"branch eigenvalues {branch_eigenvalues(params)} outside [0, 1]: the "
            "table is not consistent with the two-branch model"
        )
    return float(values[delta - 1])


def _magnitude(c) -> np.ndarray:
    """|C| elementwise; hypot rounds as Python's abs of a complex does."""
    c = np.asarray(c)
    return np.hypot(c.real, c.imag)


def _two_branch_mi(p, c):
    """Closed-form mutual information of two-branch models, elementwise in
    (P, C): fragment sizes 1, 2, 3 along a new last axis, and whether the
    branch eigenvalues lie in [0, 1]."""
    f_plus, f_minus = _branch_eigenvalues(p, c)
    p = np.clip(p, 0.0, 1.0)  # a P inside the window but outside [0, 1] must not give H(P) < 0
    binary = -_xlogx(p) - _xlogx(1.0 - p) + 0.0  # + 0.0: no -0.0 at P in {0, 1}
    in_model = (f_minus >= -_F_WINDOW) & (f_plus <= 1.0 + _F_WINDOW)
    f_plus, f_minus = np.clip(f_plus, 0.0, 1.0), np.clip(f_minus, 0.0, 1.0)
    full = _xlogx(f_plus) + _xlogx(f_minus) + 2.0 * binary + 0.0
    return np.stack([binary, binary, full], axis=-1), in_model


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


@dataclass(frozen=True)
class MeasurementPlan:
    """Correlators to estimate and the physical settings that cover them.

    A setting is a full-weight string; any correlator is read from a setting
    that matches it on every non-identity position, by marginalizing the
    outcome distribution.
    """

    correlators: tuple[PauliString, ...]
    settings: tuple[PauliString, ...]
    counts: dict

    def to_json_dict(self) -> dict:
        return {
            "correlators": [str(s) for s in self.correlators],
            "settings": [str(s) for s in self.settings],
            "counts": dict(self.counts),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def covering_setting(string: PauliString) -> PauliString:
    """Canonical full-weight setting for a correlator: measure Z wherever the
    string has an identity."""
    return PauliString("".join("Z" if c == "I" else c for c in string.labels))


def plan_measurements(target: str) -> MeasurementPlan:
    """Measurement plan for the star extraction or for full tomography.

    star: the 32 correlators entering P and C; ZZZZ covers the 16 I/Z strings
    by marginalization and the 16 X/Y strings are their own settings, so 17
    distinct settings suffice.  full_tomography: all 255 non-identity
    correlators, 81 full-weight settings, and the over-complete per-projector
    count 6^4 = 1296 quoted for standard tomography.
    """
    if target == "star":
        correlators = STAR_CORRELATORS
    elif target == "full_tomography":
        correlators = tuple(s for s in all_pauli_strings(4) if s.weight > 0)
    else:
        raise ValueError(f"unknown plan target {target!r}")
    settings = tuple(dict.fromkeys(covering_setting(s) for s in correlators))
    counts = {"n_correlators": len(correlators), "n_settings": len(settings)}
    if target == "full_tomography":
        counts["n_projectors"] = 6**4
    return MeasurementPlan(correlators=correlators, settings=settings, counts=counts)


def _check_negativity(lowest: float, tol: float = _NEGATIVITY_TOL) -> None:
    """Refuse a reconstruction whose lowest eigenvalue lies below -tol (and below -1e-9)."""
    if lowest < min(-tol, _EIGENVALUE_FLOOR):
        raise ValueError(f"reconstruction has eigenvalue {lowest:.3f}, beyond the projection tolerance {tol}")


def _check_point(values: np.ndarray) -> None:
    """Refuse a (1, 256) point row on the lowest eigenvalue of its inversion, the bits _reconstruction_replicas computes."""
    _check_negativity(np.linalg.eigh(_density_batch(values))[0][0, 0])


def _reconstruction_replicas(values: np.ndarray, system: int):
    """Mean, min and max (B, 3) per fragment size of each replica's 256
    correlators, its H_S, and the lowest eigenvalue of its linear inversion.

    Every inversion is projected to the physical set however negative its
    spectrum: one bad resample must not end the run.  Refusing the point
    estimate is left to the caller.
    """
    rho = _density_batch(values)
    eigs, vecs = np.linalg.eigh(rho)
    lowest = eigs[:, 0].copy()  # a view would see the water-filling below
    unphysical = lowest < _EIGENVALUE_FLOOR
    eigs[unphysical] = _water_fill(eigs[unphysical])
    rho[unphysical] = _projected_density(eigs[unphysical], vecs[unphysical])
    env = [q for q in range(1, 5) if q != system]
    f1, f2, f3 = (list(itertools.combinations(env, d)) for d in (1, 2, 3))
    s1, s2 = ([(system,) + f for f in fragments] for fragments in (f1, f2))  # S first, as in mutual_information
    # one eigvalsh per dimension: 2 x 2 (S, F1), 4 x 4 (F2, S u F1), 8 x 8 (F3, S u F2); eigs gives S u F3
    h2, h4, h8 = (_mixed_entropies(rho, subsets) for subsets in ([(system,)] + f1, f2 + s1, f3 + s2))
    pairs = [(h2[:, 1:], h4[:, 3:]), (h4[:, :3], h8[:, 1:]), (h8[:, :1], _spectrum_entropies(eigs)[:, None])]
    groups = [_nonnegative(h2[:, :1] + h_f - h_sf) for h_f, h_sf in pairs]
    mean, lo, hi = (np.stack([f(group, axis=1) for group in groups], axis=1) for f in (np.mean, np.min, np.max))
    # as in mi_curve: round-off must not put a mean outside [min, max]
    return (np.clip(mean, lo, hi), lo, hi), h2[:, 0], lowest


def _point_curve(replicas, stderr=(None, None, None), diagnostics: dict | None = None) -> MICurve:
    """The MICurve of row 0 of a replica kernel's (mean, min, max), H_S and flag."""
    (mean, lo, hi), h_s, _ = replicas
    rows = zip((1, 2, 3), mean[0].tolist(), lo[0].tolist(), hi[0].tolist(), stderr)
    points = tuple(MIPoint(d, m, low, high, comb(3, d), err) for d, m, low, high, err in rows)
    return MICurve(points=points, system_entropy=float(h_s[0]), n_env=3, _diagnostics=diagnostics)


def diamond_mutual_information(
    table: CorrelatorTable, system: int, *, negativity_tol: float = _NEGATIVITY_TOL
) -> MICurve:
    """Mutual-information curve from a full 256-string correlator table, run as the one replica of
    the reconstruction kernel: linear inversion, projection to the physical set when finite
    statistics produced (mildly) negative eigenvalues, then the fragment entropies."""
    _check_system(system, 4)
    replicas = _reconstruction_replicas(_table_values(table, _pauli_strings())[None], system)
    _check_negativity(float(replicas[2][0]), negativity_tol)
    return _point_curve(replicas)
