"""Correlator-based analysis of the four-qubit resource states.

Everything here works from four-point Pauli correlators: linear-inversion
reconstruction of the density matrix, extraction of the two-branch model
parameters (P, C) for the star state, the closed-form mutual information
they determine, and the measurement plan that certifies a 32-correlator
budget against full tomography.

The (P, C) combinations are realized by expanding the projector
|0101><0101| in the I/Z basis and the ladder operator |1010><0101| in the
X/Y basis; the resulting signed permutation sums are calibrated so the
ideal star state yields (P, C) = (1/2, 1/2).
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .darwinism import MICurve, mi_curve
from .qcore import (
    DensityMatrix,
    PauliString,
    all_pauli_strings,
    as_pauli,
    pauli_expectation,
    project_to_physical,
)

_STAR_BRANCH = "0101"
_OTHER_BRANCH = "1010"
_F_WINDOW = 1e-9
_XLOGX_CUTOFF = 1e-12
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
            if isinstance(payload, tuple):
                value, sigma = payload
            else:
                value, sigma = payload, None
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

    def strings(self) -> list[PauliString]:
        return list(self.entries)

    def to_json_dict(self) -> dict:
        return {
            "entries": [
                {"string": str(s), "value": v, "sigma": sig}
                for s, (v, sig) in self.entries.items()
            ]
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CorrelatorTable":
        return cls(
            {item["string"]: (item["value"], item.get("sigma")) for item in data["entries"]}
        )


def correlator_table(state, strings) -> CorrelatorTable:
    """Exact correlators of a four-qubit state for the requested strings."""
    if state.n_qubits != 4:
        raise ValueError(f"correlator analysis is defined for 4 qubits, got {state.n_qubits}")
    return CorrelatorTable({as_pauli(s): pauli_expectation(state, s) for s in strings})


@lru_cache(maxsize=1)
def _pauli_stack() -> tuple[list[PauliString], np.ndarray]:
    strings = all_pauli_strings(4)
    stack = np.stack([s.matrix() for s in strings])
    stack.flags.writeable = False
    return strings, stack


def reconstruct_density(table: CorrelatorTable) -> DensityMatrix:
    """Linear inversion: rho = (1/16) sum_p <p> p over all 256 Pauli strings.

    The physical flag is set False when the reconstructed spectrum dips below
    -1e-9, as happens for finite-statistics tables.
    """
    strings, _ = _pauli_stack()
    missing = [str(s) for s in strings if s not in table]
    if missing:
        raise ValueError(f"table is missing {len(missing)} strings (e.g. {missing[:4]})")
    rho = _density_batch(np.array([table.value(s) for s in strings]))
    physical = bool(np.linalg.eigvalsh(rho).min() >= -1e-9)
    return DensityMatrix(rho, physical=physical)


def _density_batch(values: np.ndarray) -> np.ndarray:
    """Linear inversion of (..., 256) correlator vectors, ordered as
    all_pauli_strings(4): Hermitian, unit-trace (..., 16, 16) matrices."""
    _, stack = _pauli_stack()
    # a vector-matrix product per row, as for a single table: one
    # (B, 256) x (256, 256) product adds in another order (last-bit changes)
    rho = (values[..., None, :] @ stack.reshape(256, 256)).reshape(values.shape[:-1] + (16, 16))
    rho = rho / 16.0
    rho = (rho + np.conj(np.swapaxes(rho, -1, -2))) / 2
    return rho / np.real(np.trace(rho, axis1=-2, axis2=-1))[..., None, None]


def _diagonal_terms(branch: str) -> list[tuple[str, float]]:
    """Signed I/Z strings expanding |branch><branch| (coefficients x16)."""
    terms = []
    for choice in itertools.product("IZ", repeat=len(branch)):
        sign = 1.0
        for letter, bit in zip(choice, branch):
            if letter == "Z":
                sign *= 1.0 if bit == "0" else -1.0
        terms.append(("".join(choice), sign))
    return terms


def _coherence_terms(branch: str) -> list[tuple[str, complex]]:
    """Signed X/Y strings expanding |~branch><branch| (coefficients x16)."""
    terms = []
    for choice in itertools.product("XY", repeat=len(branch)):
        coeff = 1.0 + 0j
        for letter, bit in zip(choice, branch):
            if letter == "Y":
                coeff *= -1j if bit == "0" else 1j
        terms.append(("".join(choice), coeff))
    return terms


_P_TERMS = _diagonal_terms(_STAR_BRANCH)
_Q_TERMS = _diagonal_terms(_OTHER_BRANCH)
_C_TERMS = _coherence_terms(_STAR_BRANCH)


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


def _star_populations(values: np.ndarray):
    """(P, Q, C) of (..., 32) correlator vectors ordered as STAR_CORRELATORS,
    summed term by term in expansion order."""
    return tuple(
        sum(coeff * values[..., _STAR_INDEX[labels]] for labels, coeff in terms) / 16.0
        for terms in (_P_TERMS, _Q_TERMS, _C_TERMS)
    )


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
    missing = [str(s) for s in STAR_CORRELATORS if s not in table]
    if missing:
        raise ValueError(f"table is missing required strings: {missing}")

    p_value, q_value, c_value = _star_populations(
        np.array([table.value(s) for s in STAR_CORRELATORS])
    )

    sigmas_diag = [table.sigma(s) for s, _ in _P_TERMS]
    sigmas_xy = [table.sigma(s) for s, _ in _C_TERMS]
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


def _xlogx(x) -> np.ndarray:
    """Re[x log2 x] elementwise with the 0 log 0 := 0 convention; tiny
    magnitudes drop out, negative x take the complex logarithm."""
    x = np.asarray(x, dtype=complex)
    small = np.abs(x) <= _XLOGX_CUTOFF
    safe = np.where(small, 1.0, x)
    return np.where(small, 0.0, (safe * np.log2(safe)).real)


def branch_eigenvalues(params: StarParameters, *, uncorrected: bool = False) -> tuple[float, float]:
    """f+/f- of the coherence block [[P, C], [C*, 1-P]].

    The default form (1 +- sqrt(4|C|^2 + (1-2P)^2))/2 sums to one and equals
    the block eigenvalues.  `uncorrected` swaps in the circulating
    (2P-1 +- sqrt(...))/2 variant, whose values do not sum to one and can go
    negative; it is kept only so the two can be compared.
    """
    f_plus, f_minus = _branch_eigenvalues(params.p, params.c, uncorrected)
    return float(f_plus), float(f_minus)


def _branch_eigenvalues(p, c, uncorrected: bool):
    # hypot and float_power round exactly as Python's abs and ** on scalars
    spread = np.sqrt(4.0 * np.float_power(_magnitude(c), 2) + np.float_power(1.0 - 2.0 * p, 2))
    centre = 2.0 * p - 1.0 if uncorrected else 1.0
    return (centre + spread) / 2.0, (centre - spread) / 2.0


def star_mutual_information(params: StarParameters, delta: int, *, uncorrected: bool = False) -> float:
    """Closed-form system-fragment mutual information of the two-branch state.

    Fragment sizes 1 and 2 depend on P alone; size 3 also feels the coherence
    through the branch eigenvalues f+/f-.  With `uncorrected` the inconsistent
    eigenvalue variant is used, taking real parts of x log2 x for its negative
    arguments.
    """
    if delta not in (1, 2, 3):
        raise ValueError(f"delta must be 1, 2 or 3, got {delta}")
    values, in_model = _two_branch_mi(params.p, params.c, uncorrected=uncorrected)
    if delta == 3 and not in_model:
        raise ValueError(
            f"branch eigenvalues {branch_eigenvalues(params)} outside [0, 1]: the "
            "table is not consistent with the two-branch model"
        )
    return float(values[delta - 1])


def _magnitude(c) -> np.ndarray:
    """|C| elementwise; hypot rounds as Python's abs of a complex does."""
    c = np.asarray(c)
    return np.hypot(c.real, c.imag)


def _two_branch_mi(p, c, *, uncorrected: bool = False):
    """Closed-form mutual information of two-branch models, elementwise in
    (P, C): fragment sizes 1, 2, 3 along a new last axis, and whether the
    branch eigenvalues lie in [0, 1] (always True for `uncorrected`)."""
    binary = -_xlogx(p) - _xlogx(1.0 - p) + 0.0  # + 0.0: no -0.0 at P in {0, 1}
    f_plus, f_minus = _branch_eigenvalues(p, c, uncorrected)
    in_model = uncorrected | ((f_minus >= -_F_WINDOW) & (f_plus <= 1.0 + _F_WINDOW))
    if not uncorrected:
        f_plus, f_minus = np.clip(f_plus, 0.0, 1.0), np.clip(f_minus, 0.0, 1.0)
    full = _xlogx(f_plus) + _xlogx(f_minus) + 2.0 * binary + 0.0
    return np.stack([binary, binary, full], axis=-1), in_model


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
    """Refuse a reconstruction whose lowest eigenvalue lies below -tol."""
    if lowest < -tol:
        raise ValueError(f"reconstruction has eigenvalue {lowest:.3f}, beyond the projection tolerance {tol}")


def diamond_mutual_information(
    table: CorrelatorTable, system: int, *, negativity_tol: float = _NEGATIVITY_TOL
) -> MICurve:
    """Mutual-information curve from a full 256-string correlator table.

    Reconstructs the state by linear inversion, projects to the physical set
    when finite statistics produced (mildly) negative eigenvalues, and then
    runs the exact fragment analysis on the result.
    """
    rho = reconstruct_density(table)
    if not rho.physical:
        _check_negativity(float(np.linalg.eigvalsh(rho.entries).min()), negativity_tol)
        rho = project_to_physical(rho)
    return mi_curve(rho, system)
