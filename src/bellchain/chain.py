"""Coupling patterns and Hamiltonian construction for odd-length chains.

The chain Hamiltonian is a sum of nearest-neighbor XX and YY bonds plus
optional single-site Z field terms:

    H = sum_i (J_X,i X_i X_{i+1} + J_Y,i Y_i Y_{i+1}) + sum_i B_i Z_i

Couplings and fields carry identical inverse-time units (hbar = 1), so
only the ratios B/J and the products J*t enter the dynamics.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .pauli import PauliString, _check_chain_length, _mask_action


class Pattern(enum.Enum):
    """Built-in coupling layouts plus an escape hatch for experiments."""

    PERFECT_TRANSFER = "perfect-transfer"
    MATRYOSHKA_ALTERNATING = "matryoshka"
    CUSTOM = "custom"


def _check_finite(name: str, *values: float) -> None:
    for value in values:
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")


def perfect_transfer_couplings(n_sites: int, lam: float) -> tuple[float, ...]:
    """Mirror-symmetric bond strengths J_i = lam * sqrt(i (N - i))."""
    _check_chain_length(n_sites)
    _check_finite("coupling scale", lam)
    if lam <= 0:
        raise ValidationError(f"coupling scale must be positive, got {lam}")
    return tuple(lam * math.sqrt(i * (n_sites - i)) for i in range(1, n_sites))


def matryoshka_couplings(n_sites: int, lam: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Alternating-zero layout: YY on odd bonds, XX on even bonds.

    Returns (J_X, J_Y).  Odd bonds keep only the YY coupling and even
    bonds only the XX coupling, each at the perfect-transfer strength,
    so the elementwise product J_X,i * J_Y,i vanishes on every bond.
    """
    base = perfect_transfer_couplings(n_sites, lam)
    j_x = tuple(0.0 if i % 2 == 1 else base[i - 1] for i in range(1, n_sites))
    j_y = tuple(base[i - 1] if i % 2 == 1 else 0.0 for i in range(1, n_sites))
    return j_x, j_y


@dataclass(frozen=True)
class ChainSpec:
    """Everything needed to build one chain Hamiltonian.

    ``fields_b`` lists the absolute Z-field strength per site, in the
    same units as the couplings; an empty tuple means no fields.  For
    the CUSTOM pattern supply explicit ``j_x`` and ``j_y`` arrays of
    length N - 1 (``lam`` is ignored there).
    """

    n_sites: int
    lam: float = 1.0
    pattern: Pattern = Pattern.MATRYOSHKA_ALTERNATING
    fields_b: tuple[float, ...] = ()
    j_x: tuple[float, ...] | None = None
    j_y: tuple[float, ...] | None = None

    def __post_init__(self):
        _check_chain_length(self.n_sites)
        _check_finite("coupling scale", self.lam)
        n = self.n_sites
        fields = tuple(float(b) for b in self.fields_b)
        _check_finite("field", *fields)
        if not fields:
            fields = (0.0,) * n
        if len(fields) != n:
            raise ValidationError(f"fields_b must have length {n}, got {len(fields)}")
        object.__setattr__(self, "fields_b", fields)
        if self.pattern is Pattern.CUSTOM:
            if self.j_x is None or self.j_y is None:
                raise ValidationError("custom pattern requires explicit j_x and j_y arrays")
            j_x = tuple(float(j) for j in self.j_x)
            j_y = tuple(float(j) for j in self.j_y)
            if len(j_x) != n - 1 or len(j_y) != n - 1:
                raise ValidationError(f"coupling arrays must have length {n - 1}")
            _check_finite("coupling", *j_x, *j_y)
            object.__setattr__(self, "j_x", j_x)
            object.__setattr__(self, "j_y", j_y)
        else:
            if self.j_x is not None or self.j_y is not None:
                raise ValidationError("built-in patterns do not accept coupling arrays")
            if self.lam <= 0:
                raise ValidationError(f"coupling scale must be positive, got {self.lam}")
        object.__setattr__(self, "lam", float(self.lam))

    def couplings(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Resolved (J_X, J_Y) arrays for this spec."""
        if self.pattern is Pattern.PERFECT_TRANSFER:
            base = perfect_transfer_couplings(self.n_sites, self.lam)
            return base, base
        if self.pattern is Pattern.MATRYOSHKA_ALTERNATING:
            return matryoshka_couplings(self.n_sites, self.lam)
        return self.j_x, self.j_y


@dataclass(frozen=True)
class HamiltonianTerms:
    """Weighted Hermitian sum of Pauli strings."""

    n_sites: int
    terms: tuple[tuple[float, PauliString], ...] = field(repr=False)

    def __post_init__(self):
        for weight, string in self.terms:
            if string.n_sites != self.n_sites:
                raise ValidationError("term length does not match the chain")
            if not string.is_hermitian:
                raise ValidationError(f"non-Hermitian term {string}")

    @functools.cached_property
    def _flip_groups(self) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
        """The terms grouped by ``x_mask``: ``(flipped axes, coefficients)``.

        On the amplitudes viewed as a ``(2,)*N`` tensor (axis ``N - s``
        holds site s), a group flips its axes and scales each amplitude
        by the summed sign and phase of its terms at the destination
        index.  That coefficient varies only along the axes in the union
        of the group's z masks and broadcasts over the rest: a scalar for
        an XX bond, four entries for a YY bond, one 2^N tensor for all Z
        fields together.  Built on first use, so Hamiltonians that are
        only diagonalised never pay for it.
        """
        n = self.n_sites
        by_flip: dict[int, list[tuple[float, PauliString]]] = {}
        for weight, string in self.terms:
            by_flip.setdefault(string.x_mask, []).append((weight, string))
        groups = []
        for x_mask, members in by_flip.items():
            z_union = 0
            for _, string in members:
                z_union |= string.z_mask
            # destination indices spanning only the bits of z_union
            rows = np.zeros((1,) * n, dtype=np.int64)
            for bit in range(n):
                if z_union >> bit & 1:
                    shape = [1] * n
                    shape[n - 1 - bit] = 2
                    rows = rows | (np.arange(2, dtype=np.int64) << bit).reshape(shape)
            coeff = np.zeros(rows.shape, dtype=complex)
            for weight, string in members:
                coeff += weight * _mask_action(string, rows ^ x_mask)[1]
            axes = tuple(n - 1 - bit for bit in range(n) if x_mask >> bit & 1)
            groups.append((axes, coeff))
        return tuple(groups)

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """H @ v on a raw amplitude array, one flip-and-scale per x_mask group."""
        tensor = amplitudes.reshape((2,) * self.n_sites)
        out = np.zeros_like(tensor)
        for axes, coeff in self._flip_groups:
            out += coeff * np.flip(tensor, axes)
        return out.reshape(amplitudes.shape)

    def dense(self) -> np.ndarray:
        """Materialize H as a 2^N x 2^N array via the mask action."""
        dim = 1 << self.n_sites
        idx = np.arange(dim, dtype=np.int64)
        mat = np.zeros((dim, dim), dtype=complex)
        for weight, string in self.terms:
            rows, values = _mask_action(string, idx)
            mat[rows, idx] += weight * values
        return mat


def _bond_string(n_sites: int, bond: int, letter: str) -> PauliString:
    letters = ["I"] * n_sites
    letters[bond - 1] = letter
    letters[bond] = letter
    return PauliString.from_letters(letters)


def build_hamiltonian(spec: ChainSpec) -> HamiltonianTerms:
    """Nonzero XX, YY and Z terms in deterministic order.

    Bonds come first in ascending order with XX before YY, then the
    field terms in ascending site order.
    """
    j_x, j_y = spec.couplings()
    terms: list[tuple[float, PauliString]] = []
    for bond in range(1, spec.n_sites):
        if j_x[bond - 1] != 0.0:
            terms.append((j_x[bond - 1], _bond_string(spec.n_sites, bond, "X")))
        if j_y[bond - 1] != 0.0:
            terms.append((j_y[bond - 1], _bond_string(spec.n_sites, bond, "Y")))
    for site in range(1, spec.n_sites + 1):
        if spec.fields_b[site - 1] != 0.0:
            terms.append((spec.fields_b[site - 1], PauliString.single(spec.n_sites, site, "Z")))
    return HamiltonianTerms(spec.n_sites, tuple(terms))


_CONFIG_KEYS = ("n_sites", "lambda", "pattern", "b_fields", "j_x", "j_y")


def save_chain_config(spec: ChainSpec, path: str) -> None:
    """Write a ChainSpec as a key = value text file (lossless)."""
    lines = [
        f"n_sites = {spec.n_sites}",
        f"lambda = {spec.lam!r}",
        f"pattern = {spec.pattern.value}",
        "b_fields = " + ", ".join(repr(b) for b in spec.fields_b),
    ]
    if spec.pattern is Pattern.CUSTOM:
        lines.append("j_x = " + ", ".join(repr(j) for j in spec.j_x))
        lines.append("j_y = " + ", ".join(repr(j) for j in spec.j_y))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_chain_config(path: str) -> ChainSpec:
    """Parse the key = value grammar written by save_chain_config."""
    raw: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    if "n_sites" not in raw:
        raise ValidationError(f"{path}: missing required key 'n_sites'")
    try:
        n_sites = int(raw["n_sites"])
        lam = float(raw.get("lambda", "1.0"))
        fields = _parse_float_list(raw.get("b_fields", ""))
        j_x = _parse_float_list(raw["j_x"]) if "j_x" in raw else None
        j_y = _parse_float_list(raw["j_y"]) if "j_y" in raw else None
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    pattern_value = raw.get("pattern", Pattern.MATRYOSHKA_ALTERNATING.value)
    try:
        pattern = Pattern(pattern_value)
    except ValueError:
        choices = ", ".join(p.value for p in Pattern)
        raise ValidationError(f"{path}: pattern must be one of {choices}") from None
    return ChainSpec(n_sites, lam, pattern, fields, j_x=j_x, j_y=j_y)


def _parse_float_list(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(float(piece) for piece in text.split(","))
