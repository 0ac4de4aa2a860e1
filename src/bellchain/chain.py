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

from .errors import _NOT_FINITE, BellchainError, ValidationError
from .pauli import PauliString, _check_chain_length, _check_choice, _check_int, _check_memory
from .pauli import _check_real, _check_reals, _mask_action, _parity_indices, _parse_reals, _shown

# the covariance route's memory in 2N x 2N matrices of 16 bytes an entry, each the room
# of two real ones: R, O E^T and its transpose, Gamma, and the carried elimination's
# copy with the SVD's N x N factors and workspace
_MATRICES_HELD = 4


class Pattern(enum.Enum):
    """Built-in coupling layouts plus an escape hatch for experiments."""

    PERFECT_TRANSFER = "perfect-transfer"
    MATRYOSHKA_ALTERNATING = "matryoshka"
    CUSTOM = "custom"


def _covariance_need(n_sites: int) -> tuple[int, str]:
    """``_check_memory``'s ``(need, what)`` for the covariance route, the smallest, at N sites."""
    need = _MATRICES_HELD * (2 * n_sites) ** 2 * 16
    return need, f"the covariance route at {_shown(n_sites)} sites"


def perfect_transfer_couplings(n_sites: int, lam: float) -> tuple[float, ...]:
    """Mirror-symmetric bond strengths J_i = lam * sqrt(i (N - i))."""
    n_sites = _check_chain_length(n_sites)
    lam = _check_real("coupling scale", lam)
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
    same units as the couplings; an empty tuple means no fields.
    ``pattern`` is a :class:`Pattern` or its value, such as
    ``"perfect-transfer"``.  For the CUSTOM pattern supply explicit
    ``j_x`` and ``j_y`` arrays of length N - 1 (``lam`` is ignored
    there).
    """

    n_sites: int
    lam: float = 1.0
    pattern: Pattern = Pattern.MATRYOSHKA_ALTERNATING
    fields_b: tuple[float, ...] = ()
    j_x: tuple[float, ...] | None = None
    j_y: tuple[float, ...] | None = None

    def __post_init__(self):
        n = _check_chain_length(self.n_sites)
        lam = _check_real("coupling scale", self.lam)
        object.__setattr__(self, "n_sites", n)
        object.__setattr__(self, "lam", lam)
        fields = _check_reals("field", self.fields_b)
        if not fields:
            fields = (0.0,) * n
        if len(fields) != n:
            raise ValidationError(f"fields_b must have length {n}, got {len(fields)}")
        object.__setattr__(self, "fields_b", fields)
        pattern = _check_choice(Pattern, self.pattern, "coupling pattern")
        object.__setattr__(self, "pattern", pattern)
        if self.pattern is Pattern.CUSTOM:
            if self.j_x is None or self.j_y is None:
                raise ValidationError("custom pattern requires explicit j_x and j_y arrays")
            j_x = _check_reals("coupling", self.j_x)
            j_y = _check_reals("coupling", self.j_y)
            if len(j_x) != n - 1 or len(j_y) != n - 1:
                raise ValidationError(f"coupling arrays must have length {n - 1}")
            object.__setattr__(self, "j_x", j_x)
            object.__setattr__(self, "j_y", j_y)
            couplings = j_x, j_y
        else:
            if self.j_x is not None or self.j_y is not None:
                raise ValidationError("built-in patterns do not accept coupling arrays")
            if self.pattern is Pattern.PERFECT_TRANSFER:
                base = perfect_transfer_couplings(n, lam)
                couplings = base, base
            else:
                couplings = matryoshka_couplings(n, lam)
            # every bond carries its perfect-transfer strength in J_X or J_Y
            if not math.isfinite(max(map(max, couplings))):
                raise ValidationError(f"coupling scale {lam!r} overflows the largest coupling")
        # not a dataclass field: equality, hash and repr stay those of the fields
        object.__setattr__(self, "_couplings", couplings)

    def couplings(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Resolved (J_X, J_Y) arrays for this spec, resolved once at construction."""
        return self._couplings


@dataclass(frozen=True)
class HamiltonianTerms:
    """Weighted Hermitian sum of Pauli strings: every weight is a finite real."""

    n_sites: int
    terms: tuple[tuple[float, PauliString], ...] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n_sites", _check_int("n_sites", self.n_sites))
        terms = tuple((_check_real("term weight", w), string) for w, string in self.terms)
        for _, string in terms:
            if not isinstance(string, PauliString) or string.n_sites != self.n_sites:
                raise ValidationError(f"term {_shown(string)} is not a PauliString on the chain")
        object.__setattr__(self, "terms", terms)

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
            with np.errstate(over="ignore"):  # past the float range: inf, refused here
                for weight, string in members:
                    coeff += weight * _mask_action(string, rows ^ x_mask)[1]
            if not np.isfinite(coeff).all():
                raise BellchainError(_NOT_FINITE)
            axes = tuple(n - 1 - bit for bit in range(n) if x_mask >> bit & 1)
            groups.append((axes, coeff))
        return tuple(groups)

    @functools.cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """``(eigenvalues, eigenvectors)`` of ``dense()``, computed on first use and kept.

        Every exact evolution under this Hamiltonian, of states and
        operators alike, shares it.
        """
        return np.linalg.eigh(self.dense())

    @functools.cached_property
    def _parity_sectors(self) -> tuple[tuple[np.ndarray, HamiltonianTerms], ...]:
        """H on each Z-parity sector as an (N-1)-site term list: ``(indices, H_p)``.

        Every XX or YY bond flips two spins, so a chain Hamiltonian
        commutes with the total parity prod_i Z_i and splits into an even
        and an odd popcount sector of 2^(N-1) basis indices each, in that
        order; with XX, YY and Z terms each sector is also real symmetric,
        so it is diagonalised in real arithmetic.  A term list that flips
        an odd number of spins keeps one sector: every index and H itself.

        In sector p site 1's bit is p xor the parity of sites 2..N, so
        full index j sits at position j >> 1 of ``indices``, and site s of
        H_p is site s + 1 of the chain.  There a term (x, z) becomes
        (x >> 1, z'), with z' = z >> 1 and every bit of z' flipped when z
        holds site 1 (Z_1 = (-1)^p Z_2...Z_N in sector p).  Its weight is
        multiplied by i^Y(x, z) / i^Y(x >> 1, z'), Y counting the Y
        letters, and negated when z holds site 1 and p = 1: for
        Hermitian terms that factor is +-1.  Both propagators and U^dag P U
        run on these sectors; for an odd chain the eigen route
        diagonalises only the even one and maps it onto the odd one
        (``_chiral_signs``).  Built on first use.
        """
        n = self.n_sites
        if any(string.x_mask.bit_count() % 2 for _, string in self.terms):
            return ((np.arange(1 << n, dtype=np.int64), self),)
        m = n - 1
        reduced = []  # (weight, string on sites 2..N, quarter turns in sector 0, on site 1)
        for weight, string in self.terms:
            on_site_1 = string.z_mask & 1
            x, z = string.x_mask >> 1, (string.z_mask >> 1) ^ (on_site_1 * ((1 << m) - 1))
            # quarter turns of the factor: even for Hermitian terms
            turns = (string.x_mask & string.z_mask).bit_count() - (x & z).bit_count()
            reduced.append((weight, PauliString(m, x, z), turns, on_site_1))
        sectors = []
        for p, sector_idx in enumerate(_parity_indices(n)):
            terms = tuple(
                (w if (turns + 2 * (on1 & p)) % 4 == 0 else -w, s) for w, s, turns, on1 in reduced
            )
            sectors.append((sector_idx, HamiltonianTerms(m, terms)))
        return tuple(sectors)

    @functools.cached_property
    def _chiral_signs(self) -> np.ndarray | None:
        """Signs s that carry the even parity sector onto the odd one, or None.

        W = prod_s X_s prod_{s odd} Z_s anticommutes with a Pauli string
        when its Z and Y letters plus its X and Y letters on odd sites
        number an odd count: with every nearest-neighbour XX or YY bond
        and every Z field, since the chain is bipartite (Lieb, Schultz &
        Mattis, Ann. Phys. 16, 407 (1961)).  For odd N, W flips every
        spin and so swaps the two sectors of ``_parity_sectors``; in
        sector indices H_odd = -M H_even M^T, where M reverses the index
        (j -> 2^(N-1) - 1 - j) and scales position j by
        s_j = (-1)^popcount(x_j & odd sites), x_j being the full index
        at even-sector position j.  Then exp(-i H_odd t) =
        M exp(+i H_even t) M^T, and one diagonalisation serves both
        sectors.  None for an even chain, a term list that keeps one
        sector, or a term that commutes with W.  Built on first use.
        """
        n = self.n_sites
        odd = sum(1 << bit for bit in range(0, n, 2))  # sites 1, 3, 5, ...
        if n % 2 == 0 or any(
            (string.z_mask.bit_count() + (string.x_mask & odd).bit_count()) % 2 == 0
            for _, string in self.terms
        ):
            return None
        sectors = self._parity_sectors
        if len(sectors) != 2:
            return None
        return _mask_action(PauliString(n, 0, odd), sectors[0][0])[1].real.copy()

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """H @ v on a raw amplitude array, one flip-and-scale per x_mask group."""
        tensor = amplitudes.reshape((2,) * self.n_sites)
        out = np.zeros_like(tensor)
        for axes, coeff in self._flip_groups:
            out += coeff * np.flip(tensor, axes)
        return out.reshape(amplitudes.shape)

    def dense(self) -> np.ndarray:
        """Materialize H as a 2^N x 2^N array via the mask action.

        The array is float64 when every term has an even number of Y
        letters, so that each matrix element is real (every chain from
        :func:`build_hamiltonian` and both of its parity sectors), and
        complex128 otherwise.
        """
        dim = 1 << self.n_sites
        idx = np.arange(dim, dtype=np.int64)
        real = not any((string.x_mask & string.z_mask).bit_count() % 2 for _, string in self.terms)
        mat = np.zeros((dim, dim), dtype=float if real else complex)
        with np.errstate(over="ignore"):  # past the float range: inf, which evolve refuses
            for weight, string in self.terms:
                rows, values = _mask_action(string, idx)
                mat[rows, idx] += weight * (values.real if real else values)
        return mat


def _pair_string(n_sites: int, p: int, q: int, letter: str) -> PauliString:
    """XX or YY (``letter`` "X" or "Y") on sites p and q."""
    mask = 1 << (p - 1) | 1 << (q - 1)
    return PauliString(n_sites, mask, mask if letter == "Y" else 0)


def build_hamiltonian(spec: ChainSpec) -> HamiltonianTerms:
    """Nonzero XX, YY and Z terms in deterministic order.

    Bonds come first in ascending order with XX before YY, then the
    field terms in ascending site order.
    """
    n = spec.n_sites
    j_x, j_y = spec.couplings()
    terms: list[tuple[float, PauliString]] = []
    for bond in range(1, n):
        if j_x[bond - 1] != 0.0:
            terms.append((j_x[bond - 1], _pair_string(n, bond, bond + 1, "X")))
        if j_y[bond - 1] != 0.0:
            terms.append((j_y[bond - 1], _pair_string(n, bond, bond + 1, "Y")))
    for site in range(1, n + 1):
        if spec.fields_b[site - 1] != 0.0:
            terms.append((spec.fields_b[site - 1], PauliString(n, 0, 1 << (site - 1))))
    return HamiltonianTerms(n, tuple(terms))


_CONFIG_KEYS = ("n_sites", "lambda", "pattern", "b_fields", "j_x", "j_y")


def _config_fields(spec: ChainSpec) -> dict:
    """The spec under its config names, in file order: the keys of config files and JSON configs."""
    fields = {
        "n_sites": spec.n_sites,
        "lambda": spec.lam,
        "pattern": spec.pattern.value,
        "b_fields": spec.fields_b,
    }
    if spec.pattern is Pattern.CUSTOM:
        fields["j_x"] = spec.j_x
        fields["j_y"] = spec.j_y
    return fields


def save_chain_config(spec: ChainSpec, path: str) -> None:
    """Write a ChainSpec as a key = value text file (lossless)."""
    lines = [
        f"{key} = {', '.join(map(repr, value)) if isinstance(value, tuple) else value}"
        for key, value in _config_fields(spec).items()
    ]
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
        n_sites = _check_chain_length(int(raw["n_sites"]))
        _check_memory(*_covariance_need(n_sites))
        lam = float(raw.get("lambda", "1.0"))
        # an empty b_fields means no fields
        fields = _parse_reals("b_fields", raw["b_fields"]) if raw.get("b_fields") else ()
        j_x = _parse_reals("j_x", raw["j_x"]) if "j_x" in raw else None
        j_y = _parse_reals("j_y", raw["j_y"]) if "j_y" in raw else None
        pattern = raw.get("pattern", Pattern.MATRYOSHKA_ALTERNATING)
        return ChainSpec(n_sites, lam, pattern, fields, j_x=j_x, j_y=j_y)
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"{path}: {exc}") from None
