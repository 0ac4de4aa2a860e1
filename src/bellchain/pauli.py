"""Bit-indexed state vectors, Pauli strings, and reduced densities with their measures.

Conventions used throughout the package:

* Sites are 1-based.  Site ``s`` lives at bit position ``s - 1`` of the
  basis index, so site 1 is the least-significant bit.
* Human-readable bit strings list site 1 first: the string ``"110"``
  means site 1 and site 2 excited, site 3 down, i.e. basis index 3.
* A Pauli string is a tensor product of letters stored as two N-bit
  masks (X part, Z part); ``_mask_action`` is the one place its signs
  and the i of each Y are worked out.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, ValidationError

_NORM_TOL = 1e-10
_HERM_TOL = 1e-12
# magnitudes this close are equal up to rounding and count as ties
_TIE_TOL = 1e-9

# letter <-> (x bit, z bit); Y = i X Z carries both masks and an i
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}
_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
# the 2x2 matrix of each letter, for operators built as Kronecker products
_LETTER_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
_YY = np.kron(_LETTER_MATRICES["Y"], _LETTER_MATRICES["Y"])


def _mask_action(pauli: PauliString, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where a Pauli string sends basis columns ``idx``, and with what value.

    Column j of the string has one nonzero entry, at row j ^ x_mask,
    equal to i**(number of Y letters) times (-1)**popcount(j & z_mask).
    Returns ``(rows, values)`` for the int64 array ``idx``, or for one
    Python int ``idx`` of any length.
    """
    # fold the bits of idx & z_mask down to their parity, halving a window
    # that starts at the first power of two holding all n_sites bits
    parity = idx & pauli.z_mask
    shift = 1 << (pauli.n_sites - 1).bit_length()
    while shift > 1:
        shift >>= 1
        parity ^= parity >> shift
    phase = _PHASES[(pauli.x_mask & pauli.z_mask).bit_count() % 4]
    return idx ^ pauli.x_mask, phase * (1.0 - 2.0 * (parity & 1))


@dataclass(frozen=True)
class PauliString:
    """One letter of {I, X, Y, Z} per site, a Hermitian operator.

    The operator is the literal tensor product of the letters encoded in
    ``x_mask`` / ``z_mask``: bit pattern (0,0) is I, (1,0) is X, (0,1)
    is Z and (1,1) is Y.
    """

    n_sites: int
    x_mask: int
    z_mask: int

    def __post_init__(self):
        for name in ("n_sites", "x_mask", "z_mask"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name)))
        if self.n_sites < 1:
            raise ValidationError("PauliString needs at least one site")
        masks = (self.x_mask, self.z_mask)
        if min(masks) < 0 or max(masks).bit_length() > self.n_sites:
            raise ValidationError("mask exceeds the declared number of sites")

    @classmethod
    def from_letters(cls, letters: str | Sequence[str]) -> "PauliString":
        """Build from a site-ordered letter sequence, e.g. ``"YYI"``."""
        x_mask = z_mask = 0
        for pos, letter in enumerate(letters):
            try:
                xb, zb = _LETTER_BITS[letter.upper()]
            except (KeyError, AttributeError):  # AttributeError: not a string
                raise ValidationError(f"unknown Pauli letter {_shown(letter)}") from None
            x_mask |= xb << pos
            z_mask |= zb << pos
        return cls(len(letters), x_mask, z_mask)

    @classmethod
    def single(cls, n_sites: int, site: int, letter: str) -> "PauliString":
        """A single non-identity letter on one site of an N-site chain."""
        site = _check_site(site, _check_int("n_sites", n_sites))
        one = cls.from_letters([letter])
        return cls(n_sites, one.x_mask << (site - 1), one.z_mask << (site - 1))

    @property
    def letters(self) -> str:
        return "".join(
            _BITS_LETTER[((self.x_mask >> p) & 1, (self.z_mask >> p) & 1)]
            for p in range(self.n_sites)
        )

    def dense(self) -> np.ndarray:
        """Materialize as a 2^N x 2^N matrix via the mask action."""
        dim = 1 << self.n_sites
        idx = np.arange(dim, dtype=np.int64)
        rows, values = _mask_action(self, idx)
        mat = np.zeros((dim, dim), dtype=complex)
        mat[rows, idx] = values
        return mat


class StateVector:
    """A unit-norm vector of 2^N amplitudes over an odd-length chain.

    Basis index encodes site k at bit position k - 1.  The amplitude
    array is held read-only; all operations return new instances.
    """

    __slots__ = ("n_sites", "_amps")

    def __init__(self, amplitudes: Iterable[complex], *, normalize: bool = False):
        amps = _complex_array(amplitudes, "amplitudes").ravel()
        n = max(amps.size.bit_length(), 1) - 1
        if amps.size != (1 << n):
            raise ValidationError(f"amplitude count {amps.size} is not a power of two")
        _check_chain_length(n)
        norm = _norm(amps)
        if not np.isfinite(norm):
            raise ValidationError(f"state norm {norm!r} is not finite")
        if normalize:
            if norm == 0.0:
                raise ValidationError("cannot normalize the zero vector")
            amps = amps / norm
        elif abs(norm - 1.0) > _NORM_TOL:
            raise ValidationError(f"state norm {norm!r} deviates from 1 beyond {_NORM_TOL}")
        amps.setflags(write=False)
        self.n_sites = n
        self._amps = amps

    @classmethod
    def _trusted(cls, n_sites: int, amps: np.ndarray) -> "StateVector":
        """Wrap amplitudes known to be a unit-norm N-site state, unchecked."""
        out = cls.__new__(cls)
        amps.setflags(write=False)
        out.n_sites = n_sites
        out._amps = amps
        return out

    @classmethod
    def zero_state(cls, n_sites: int) -> "StateVector":
        """|00..0> on an N-site chain."""
        n_sites = _check_chain_length(n_sites)
        amps = np.zeros(1 << n_sites, dtype=complex)
        amps[0] = 1.0
        return cls._trusted(n_sites, amps)

    @classmethod
    def from_bits(cls, bits: str) -> "StateVector":
        """Z-basis product state from a site-ordered bit string."""
        index = 0
        for pos, b in enumerate(bits):
            if b not in "01":
                raise ValidationError(f"bit string must be over 0/1, got {bits!r}")
            index |= (b == "1") << pos
        amps = np.zeros(1 << len(bits), dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amps

    @property
    def dim(self) -> int:
        return self._amps.size

    def inner(self, other: "StateVector") -> complex:
        """<self|other>."""
        if other.n_sites != self.n_sites:
            raise DimensionMismatchError("states live on different chain lengths")
        return complex(np.vdot(self._amps, other._amps))

    def dominant_components(self, tol: float = 1e-12) -> list[tuple[str, complex]]:
        """Basis components with |amplitude| > tol, largest first.

        A magnitude within 1e-9 of the next larger one ties with it, and
        ties are broken by basis index, so rounding noise cannot reorder
        components of equal weight.
        """
        tol = _check_real("tol", tol)
        mags = np.abs(self._amps)
        kept = np.flatnonzero(mags > tol)
        kept = kept[np.argsort(-mags[kept], kind="stable")]
        ranked = mags[kept]
        # a new tie class starts wherever the magnitude drops by more than _TIE_TOL
        tie_class = np.cumsum(np.diff(ranked, prepend=ranked[:1]) < -_TIE_TOL)
        order = kept[np.lexsort((kept, tie_class))]
        return list(zip(_bit_labels(order, self.n_sites), self._amps[order].tolist()))

    def __repr__(self) -> str:
        return f"StateVector(n_sites={self.n_sites})"


def bit_label(index: int, n_sites: int) -> str:
    """Site-ordered bit string for a basis index (site 1 first)."""
    index, n_sites = _check_int("basis index", index), _check_int("n_sites", n_sites)
    if index < 0 or index.bit_length() > n_sites:
        raise ValidationError(f"{_shown(index)} is not a basis index of {_shown(n_sites)} sites")
    _check_memory(16 * n_sites, f"a label of {_shown(n_sites)} sites")
    # an object array holds a Python int of any length
    return _bit_labels(np.array([index], dtype=object), n_sites)[0]


def _bit_labels(indices: np.ndarray, n_sites: int) -> list[str]:
    """:func:`bit_label` of every entry of ``indices``, from one numpy pass over their bits."""
    bits = (indices[:, None] >> np.arange(n_sites)) & 1
    text = (bits.astype(np.uint8) + ord("0")).tobytes().decode("ascii")
    return [text[k * n_sites : (k + 1) * n_sites] for k in range(indices.size)]


def _parity_indices(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices of even and of odd Z parity (popcount) on N sites, each ascending."""
    idx = np.arange(1 << n_sites, dtype=np.int64)
    _, parity = _mask_action(PauliString(n_sites, 0, (1 << n_sites) - 1), idx)
    return idx[parity.real > 0], idx[parity.real < 0]


def _complex_array(values, name: str) -> np.ndarray:
    """A new complex array of ``values``, which must all be numbers (not strings)."""
    try:
        if np.asarray(values).dtype.kind in "SU":  # numpy would parse "0.5" as a number
            raise TypeError
        return np.array(values, dtype=complex)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past the floats
        raise ValidationError(f"{name} must be numbers within the float range") from None


def _norm(values: np.ndarray) -> float:
    """The 2-norm of an array: inf, without a numpy warning, when it passes the float range."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(values))


def _check_memory(need: int, what: str) -> None:
    """Refuse, before its allocation, a ``need`` of bytes past the host's physical memory."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ValidationError(
            f"{what} needs more than the {_shown(have)} bytes of physical memory ({_shown(need)})"
        )


def _shown(value) -> str:
    """``repr(value)`` for an error message, cut to 60 characters."""
    try:
        text = repr(value)
    except ValueError:  # an int past Python's 4300-digit limit for str()
        return f"an int of {value.bit_length()} bits"
    return text if len(text) <= 60 else text[:57] + "..."


def _check_int(name: str, value) -> int:
    """``value`` as a plain int; it must be an integer (numpy integers included)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {_shown(value)}") from None


def _check_real(name: str, value) -> float:
    """``value`` as a float; it must be a finite real number (numpy scalars included)."""
    try:  # float first: it matches at once, where the numbers.Real check is slow
        if isinstance(value, (float, numbers.Real)) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int beyond the float range
        pass
    raise ValidationError(f"{name} must be finite and real, got {_shown(value)}")


def _check_choice(kind: type[enum.Enum], value, name: str) -> enum.Enum:
    """``value`` as a member of the enum ``kind``: the member itself or its value."""
    try:
        return kind(value)
    except ValueError:
        raise ValidationError(f"unknown {name} {_shown(value)}") from None


def _check_reals(name: str, values) -> tuple[float, ...]:
    """``values`` as a tuple of floats, each checked by :func:`_check_real`."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValidationError(f"{name} must be a sequence of reals, got {_shown(values)}") from None
    return tuple(_check_real(name, v) for v in values)


def _parse_reals(name: str, text: str) -> tuple[float, ...]:
    """The floats of a comma-separated list such as ``"0,0.05,0.1"``."""
    try:
        return tuple(float(piece) for piece in text.split(","))
    except ValueError:
        raise ValidationError(f"cannot parse {name} list {text!r}") from None


def _check_chain_length(n_sites: int) -> int:
    n_sites = _check_int("chain length", n_sites)
    if n_sites < 3 or n_sites % 2 == 0:
        raise ValidationError(f"chain length must be odd and >= 3, got {n_sites}")
    return n_sites


def _check_site(site: int, n_sites: float) -> int:
    """The site as a plain int, checked to be an integer in 1..n_sites."""
    site = _check_int("site", site)
    if not 1 <= site <= n_sites:
        raise ValidationError(f"site {site} outside chain 1..{n_sites}")
    return site


def _check_sites(sites: Sequence[int], n_sites: float = math.inf) -> tuple[int, ...]:
    """1 or 2 distinct sites, each an integer in 1..n_sites, as a tuple of ints."""
    sites = tuple(_check_site(s, n_sites) for s in sites)
    if len(sites) not in (1, 2):
        raise ValidationError(f"a reduced density has 1 or 2 sites, got {len(sites)}")
    if len(set(sites)) != len(sites):
        raise ValidationError(f"duplicate sites in {sites}")
    return sites


def gate_apply(state: StateVector, site: int, gate: np.ndarray) -> StateVector:
    """Apply a single-qubit unitary to one site's tensor factor."""
    site = _check_site(site, state.n_sites)
    gate = _complex_array(gate, "gate")
    if gate.shape != (2, 2):
        raise ValidationError(f"gate must be 2x2, got {gate.shape}")
    if not np.isfinite(gate).all():
        raise ValidationError("gate entries must be finite")
    # a unitary's entries lie within 1; past that, G^dag G could leave the float range
    too_large = np.abs(gate).max() > 1.0 + _HERM_TOL
    if too_large or np.max(np.abs(gate.conj().T @ gate - np.eye(2))) > _HERM_TOL:
        raise ValidationError("gate is not unitary within 1e-12")
    lower = 1 << (site - 1)
    upper = state.dim // (2 * lower)
    block = state.amplitudes.reshape(upper, 2, lower)
    new = np.einsum("ab,ibj->iaj", gate, block).reshape(state.dim)
    return StateVector._trusted(state.n_sites, new)


@dataclass(frozen=True)
class DensityMatrix:
    """Reduced density matrix on an ordered list of 1 or 2 sites.

    Row index orders the listed sites most-significant first, so for
    sites (p, q) the basis runs |0_p 0_q>, |0_p 1_q>, |1_p 0_q>, |1_p 1_q>.
    """

    sites: tuple[int, ...]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "sites", _check_sites(self.sites))
        mat = _complex_array(self.matrix, "density matrix")
        dim = 1 << len(self.sites)
        if mat.shape != (dim, dim):
            raise ValidationError(f"matrix shape {mat.shape} does not fit sites {self.sites}")
        _check_density(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _trusted(cls, sites: tuple[int, ...], matrix: np.ndarray) -> "DensityMatrix":
        """Wrap the reduced density of a valid state, unchecked.

        Its trace is the state's squared norm, which may deviate from 1 by
        about 2e-10: more than an outside matrix is allowed.
        """
        out = cls.__new__(cls)
        matrix.setflags(write=False)
        object.__setattr__(out, "sites", sites)
        object.__setattr__(out, "matrix", matrix)
        return out


def _check_density(matrix: np.ndarray) -> np.ndarray:
    """Complex array of a density matrix: square, Hermitian, unit trace, PSD.

    Each property must hold within 1e-12.
    """
    mat = _complex_array(matrix, "density matrix")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
        raise ValidationError(
            f"density matrix must be square and non-empty, got shape {mat.shape}"
        )
    if not np.isfinite(mat).all():
        raise ValidationError("density matrix has a non-finite entry")
    # entries near the float range give inf, or nan, which fail the checks below
    with np.errstate(over="ignore", invalid="ignore"):
        asymmetry = np.max(np.abs(mat - mat.conj().T))
        trace = complex(np.trace(mat))
    if asymmetry > _HERM_TOL:
        raise ValidationError("density matrix is not Hermitian within 1e-12")
    if not abs(trace - 1.0) <= _HERM_TOL:
        raise ValidationError(f"density matrix trace {trace} deviates from 1 beyond 1e-12")
    if np.min(np.linalg.eigvalsh(mat)) < -_HERM_TOL:
        raise ValidationError("density matrix has an eigenvalue below -1e-12")
    return mat


def _density_array(rho: DensityMatrix | np.ndarray, dim: int | None = None) -> np.ndarray:
    mat = rho.matrix if isinstance(rho, DensityMatrix) else _check_density(rho)
    if dim is not None and mat.shape != (dim, dim):
        raise ValidationError(f"expected a {dim}x{dim} density matrix, got {mat.shape}")
    return mat


def purity(rho: DensityMatrix | np.ndarray) -> float:
    """tr(rho^2): 1 for pure states, 1/2^k for maximally mixed ones.

    Rounding above 1 is clipped to 1.
    """
    mat = _density_array(rho)
    return min(1.0, float(np.real(np.trace(mat @ mat))))


def concurrence(rho: DensityMatrix | np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    C = max(0, l1 - l2 - l3 - l4) over Wootters' l_i, sorted descending.
    Writing rho = W W^dagger, with W the eigenvectors of rho scaled by
    the roots of their eigenvalues (rounding below 0 clipped to 0), the
    l_i are the singular values of W^T (Y x Y) W (Wootters, PRL 80, 2245
    (1998)).  Singular values are perfectly conditioned, so no eigenvalue
    needs a cutoff.  Rounding above 1 is clipped to 1.
    """
    weights, vectors = np.linalg.eigh(_density_array(rho, dim=4))
    root = vectors * np.sqrt(np.clip(weights, 0.0, None))
    lam = np.linalg.svd(root.T @ _YY @ root, compute_uv=False)
    return float(np.clip(lam[0] - lam[1] - lam[2] - lam[3], 0.0, 1.0))


def reduced_density(state: StateVector, sites: Sequence[int]) -> DensityMatrix:
    """Partial trace down to 1 or 2 sites of a pure chain state."""
    sites = _check_sites(sites, state.n_sites)
    return DensityMatrix._trusted(sites, _partial_trace(state.amplitudes, state.n_sites, sites))


def _partial_trace(amps: np.ndarray, n_sites: int, sites: Sequence[int]) -> np.ndarray:
    """Reduced density of a raw amplitude array (no wrapping, no checks).

    Works on any chain length, including the single inner site left
    when a conveyor round extracts the boundary pair of N = 3.
    """
    tensor = amps.reshape((2,) * n_sites)
    # axis n - s holds site s; listed sites become the leading axes
    kept = [n_sites - s for s in sites]
    rest = [a for a in range(n_sites) if a not in kept]
    mat = np.transpose(tensor, kept + rest).reshape(1 << len(sites), -1)
    return mat @ mat.conj().T
