"""Bell-pair extraction, the conveyor-belt cycle, and GHZ generation."""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass, field

import numpy as np

from .chain import ChainSpec, Pattern, build_hamiltonian
from .errors import BellchainError, PairNotPureError, ValidationError
from .evolve import Propagator, _chiral_map, _protocol_time
from .matryoshka import BellLabel, _JsonRecord, bell_product_amplitudes, closest_bell
from .pauli import _MATRYOSHKA_FIDELITY_THRESHOLD, _PURITY_TOL, _TIE_TOL, _Z_SEP_TOL
from .pauli import StateVector, _check_int, _check_memory, _parity_indices, _partial_trace
from .pauli import _shown, concurrence, gate_apply, purity, reduced_density

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
# a round's record, with its JSON, text and echo line in cli.main: at most 3.6 KB (tracemalloc)
_ROUND_BYTES = 4096
# Z parity of the pair basis |00>, |01>, |10>, |11>
_PAIR_PARITY = np.array([0, 1, 1, 0])


class ChainClass(enum.Enum):
    """Classification of the internal chain after an extraction."""

    MATRYOSHKA_LIKE = "matryoshka-like"
    Z_BASIS_SEPARABLE = "z-basis-separable"


@dataclass(frozen=True)
class ExtractionResult:
    """A swapped-out boundary pair and the chain left behind.

    ``fidelity`` is the overlap of the input with the factorized
    pair (x) rest product actually used, so it is 1 up to rounding
    when the purity precondition holds and quantifies the loss under
    a forced extraction.  ``purity`` and ``concurrence`` are the
    boundary pair's, before the swap.
    """

    pair_state: np.ndarray = field(repr=False)
    chain_after: StateVector
    purity: float
    fidelity: float
    concurrence: float


def extract_pair(state: StateVector, force: bool = False) -> ExtractionResult:
    """Swap the boundary pair (1, N) out into fresh |00> sites.

    A pure boundary pair factorizes exactly, so the swap is exact
    factor replacement.  If the pair purity falls below 1 - 1e-6 the
    swap is no longer exact and a PairNotPureError is raised unless
    ``force`` is set, in which case the state is projected onto the
    dominant pair factor and the recorded fidelity drops below 1.
    """
    n = state.n_sites
    rho = reduced_density(state, (1, n))
    pair_purity = purity(rho)
    if not force and pair_purity < 1.0 - _PURITY_TOL:
        raise PairNotPureError(pair_purity, 1.0 - _PURITY_TOL)
    eigenvalues, eigenvectors = np.linalg.eigh(rho.matrix)
    pair = eigenvectors[:, -1]
    # gauge: the lowest index among the largest components is real positive,
    # so a tie such as a Bell pair's two 1/sqrt(2) entries cannot fall to rounding
    magnitudes = np.abs(pair)
    anchor = int(np.flatnonzero(magnitudes >= magnitudes.max() - _TIE_TOL)[0])
    pair = pair * (np.conj(pair[anchor]) / abs(pair[anchor]))
    # every chain term flips an even number of spins, so an evolved basis state
    # lies in one parity sector exactly.  Such a state's pair density is block
    # diagonal in the pair's parity, and its top eigenvector has the anchor's
    # parity up to rounding.  Clearing that rounding leaves the chain behind in
    # one sector too, and its next evolution skips the other.  The norm moves by
    # rounding only, unless a forced pair's top eigenvalue belongs to both parities
    even, odd = _parity_indices(n)
    if not state.amplitudes[odd].any() or not state.amplitudes[even].any():
        pair[_PAIR_PARITY != _PAIR_PARITY[anchor]] = 0.0
        pair /= np.linalg.norm(pair)
    # axes of the (2, 2^(N-2), 2) view: site N, middle block, site 1
    blocks = state.amplitudes.reshape(2, 1 << (n - 2), 2)
    projected = np.einsum("bma,ab->m", blocks, pair.reshape(2, 2).conj())
    overlap = float(np.linalg.norm(projected))
    if overlap == 0.0:
        raise BellchainError("state has no component along the dominant pair factor")
    rest = projected / overlap
    amps_after = np.zeros(1 << n, dtype=complex)
    amps_after[np.arange(1 << (n - 2)) << 1] = rest
    return ExtractionResult(pair, StateVector(amps_after), pair_purity, overlap, concurrence(rho))


def _classify_internal(inner: np.ndarray, n_inner: int) -> tuple[ChainClass, float]:
    """Class and fidelity of the non-boundary chain: its overlap with a candidate state.

    The Z-basis candidate is the basis state of the largest amplitude a;
    the nested-Bell one pairs each mirror pair's closest Bell state with
    a's central spin.
    """
    index = int(np.argmax(np.abs(inner)))
    top = float(abs(inner[index]))
    if top * top >= 1.0 - _Z_SEP_TOL:
        return ChainClass.Z_BASIS_SEPARABLE, top
    central = (n_inner + 1) // 2
    labeled = []
    for p in range(1, (n_inner - 1) // 2 + 1):
        q = n_inner - p + 1
        label, _ = closest_bell(_partial_trace(inner, n_inner, (p, q)))
        labeled.append((p, q, label))
    candidate = bell_product_amplitudes(n_inner, labeled, central, (index >> (central - 1)) & 1)
    fidelity = float(abs(np.vdot(candidate, inner)))
    if fidelity < _MATRYOSHKA_FIDELITY_THRESHOLD:
        raise BellchainError(
            f"internal chain matches neither class: best nested-Bell fidelity {fidelity:.6f}"
        )
    return ChainClass.MATRYOSHKA_LIKE, fidelity


@dataclass(frozen=True)
class ConveyorRecord(_JsonRecord):
    """One evolve-extract round of the conveyor."""

    round: int
    pair_state: np.ndarray = field(repr=False)
    label: BellLabel
    label_fidelity: float
    extraction_concurrence: float
    chain_class: ChainClass
    internal_state_fidelity: float


def conveyor_run(
    spec: ChainSpec, rounds: int, t_star: float | None = None
) -> list[ConveyorRecord]:
    """Repeat [evolve t*, extract boundary pair] from the all-down state.

    Each round records the extracted pair, its closest Bell label, the
    pre-extraction concurrence of the boundary pair, and the class of
    the remaining internal chain.  Extraction errors (an impure
    boundary under field perturbations) propagate to the caller.
    """
    if spec.pattern is not Pattern.MATRYOSHKA_ALTERNATING:
        raise ValidationError("the conveyor requires the matryoshka coupling pattern")
    rounds = _check_int("rounds", rounds)
    if rounds < 0:
        raise ValidationError("rounds must be nonnegative")
    _check_memory(_ROUND_BYTES * rounds, f"a conveyor run of {_shown(rounds)} rounds")
    t_star = _protocol_time(spec.lam, t_star)
    propagator = Propagator(build_hamiltonian(spec))
    state = StateVector.zero_state(spec.n_sites)
    records = []
    for round_index in range(1, rounds + 1):
        state = propagator.evolve(state, t_star)
        extraction = extract_pair(state)
        label, label_fidelity = closest_bell(extraction.pair_state)
        inner_dim = 1 << (spec.n_sites - 2)
        inner = extraction.chain_after.amplitudes[np.arange(inner_dim) << 1]
        chain_class, internal_fidelity = _classify_internal(inner, spec.n_sites - 2)
        records.append(
            ConveyorRecord(
                round_index,
                extraction.pair_state,
                label,
                label_fidelity,
                extraction.concurrence,
                chain_class,
                internal_fidelity,
            )
        )
        state = extraction.chain_after
    return records


@dataclass(frozen=True)
class GhzResult(_JsonRecord):
    """Chain length and phase-maximized GHZ fidelity."""

    n_sites: int
    ghz_fidelity: float
    relative_phase: float


def ghz_protocol(spec: ChainSpec, t_star: float | None = None) -> GhzResult:
    """Evolve, Hadamard the central spin, evolve again.

    The reported fidelity is max over phi of the overlap with
    (|0..0> + e^(i phi)|1..1>)/sqrt(2), which equals (|a| + |b|)/sqrt(2)
    for the final amplitudes a = <0..0|U H_c U|0..0> and
    b = <1..1|U H_c U|0..0>; the maximizing phi comes along, in (-pi, pi].

    Only the first evolution is carried out, on the even parity sector.
    The chain is real symmetric in the Z basis, so U(t) = U(t)^T and
    U(-t) = conj U(t); its chiral map W (``HamiltonianTerms._chiral_signs``)
    sends |0..0> to |1..1> and gives U(t) W = W U(-t).  With
    phi = U|0..0> and chi = H_c phi these give the two bilinear forms,
    without conjugation, a = phi^T chi and b = (W conj(phi))^T chi.
    """
    if spec.pattern is not Pattern.MATRYOSHKA_ALTERNATING:
        raise ValidationError("the GHZ protocol requires the matryoshka coupling pattern")
    t_star = _protocol_time(spec.lam, t_star)
    hamiltonian = build_hamiltonian(spec)
    phi = Propagator(hamiltonian).evolve(StateVector.zero_state(spec.n_sites), t_star)
    chi = gate_apply(phi, (spec.n_sites + 1) // 2, _HADAMARD).amplitudes
    (even, _), (odd, _) = hamiltonian._parity_sectors
    phi_even = phi.amplitudes[even]
    # einsum sums in one thread, so a and b do not follow the BLAS thread count
    a = complex(np.einsum("i,i->", phi_even, chi[even]))
    w_phi = _chiral_map(hamiltonian._chiral_signs, phi_even.conj())
    b = complex(np.einsum("i,i->", w_phi, chi[odd]))
    fidelity = min(1.0, (abs(a) + abs(b)) / np.sqrt(2.0))
    phase = cmath.phase(b * np.conj(a))
    # on the branch cut rounding picks the sign: report pi, never -pi
    if phase < _TIE_TOL - cmath.pi:
        phase = cmath.pi
    return GhzResult(spec.n_sites, float(fidelity), float(phase))
