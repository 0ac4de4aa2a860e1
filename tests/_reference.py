"""Dense reference routes that the tests compare the library against.

Everything in this module is plain dense linear algebra: each Pauli
string is one Kronecker product of its letters, evolution goes through
scipy's Pade ``expm``, reduced states come from explicit reshapes, and
expectations from literal traces.  Hamiltonians are built from plain
numbers: a built-in pattern's coupling formula, a spec's ``j_x``,
``j_y`` and ``fields_b``, or (weight, letters) pairs.  The module shares
no code with the package and imports nothing from it, so a common-mode
bug in the library's couplings, Hamiltonian assembly, bitmask, eigen or
Krylov routes cannot hide here.  The Majorana mirror of the
matryoshka chain at t* is closed form, a signed permutation written
down from the site numbers.  The Majorana word of any Pauli string is
found from its masks by bit operations, and the generator A of a
Hamiltonian from the words of its terms, for the library's closed-form
words and tridiagonal block to be checked against at any length.
Concurrences come from their closed forms for X-states and pure states,
not from Wootters' general formula that the library uses.  Tests call
these routes live.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from scipy.linalg import expm

T_STAR = math.pi / 4.0

_GATES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "H": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0),
}

_SQRT_HALF = 1.0 / math.sqrt(2.0)
# amplitude of each Bell state on (bit_p, bit_q), p the first listed site
_BELL_AMPS = {
    "psi+": {(0, 1): _SQRT_HALF, (1, 0): _SQRT_HALF},
    "psi-": {(0, 1): _SQRT_HALF, (1, 0): -_SQRT_HALF},
    "phi+": {(0, 0): _SQRT_HALF, (1, 1): _SQRT_HALF},
    "phi-": {(0, 0): _SQRT_HALF, (1, 1): -_SQRT_HALF},
}
# magnitudes this close tie when choosing a pair's phase anchor
_ANCHOR_TIE = 1e-9

REFERENCE_RATIOS = (7.8 / 270.0, 19.6 / 270.0, 12.6 / 270.0)


def letters_dense(letters: str) -> np.ndarray:
    """The operator with letter s on site s, one Kronecker product (site 1 = LSB).

    Letters are I, X, Y, Z or H (the Hadamard gate), site 1 first.
    """
    factors = [_GATES[letter] for letter in reversed(letters)]
    return functools.reduce(np.kron, factors, np.ones((1, 1), dtype=complex))


def letters_at(n: int, letters: dict[int, str]) -> str:
    """The n-letter word with ``letters[site]`` on each listed site and I elsewhere."""
    return "".join(letters.get(site, "I") for site in range(1, n + 1))


def terms_hamiltonian(n: int, terms) -> np.ndarray:
    """Sum of weight * letters over the (weight, letters) pairs of an n-site operator."""
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for weight, letters in terms:
        h += weight * letters_dense(letters)
    return h


def couplings(n: int, lam: float = 1.0, pattern: str = "matryoshka") -> tuple[list, list]:
    """(J_X, J_Y) of a built-in pattern, from J_i = lam sqrt(i (N - i)).

    Perfect transfer puts J_i on both letters of bond i; the matryoshka
    pattern keeps only YY on odd bonds and only XX on even bonds.
    """
    j = [lam * math.sqrt(bond * (n - bond)) for bond in range(1, n)]
    if pattern == "perfect-transfer":
        return j, j
    if pattern != "matryoshka":
        raise ValueError(f"no coupling formula for pattern {pattern!r}")
    j_x = [0.0 if bond % 2 == 1 else j[bond - 1] for bond in range(1, n)]
    j_y = [j[bond - 1] if bond % 2 == 1 else 0.0 for bond in range(1, n)]
    return j_x, j_y


def chain_terms(j_x, j_y, fields=()) -> list[tuple[float, str]]:
    """The nonzero (weight, letters) terms of the chain with bonds J_X, J_Y and Z fields B."""
    n = len(j_x) + 1
    terms = []
    for bond in range(1, n):
        for letter, j in (("X", j_x[bond - 1]), ("Y", j_y[bond - 1])):
            if j != 0.0:
                terms.append((j, letters_at(n, {bond: letter, bond + 1: letter})))
    for site, b in enumerate(fields, start=1):
        if b != 0.0:
            terms.append((b, letters_at(n, {site: "Z"})))
    return terms


def chain_hamiltonian(j_x, j_y, fields=()) -> np.ndarray:
    """sum_i (J_X,i X_i X_i+1 + J_Y,i Y_i Y_i+1) + sum_i B_i Z_i from the plain numbers."""
    return terms_hamiltonian(len(j_x) + 1, chain_terms(j_x, j_y, fields))


def spec_hamiltonian(spec) -> np.ndarray:
    """H of a ``ChainSpec`` from its numbers: the pattern's formula or its custom J arrays."""
    pattern = spec.pattern.value
    if pattern == "custom":
        j_x, j_y = spec.j_x, spec.j_y
    else:
        j_x, j_y = couplings(spec.n_sites, spec.lam, pattern)
    return chain_hamiltonian(j_x, j_y, spec.fields_b)


@functools.cache
def t_star_unitary(n: int) -> np.ndarray:
    """exp(-i H t*) of the field-free matryoshka chain at lam = 1, built once per length."""
    u = expm(-1j * T_STAR * chain_hamiltonian(*couplings(n)))
    u.setflags(write=False)
    return u


def krawtchouk_mirror(n: int) -> np.ndarray:
    """R = e^(A t*) of the field-free matryoshka chain, as a signed permutation.

    Majorana 2s-2 is X on site s and 2s-1 is Y, each with Z on every
    site below.  A YY bond on odd bond i joins the X Majorana of site i
    to the Y Majorana of site i+1, and an XX bond on even bond i the Y
    Majorana of site i to the X Majorana of site i+1, so the bonds form
    one path X_1, Y_2, X_3, ..., X_N with the Krawtchouk couplings
    sqrt(i (N - i)), and the other N Majoranas have no term.  At t* the
    path is mirrored, times (-1)^((N-1)/2) (Christandl et al., PRL 92,
    187902 (2004)); the other N stay put.
    """
    path = [2 * s - 2 if s % 2 else 2 * s - 1 for s in range(1, n + 1)]
    r = np.eye(2 * n)
    r[path, path] = 0.0
    r[path, path[::-1]] = (-1.0) ** ((n - 1) // 2)
    return r


def product_covariance(n: int, initial: str) -> np.ndarray:
    """Gamma_kl = i <c_k c_l> of |0...0> or |1...1>: X_s Y_s = i Z_s gives -<Z_s>."""
    gamma = np.zeros((2 * n, 2 * n))
    z = 1.0 if initial == "all0" else -1.0
    for s in range(1, n + 1):
        gamma[2 * s - 2, 2 * s - 1], gamma[2 * s - 1, 2 * s - 2] = -z, z
    return gamma


def majorana_dense(n: int, k: int) -> np.ndarray:
    """c_k from its letters: Z below site k // 2 + 1, X (k even) or Y (k odd) on it."""
    site = k // 2 + 1
    return letters_dense("Z" * (site - 1) + "XY"[k % 2] + "I" * (n - site))


def majorana_word(n: int, x_mask: int, z_mask: int) -> tuple[tuple[int, ...], complex]:
    """``(k, phase)`` with the string of masks (x, z) = phase * c_k[0] c_k[1] ..., k ascending.

    With a_j and b_j marking c_(2j-1) and c_(2j) in the word, the
    string's masks are x_j = a_j + b_j and z_j = b_j + x_(j+1) + ... +
    x_N over GF(2), so b is z plus the parities of x above each site, a
    scan of log2(N) shifts of the mask.  Applied to |0...0> from the
    last Majorana down, each c_k finds every site below its own still
    0, so the product sends |0...0> to i^(number of b) |x>; the string
    sends it to i^(number of Y) |x>, and the phase is their ratio.
    """
    above = x_mask >> 1
    shift = 1
    while shift < n:
        above ^= above >> shift
        shift <<= 1
    b = z_mask ^ above
    a = x_mask ^ b
    size = (n + 7) // 8
    masks = np.frombuffer(a.to_bytes(size, "little") + b.to_bytes(size, "little"), np.uint8)
    # rows a and b of the bits, read column by column: c_(2j-1) before c_(2j)
    word = np.flatnonzero(np.unpackbits(masks, bitorder="little").reshape(2, -1).T)
    phase = 1j ** ((bin(x_mask & z_mask).count("1") - bin(b).count("1")) % 4)
    return tuple(word.tolist()), phase


def letters_masks(letters: str) -> tuple[int, int]:
    """(x_mask, z_mask) of a word of I, X, Y and Z letters, site 1 the least significant bit."""
    x = sum(1 << site for site, letter in enumerate(letters) if letter in "XY")
    z = sum(1 << site for site, letter in enumerate(letters) if letter in "YZ")
    return x, z


def terms_generator(n: int, terms) -> np.ndarray:
    """The real antisymmetric A with H = (i/4) sum_kl A_kl c_k c_l, H the (weight, letters) terms.

    A term w P with P = phase * c_a c_b (a < b) contributes A_ab =
    -A_ba = -2i w phase.  Raises ValueError for a term that is not a
    product of two Majoranas.
    """
    a = np.zeros((2 * n, 2 * n))
    for weight, letters in terms:
        word, phase = majorana_word(n, *letters_masks(letters))
        if len(word) != 2:
            raise ValueError(f"term {letters} is {len(word)} Majoranas: not a free-fermion model")
        k, l = word
        entry = (-2j * weight * phase).real
        a[k, l] += entry
        a[l, k] -= entry
    return a


def covariance_ref(vec: np.ndarray, n: int) -> np.ndarray:
    """Gamma_kl = i <c_k c_l> (k != l) of a state vector: <c_k c_l> = (c_k v)^dagger (c_l v)."""
    applied = [majorana_dense(n, k) @ vec for k in range(2 * n)]
    gamma = np.zeros((2 * n, 2 * n))
    for k in range(2 * n):
        for l in range(2 * n):
            if k != l:
                gamma[k, l] = (1j * np.vdot(applied[k], applied[l])).real
    return gamma


def evolve_dense(h: np.ndarray, vec: np.ndarray, t: float) -> np.ndarray:
    return expm(-1j * t * h) @ vec


def closed_form_three_site_unitary(t: float, lam: float = 1.0) -> np.ndarray:
    """Exact N=3 propagator for the matryoshka pattern.

    With A = Y1 Y2 and B = X2 X3 the Hamiltonian is sqrt(2) lam (A + B)
    where A and B square to one and anticommute, so H^2 = 4 lam^2 and

        U(t) = cos(2 lam t) - i sin(2 lam t) (A + B) / sqrt(2).
    """
    a = letters_dense("YYI")
    b = letters_dense("IXX")
    angle = 2.0 * lam * t
    return np.cos(angle) * np.eye(8, dtype=complex) - 1j * np.sin(angle) * (a + b) / np.sqrt(2.0)


def closed_form_three_site_all0(t: float, lam: float = 1.0) -> np.ndarray:
    """Closed-form evolution of |000> on the three-site chain."""
    return closed_form_three_site_unitary(t, lam) @ basis_vec(3, 0)


def exhaustive_pauli_decompose(matrix: np.ndarray) -> list[tuple[complex, str]]:
    """Coefficients tr(P M)/2^N over every Pauli string, via dense traces.

    Returns (coefficient, letters) for the strings with |coefficient|
    above 1e-12, largest first with letter order breaking ties.  Stops
    at 5 sites (4^5 traces).
    """
    dim = matrix.shape[0]
    n = int(dim).bit_length() - 1
    if dim != (1 << n) or matrix.shape != (dim, dim):
        raise ValueError(f"operator shape {matrix.shape} is not 2^N x 2^N")
    if n > 5:
        raise ValueError(f"exhaustive decomposition stops at 5 sites, got {n}")
    out = []
    for word in itertools.product("IXYZ", repeat=n):
        letters = "".join(word)
        coefficient = complex(np.trace(letters_dense(letters) @ matrix) / dim)
        if abs(coefficient) > 1e-12:
            out.append((coefficient, letters))
    out.sort(key=lambda item: (-abs(item[0]), item[1]))
    return out


def basis_vec(n: int, index: int) -> np.ndarray:
    v = np.zeros(1 << n, dtype=complex)
    v[index] = 1.0
    return v


def rdm(vec: np.ndarray, n: int, sites: tuple[int, ...]) -> np.ndarray:
    """Reduced density matrix; the first listed site is the MSB."""
    tensor = vec.reshape([2] * n)
    keep = [n - s for s in sites]
    rest = [a for a in range(n) if a not in keep]
    moved = np.transpose(tensor, keep + rest).reshape(1 << len(sites), -1)
    return moved @ moved.conj().T


def x_state_concurrence(rho: np.ndarray) -> float:
    """Concurrence of a two-qubit X-state in closed form (Yu & Eberly, QIC 7, 459 (2007)).

    An X-state is block-diagonal in the pair's Z parity, as the pair
    density of any state of definite parity is; its parity-odd entries
    must be exactly 0.  C = 2 max(0, |rho03| - sqrt(rho11 rho22),
    |rho12| - sqrt(rho00 rho33)); a product of diagonal entries that
    rounds below 0 counts as 0.
    """
    for a, b in itertools.product(range(4), repeat=2):
        if bin(a ^ b).count("1") % 2:
            assert rho[a, b] == 0, f"rho[{a}, {b}] = {rho[a, b]} is not 0: not an X-state"
    d = rho.diagonal().real
    return 2.0 * max(
        0.0,
        abs(rho[0, 3]) - math.sqrt(max(0.0, d[1] * d[2])),
        abs(rho[1, 2]) - math.sqrt(max(0.0, d[0] * d[3])),
    )


def pure_concurrence(psi: np.ndarray) -> float:
    """Concurrence 2|ad - bc| of the two-qubit pure state a|00> + b|01> + c|10> + d|11>."""
    a, b, c, d = psi
    return 2.0 * abs(a * d - b * c)


def bell_vec(label: str) -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    for (bp, bq), amp in _BELL_AMPS[label].items():
        v[(bp << 1) | bq] = amp
    return v


def closest_bell_ref(pair) -> tuple[str, float]:
    pair = np.asarray(pair, dtype=complex)
    best_label, best_fid = None, -1.0
    for label in ("psi+", "psi-", "phi+", "phi-"):
        b = bell_vec(label)
        if pair.ndim == 1:
            fid = abs(np.vdot(b, pair))
        else:
            fid = math.sqrt(max(0.0, float(np.real(b.conj() @ pair @ b))))
        if fid > best_fid + 1e-12:
            best_label, best_fid = label, fid
    return best_label, float(best_fid)


def nested_amplitudes(n, labeled, central_site, central_value) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=complex)
    for idx in range(1 << n):
        bits = [(idx >> (s - 1)) & 1 for s in range(1, n + 1)]
        if bits[central_site - 1] != central_value:
            continue
        amp = 1.0
        for p, q, label in labeled:
            amp *= _BELL_AMPS[label].get((bits[p - 1], bits[q - 1]), 0.0)
            if amp == 0.0:
                break
        amps[idx] = amp
    return amps


def extract_ref(vec: np.ndarray, n: int):
    """Boundary-pair swap-out, mirrored index by index.

    The pair's phase is fixed as documented for the library: the lowest
    index whose magnitude is within 1e-9 of the largest is real positive,
    so a Bell pair's two equal entries cannot swap roles by rounding.
    """
    rho = rdm(vec, n, (1, n))
    pair_purity = float(np.real(np.trace(rho @ rho)))
    _, eigenvectors = np.linalg.eigh(rho)
    pair = eigenvectors[:, -1]
    magnitudes = np.abs(pair)
    anchor = min(k for k in range(4) if magnitudes[k] >= magnitudes.max() - _ANCHOR_TIE)
    pair = pair * (np.conj(pair[anchor]) / abs(pair[anchor]))
    inner = np.zeros(1 << (n - 2), dtype=complex)
    for m in range(1 << (n - 2)):
        acc = 0.0j
        for b1 in range(2):
            for bn in range(2):
                full = b1 | (m << 1) | (bn << (n - 1))
                acc += np.conj(pair[(b1 << 1) | bn]) * vec[full]
        inner[m] = acc
    overlap = float(np.linalg.norm(inner))
    inner = inner / overlap
    after = np.zeros(1 << n, dtype=complex)
    after[np.arange(1 << (n - 2)) << 1] = inner
    return pair, after, inner, pair_purity, overlap


def classify_ref(inner: np.ndarray, n_inner: int) -> tuple[str, float]:
    polarizations = []
    pure = True
    for s in range(1, n_inner + 1):
        r = rdm(inner, n_inner, (s,))
        polarizations.append(float(np.real(r[0, 0] - r[1, 1])))
        if float(np.real(np.trace(r @ r))) < 1.0 - 1e-8:
            pure = False
    if pure and all(abs(z) >= 1.0 - 1e-6 for z in polarizations):
        index = sum((z < 0) << (s - 1) for s, z in enumerate(polarizations, start=1))
        return "z-basis-separable", float(abs(inner[index]))
    central = (n_inner + 1) // 2
    central_value = 0 if polarizations[central - 1] > 0 else 1
    labeled = []
    for p in range(1, (n_inner - 1) // 2 + 1):
        q = n_inner - p + 1
        labeled.append((p, q, closest_bell_ref(rdm(inner, n_inner, (p, q)))[0]))
    candidate = nested_amplitudes(n_inner, labeled, central, central_value)
    return "matryoshka-like", float(abs(np.vdot(candidate, inner)))


def schedule_case_ref(n: int, start_index: int) -> dict:
    """Labels, central value, and nested fidelity read off the evolved state."""
    state = t_star_unitary(n) @ basis_vec(n, start_index)
    central = (n + 1) // 2
    central_rho = rdm(state, n, (central,))
    central_value = 0 if float(np.real(central_rho[0, 0] - central_rho[1, 1])) > 0 else 1
    labeled = []
    for p in range(1, (n - 1) // 2 + 1):
        q = n - p + 1
        label, _ = closest_bell_ref(rdm(state, n, (p, q)))
        labeled.append((p, q, label))
    candidate = nested_amplitudes(n, labeled, central, central_value)
    return {
        "pairs": labeled,
        "central_value": central_value,
        "fidelity": float(abs(np.vdot(candidate, state))),
    }


def conveyor_ref(n: int, rounds: int) -> list[dict]:
    """Evolve-extract rounds of the field-free chain at lam = 1."""
    u = t_star_unitary(n)
    state = basis_vec(n, 0)
    records = []
    for round_index in range(1, rounds + 1):
        state = u @ state
        boundary_concurrence = x_state_concurrence(rdm(state, n, (1, n)))
        pair, after, inner, _, _ = extract_ref(state, n)
        label, label_fidelity = closest_bell_ref(pair)
        chain_class, internal_fidelity = classify_ref(inner, n - 2)
        records.append(
            {
                "round": round_index,
                "pair_state": pair,
                "label": label,
                "label_fidelity": label_fidelity,
                "boundary_concurrence": boundary_concurrence,
                "chain_class": chain_class,
                "internal_fidelity": internal_fidelity,
            }
        )
        state = after
    return records


def ghz_state_ref(n: int, fields=None) -> np.ndarray:
    """Evolve, Hadamard the central site, evolve again; lam = 1.  The final state."""
    if fields is None:
        u = t_star_unitary(n)
    else:
        u = expm(-1j * T_STAR * chain_hamiltonian(*couplings(n), fields))
    hadamard = letters_dense(letters_at(n, {(n + 1) // 2: "H"}))
    return u @ (hadamard @ (u @ basis_vec(n, 0)))


def ghz_ref(n: int, fields=None) -> dict:
    """Fidelity and branch phase factor of :func:`ghz_state_ref`'s final state."""
    state = ghz_state_ref(n, fields)
    a = complex(state[0])
    b = complex(state[-1])
    fidelity = (abs(a) + abs(b)) / math.sqrt(2.0)
    cross = b * np.conj(a)
    factor = cross / abs(cross) if abs(cross) > 1e-300 else 1.0 + 0.0j
    return {"fidelity": float(fidelity), "phase_factor": complex(factor)}


def sweep_minima_ref(grid: int = 21, b3_ratios=(0.0, 0.05, 0.1)) -> dict:
    n = 3
    j_edge = math.sqrt(2.0)
    reference = t_star_unitary(n) @ basis_vec(n, 0)
    axis = np.linspace(0.0, 0.1, grid)
    minima = {}
    for b3 in b3_ratios:
        worst = 1.0
        for b1 in axis:
            for b2 in axis:
                fields = (b1 * j_edge, b2 * j_edge, b3 * j_edge)
                evolved = evolve_dense(
                    chain_hamiltonian(*couplings(n), fields), basis_vec(n, 0), T_STAR
                )
                worst = min(worst, float(abs(np.vdot(reference, evolved))))
        minima[f"{b3:g}"] = worst
    return minima


def reference_point_ref(scale: float = 1.0) -> float:
    n = 3
    j_edge = math.sqrt(2.0)
    fields = tuple(scale * r * j_edge for r in REFERENCE_RATIOS)
    reference = t_star_unitary(n) @ basis_vec(n, 0)
    evolved = evolve_dense(chain_hamiltonian(*couplings(n), fields), basis_vec(n, 0), T_STAR)
    return float(abs(np.vdot(reference, evolved)))


def perturbed_extraction_ref() -> dict:
    n = 3
    j_edge = math.sqrt(2.0)
    fields = tuple(0.05 * j_edge for _ in range(n))
    state = evolve_dense(chain_hamiltonian(*couplings(n), fields), basis_vec(n, 0), T_STAR)
    pair, _, _, purity, overlap = extract_ref(state, n)
    label, label_fidelity = closest_bell_ref(pair)
    return {
        "purity": purity,
        "overlap": overlap,
        "label": label,
        "label_fidelity": label_fidelity,
    }
