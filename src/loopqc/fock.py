"""Sparse Fock states and passive linear-optics evolution.

States live in a fixed total-photon sector of an n-mode Fock space and are
stored sparsely as a dict mapping occupation tuples to complex amplitudes.
This is exact (no truncation) and comfortably covers the regime this package
targets: a handful of photons spread over at most a few dozen modes.

Convention
----------
A passive optic is described by its single-photon *transfer matrix* U:
column j holds the image of a photon prepared in mode j, i.e. the creation
operators map as

    a_j^dag  ->  sum_i U[i, j] a_i^dag.

Applying V first and then U is the same as applying the product U @ V once.
The two-mode beamsplitter with mixing angle theta and phase phi sends

    a_i^dag -> cos(theta) a_i^dag + e^{+i phi} sin(theta) a_j^dag
    a_j^dag -> -e^{-i phi} sin(theta) a_i^dag + cos(theta) a_j^dag

so its transfer matrix (modes ordered i, j) is

    [[ cos(theta), -e^{-i phi} sin(theta)],
     [ e^{+i phi} sin(theta), cos(theta)]].

The inverse of a beamsplitter with phi fixed is the same element with theta
negated.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

FORMAT_VERSION = "1.0"

DEFAULT_PRUNE_TOL = 1e-14
NORM_TOL = 1e-9
UNITARY_ATOL = 1e-10
PERMANENT_DIM_CAP = 20


class FockError(ValueError):
    """Raised for malformed states, non-unitary matrices or bad mode indices."""


@lru_cache(maxsize=None)
def _sqrt_fact(n: int) -> float:
    return math.sqrt(math.factorial(n))


class FockState:
    """Pure state with a definite total photon number over ``n_modes`` modes.

    ``amplitudes`` maps occupation tuples (length ``n_modes``, entries summing
    to ``total_photons``) to complex amplitudes.  States are treated as
    immutable; all operations return new instances.  ``normalized=False``
    marks intentionally sub-normalized states (e.g. herald branches kept
    un-rescaled).
    """

    __slots__ = ("n_modes", "total_photons", "amplitudes", "normalized")

    def __init__(self, n_modes, total_photons, amplitudes, normalized=True,
                 prune_tol=DEFAULT_PRUNE_TOL):
        if n_modes < 0 or total_photons < 0:
            raise FockError("mode and photon counts must be non-negative")
        clean = {}
        for occ, amp in amplitudes.items():
            occ = tuple(int(x) for x in occ)
            if len(occ) != n_modes:
                raise FockError(
                    f"occupation {occ} has {len(occ)} entries, expected {n_modes}")
            if any(x < 0 for x in occ):
                raise FockError(f"negative occupation in {occ}")
            if sum(occ) != total_photons:
                raise FockError(
                    f"occupation {occ} has {sum(occ)} photons, expected {total_photons}")
            amp = complex(amp)
            if abs(amp) > prune_tol:
                clean[occ] = clean.get(occ, 0j) + amp
        self.n_modes = int(n_modes)
        self.total_photons = int(total_photons)
        self.amplitudes = clean
        self.normalized = bool(normalized)
        if self.normalized:
            nrm = self.norm_squared()
            if abs(nrm - 1.0) > NORM_TOL:
                raise FockError(
                    f"state declared normalized but |psi|^2 = {nrm:.6g}")

    @classmethod
    def from_occupation(cls, occ):
        """Basis ket |occ>."""
        occ = tuple(int(x) for x in occ)
        return cls(len(occ), sum(occ), {occ: 1.0 + 0j})

    def amplitude(self, occ) -> complex:
        return self.amplitudes.get(tuple(occ), 0j)

    def items(self):
        return self.amplitudes.items()

    def norm_squared(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def overlap(self, other: "FockState") -> complex:
        """<self|other>."""
        if (self.n_modes, self.total_photons) != (other.n_modes, other.total_photons):
            return 0j
        a, b = self.amplitudes, other.amplitudes
        keys = a.keys() if len(a) <= len(b) else b.keys()
        return sum(a[occ].conjugate() * b[occ] for occ in keys
                   if occ in a and occ in b)

    def tensor(self, other: "FockState") -> "FockState":
        amps = {}
        for occ_a, amp_a in self.items():
            for occ_b, amp_b in other.items():
                amps[occ_a + occ_b] = amp_a * amp_b
        return FockState(self.n_modes + other.n_modes,
                         self.total_photons + other.total_photons,
                         amps, normalized=self.normalized and other.normalized)

    def __repr__(self):
        return (f"FockState(n_modes={self.n_modes}, "
                f"total_photons={self.total_photons}, "
                f"terms={len(self.amplitudes)})")


@dataclass(frozen=True)
class ModeUnitary:
    """Validated single-photon transfer matrix (see module docstring)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(_as_matrix(self.matrix))
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def beamsplitter_matrix(theta: float, phi: float) -> np.ndarray:
    """2x2 transfer matrix of the (theta, phi) beamsplitter, modes ordered (i, j)."""
    c, s = math.cos(theta), math.sin(theta)
    e = complex(math.cos(phi), math.sin(phi))
    return np.array([[c, -s / e], [s * e, c]], dtype=complex)


def is_unitary(m) -> bool:
    """Whether the square matrix ``m`` has max|m^dag m - 1| <= UNITARY_ATOL."""
    residual = m.conj().T @ m - np.eye(m.shape[0])
    return bool(np.max(np.abs(residual), initial=0.0) <= UNITARY_ATOL)


def _as_matrix(u) -> np.ndarray:
    if isinstance(u, ModeUnitary):
        return u.matrix
    m = np.asarray(u, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise FockError(f"transfer matrix must be square, got {m.shape}")
    if not is_unitary(m):
        raise FockError("matrix is not unitary")
    return m


def embed(n: int, modes, block) -> np.ndarray:
    """The n-mode identity with ``block`` on the rows and columns ``modes``."""
    u = np.eye(n, dtype=complex)
    u[np.ix_(modes, modes)] = block
    return u


def apply_mode_unitary(state: FockState, u, prune_tol=DEFAULT_PRUNE_TOL) -> FockState:
    """Evolve ``state`` through the optic with transfer matrix ``u``.

    Works per input ket: the ket's creation-operator monomial is expanded
    column by column, which is exact and fast for the sparse few-photon
    states this package deals with.
    """
    m = _as_matrix(u)
    n = state.n_modes
    if m.shape[0] != n:
        raise FockError(f"matrix is {m.shape[0]}-mode but state has {n} modes")
    # per-column nonzero entries (mode index, amplitude)
    cols = []
    for j in range(n):
        col = m[:, j]
        nz = np.nonzero(np.abs(col) > 1e-16)[0]
        cols.append([(int(i), complex(col[i])) for i in nz])

    zero = (0,) * n
    out: dict = {}
    for occ, amp in state.items():
        prefactor = amp
        for x in occ:
            prefactor /= _sqrt_fact(x)
        poly = {zero: prefactor}
        for j, nj in enumerate(occ):
            entries = cols[j]
            for _ in range(nj):
                nxt: dict = {}
                for mono, coeff in poly.items():
                    for i, uij in entries:
                        lifted = list(mono)
                        lifted[i] += 1
                        key = tuple(lifted)
                        nxt[key] = nxt.get(key, 0j) + coeff * uij
                poly = nxt
        for mono, coeff in poly.items():
            scale = 1.0
            for x in mono:
                scale *= _sqrt_fact(x)
            out[mono] = out.get(mono, 0j) + coeff * scale
    return FockState(n, state.total_photons, out,
                     normalized=state.normalized, prune_tol=prune_tol)


def apply_beamsplitter(state: FockState, i: int, j: int, theta: float,
                       phi: float, prune_tol=DEFAULT_PRUNE_TOL) -> FockState:
    """Two-mode beamsplitter on modes (i, j); roles follow the argument order.

    Specialized binomial expansion — much faster than embedding the 2x2 block
    into a full matrix when n is large.
    """
    n = state.n_modes
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise FockError(f"bad beamsplitter modes ({i}, {j}) for {n}-mode state")
    b = beamsplitter_matrix(theta, phi)
    b00, b01, b10, b11 = b[0, 0], b[0, 1], b[1, 0], b[1, 1]

    out: dict = {}
    for occ, amp in state.items():
        p, q = occ[i], occ[j]
        if p == 0 and q == 0:
            out[occ] = out.get(occ, 0j) + amp
            continue
        tot = p + q
        pref = amp / (_sqrt_fact(p) * _sqrt_fact(q))
        # coeffs[r] multiplies the ket with r photons left in mode i
        coeffs = [0j] * (tot + 1)
        for k in range(p + 1):
            ca = math.comb(p, k) * (b00 ** k) * (b10 ** (p - k))
            for l in range(q + 1):
                cb = math.comb(q, l) * (b01 ** l) * (b11 ** (q - l))
                coeffs[k + l] += ca * cb
        base = list(occ)
        for r in range(tot + 1):
            if abs(coeffs[r]) <= 1e-18:
                continue
            base[i], base[j] = r, tot - r
            key = tuple(base)
            val = pref * coeffs[r] * _sqrt_fact(r) * _sqrt_fact(tot - r)
            out[key] = out.get(key, 0j) + val
    return FockState(n, state.total_photons, out,
                     normalized=state.normalized, prune_tol=prune_tol)


def apply_phases(state: FockState, phases) -> FockState:
    """Per-mode phase shifters: ket |n_0..n_{m-1}> gains exp(i sum_k phases[k] n_k)."""
    phases = tuple(float(p) for p in phases)
    if len(phases) != state.n_modes:
        raise FockError("need one phase per mode")
    out = {}
    for occ, amp in state.items():
        ang = sum(p * x for p, x in zip(phases, occ))
        out[occ] = amp * complex(math.cos(ang), math.sin(ang))
    return FockState(state.n_modes, state.total_photons, out,
                     normalized=state.normalized)


def swap_modes(state: FockState, i: int, j: int) -> FockState:
    """Exchange the labels of modes i and j."""
    n = state.n_modes
    if not (0 <= i < n and 0 <= j < n):
        raise FockError(f"bad modes ({i}, {j}) for {n}-mode state")
    out = {}
    for occ, amp in state.items():
        o = list(occ)
        o[i], o[j] = o[j], o[i]
        out[tuple(o)] = amp
    return FockState(n, state.total_photons, out, normalized=state.normalized)


def post_select(state: FockState, modes, pattern):
    """Project the given modes onto a photon-number pattern.

    Returns ``(probability, conditional_state)`` where the conditional state
    lives on the remaining modes and is renormalized.  A zero-probability
    pattern yields ``(0.0, empty unnormalized state)`` rather than raising,
    so samplers can treat all branches uniformly.
    """
    modes = tuple(int(m) for m in modes)
    pattern = tuple(int(p) for p in pattern)
    n = state.n_modes
    if len(modes) != len(pattern):
        raise FockError("modes and pattern must have equal length")
    if len(set(modes)) != len(modes) or any(not 0 <= m < n for m in modes):
        raise FockError(f"bad mode set {modes} for {n}-mode state")
    if any(p < 0 for p in pattern):
        raise FockError("pattern entries must be non-negative")
    mode_set = set(modes)
    keep = [m for m in range(n) if m not in mode_set]
    want = dict(zip(modes, pattern))

    prob = 0.0
    residual: dict = {}
    for occ, amp in state.items():
        if all(occ[m] == want[m] for m in modes):
            prob += abs(amp) ** 2
            residual[tuple(occ[m] for m in keep)] = amp
    rest_photons = state.total_photons - sum(pattern)
    if prob <= 0.0 or rest_photons < 0:
        return 0.0, FockState(len(keep), max(rest_photons, 0), {},
                              normalized=False)
    scale = 1.0 / math.sqrt(prob)
    cond = FockState(len(keep), rest_photons,
                     {occ: amp * scale for occ, amp in residual.items()})
    return prob, cond


def outcome_distribution(state: FockState, modes) -> dict:
    """Born weight of each photon-number pattern on ``modes``, summed in
    the state's term order (as ``post_select`` sums it)."""
    probs: dict = {}
    for occ, amp in state.items():
        pattern = tuple(occ[m] for m in modes)
        probs[pattern] = probs.get(pattern, 0.0) + abs(amp) ** 2
    return probs


def measure_modes(state: FockState, modes, rng):
    """Photon-number measurement of a subset of modes.

    Samples an outcome from the Born distribution using ``rng`` (a numpy
    Generator) and returns ``(outcome, conditional_state, probability)``.
    Candidate outcomes are sorted before sampling so the draw depends only on
    the rng stream, not on amplitude-dict insertion order.
    """
    modes = tuple(int(m) for m in modes)
    if len(set(modes)) != len(modes) or any(not 0 <= m < state.n_modes for m in modes):
        raise FockError(f"bad mode set {modes} for {state.n_modes}-mode state")
    if not state.amplitudes:
        raise FockError("cannot measure an empty state")
    chosen = _draw(outcome_distribution(state, modes), rng)
    prob, cond = post_select(state, modes, chosen)
    return chosen, cond, prob


def _draw(probs: dict, rng):
    """One pattern of ``outcome_distribution``'s ``probs``, drawn with one
    ``rng.random()`` over the sorted patterns."""
    patterns = sorted(probs)
    u = rng.random() * sum(probs[p] for p in patterns)
    acc = 0.0
    for p in patterns:
        acc += probs[p]
        if u < acc:
            return p
    return patterns[-1]


def permanent(m, dim_cap: int = PERMANENT_DIM_CAP) -> complex:
    """Matrix permanent via Ryser's formula with Gray-code updates, O(2^n n).

    Sizes above ``dim_cap`` are rejected: cost doubles per row and larger
    requests are almost certainly a bug in the caller.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise FockError(f"permanent needs a square matrix, got {m.shape}")
    n = m.shape[0]
    if n == 0:
        return 1.0 + 0j
    if n > dim_cap:
        raise FockError(f"permanent of {n}x{n} matrix exceeds cap {dim_cap}")
    total = 0j
    row_sum = np.zeros(n, dtype=complex)
    gray_prev = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        bit = gray ^ gray_prev
        j = bit.bit_length() - 1
        if gray & bit:
            row_sum += m[:, j]
        else:
            row_sum -= m[:, j]
        sign = -1.0 if (gray.bit_count() & 1) else 1.0
        total += sign * np.prod(row_sum)
        gray_prev = gray
    if n & 1:
        total = -total
    return complex(total)


def _photon_permanent(u, input_occ, output_occ):
    """Per(M) and the occupations S, T as int tuples.

    M has one row per output photon and one column per input photon of U
    (repeated modes repeat rows/columns).  Per is None when S and T carry
    different photon numbers.
    """
    m = _as_matrix(u)
    s = tuple(int(x) for x in input_occ)
    t = tuple(int(x) for x in output_occ)
    if len(s) != m.shape[0] or len(t) != m.shape[0]:
        raise FockError("occupation length must match matrix dimension")
    if sum(s) != sum(t):
        return None, s, t
    rows = [mode for mode, reps in enumerate(t) for _ in range(reps)]
    cols = [mode for mode, reps in enumerate(s) for _ in range(reps)]
    return permanent(m[np.ix_(rows, cols)]), s, t


def output_probability(u, input_occ, output_occ) -> float:
    """Transition probability |<T| U |S>|^2 = |Per|^2 / (prod s_i! prod t_j!)."""
    per, s, t = _photon_permanent(u, input_occ, output_occ)
    if per is None:
        raise FockError(
            f"photon number mismatch: input {sum(s)}, output {sum(t)}")
    return abs(per) ** 2 / math.prod((math.factorial(x) for x in s + t),
                                     start=1.0)


def transition_amplitude(u, input_occ, output_occ) -> complex:
    """<T| U |S> = Per(M) / sqrt(prod s_i! prod t_j!); 0 if photon numbers differ."""
    per, s, t = _photon_permanent(u, input_occ, output_occ)
    if per is None:
        return 0j
    return per / math.prod((_sqrt_fact(x) for x in s + t), start=1.0)


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) +
         1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def phase_free_distance(a, b) -> float:
    """min over global phase of max|e^{i gamma} A - B| (entrywise)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise FockError(f"shape mismatch {a.shape} vs {b.shape}")
    tr = np.trace(b.conj().T @ a)
    if abs(tr) > 1e-12:
        phase = tr.conjugate() / abs(tr)
    else:
        phase = 1.0 + 0j
    return float(np.max(np.abs(phase * a - b)))


# ---------------------------------------------------------------------------
# serialization (versioned JSON)


def header(kind: str) -> dict:
    """The ``kind`` and ``format_version`` fields every document starts with."""
    return {"kind": kind, "format_version": FORMAT_VERSION}


def check_header(doc: dict, kind: str, error):
    """Raise ``error`` unless ``doc`` is a ``kind`` document of our major version."""
    if not isinstance(doc, dict):
        raise error(f"a {kind} document must be a JSON object")
    if doc.get("kind") != kind:
        raise error(f"expected kind {kind!r}, got {doc.get('kind')!r}")
    version = str(doc.get("format_version", ""))
    if version.split(".", 1)[0] != FORMAT_VERSION.split(".", 1)[0]:
        raise error(f"unsupported format version {version!r}")


_REQUIRED = object()
_FLOAT_MAX = sys.float_info.max


def doc_field(error, obj, key: str, valid=None, default=_REQUIRED):
    """``obj[key]`` from a parsed document, checked by the predicate ``valid``.

    Raises ``error`` if ``obj`` is not a JSON object, if ``key`` is absent
    and no ``default`` is given, or if ``valid`` rejects the value.
    """
    if not isinstance(obj, dict):
        raise error(f"expected a JSON object holding {key!r}, "
                    f"got {type(obj).__name__}")
    if key not in obj:
        if default is _REQUIRED:
            raise error(f"missing field {key!r}")
        return default
    value = obj[key]
    if valid is not None and not valid(value):
        raise error(f"malformed field {key!r}: {value!r:.60}")
    return value


def is_count(x) -> bool:
    """A non-negative JSON integer (a bool is not one)."""
    return type(x) is int and x >= 0


def is_real(x) -> bool:
    """A JSON number that fits a finite float (a bool is not one).

    NaN fails both comparisons; unlike ``math.isfinite``, they do not
    overflow on a huge integer.
    """
    return type(x) in (int, float) and -_FLOAT_MAX <= x <= _FLOAT_MAX


def list_of(valid=None, length=None):
    """Predicate: a JSON list, of ``length`` items and each ``valid`` if given."""
    return lambda xs: (type(xs) is list and length in (None, len(xs))
                       and (valid is None or all(map(valid, xs))))


def state_to_json(state: FockState) -> str:
    terms = [
        {"occ": list(occ), "re": amp.real, "im": amp.imag}
        for occ, amp in sorted(state.items())
    ]
    doc = {
        **header("fock-state"),
        "n_modes": state.n_modes,
        "total_photons": state.total_photons,
        "normalized": state.normalized,
        "terms": terms,
    }
    return json.dumps(doc, sort_keys=True)


def state_from_json(text: str) -> FockState:
    doc = json.loads(text)
    check_header(doc, "fock-state", FockError)
    field = partial(doc_field, FockError)
    amps = {}
    for t in field(doc, "terms", list_of()):
        amps[tuple(field(t, "occ", list_of(is_count)))] = complex(
            field(t, "re", is_real), field(t, "im", is_real))
    return FockState(field(doc, "n_modes", is_count),
                     field(doc, "total_photons", is_count), amps,
                     normalized=field(doc, "normalized",
                                      lambda x: type(x) is bool, True))


def unitary_to_json(u) -> str:
    m = _as_matrix(u)
    doc = {
        **header("mode-unitary"),
        "dim": m.shape[0],
        "re": [[float(x) for x in row] for row in m.real],
        "im": [[float(x) for x in row] for row in m.imag],
    }
    return json.dumps(doc, sort_keys=True)


def unitary_from_json(text: str) -> np.ndarray:
    doc = json.loads(text)
    check_header(doc, "mode-unitary", FockError)
    field = partial(doc_field, FockError)
    dim = field(doc, "dim", is_count)
    square = list_of(list_of(is_real, dim), dim)
    return (np.array(field(doc, "re", square), dtype=float)
            + 1j * np.array(field(doc, "im", square), dtype=float))

