"""Graph states, local-Clifford frames, fusion, and star bonding.

A cluster is tracked as a graph (each vertex mapped to the frozenset of its
neighbors) plus a single-qubit Clifford *frame* per vertex: the physical
state is (tensor of frames) applied to the canonical graph state.  A frame
is an index into the 24-element local Clifford group, whose product and
Pauli-conjugation tables are built at import (Anders & Briegel, PRA 73,
022334 (2006)); matrices are checked only where they enter.  ``frame(v)``
returns the element's canonical matrix, which equals the composed product
only up to global phase, so every check on a graph's state compares
overlaps in absolute value.  Pauli measurements are propagated with the
usual local-complementation rules:

* Z on v: delete v; outcome 1 puts Z on every neighbor.
* Y on v: locally complement at v, delete v; S (outcome 0) or S-dagger
  (outcome 1) lands on every neighbor.
* X on v: pick a special neighbor b0 (the smallest label), locally
  complement at b0, then at v, delete v, complement at b0 again; b0 picks
  up a square root of +-iY and a set of neighbors picks up Z.

A vertex whose frame is not the identity is measured by conjugating the
requested Pauli through the frame first, so e.g. measuring Y on a vertex
carrying an S frame dispatches to the X rule with the outcome bit adjusted.

Fock-level fusion of two dual-rail qubits runs the ``fusion1``/``fusion2``
entries of ``gates.GADGETS``; ``fusion_type_i``/``_ii`` map each detector
pattern to what it does to the cluster, so the two descriptions can be
checked against each other.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .fock import FockState, check_header, header
from .gates import GADGETS, HeraldedResult, _run_gadget

IDENTITY_2 = np.eye(2, dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
PHASE_S = np.array([[1, 0], [0, 1j]], dtype=complex)
PHASE_S_DAG = np.array([[1, 0], [0, -1j]], dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# (I +- iY)/sqrt(2); squaring gives +-iY
SQRT_PLUS_IY = (IDENTITY_2 + 1j * PAULI_Y) / math.sqrt(2)
SQRT_MINUS_IY = (IDENTITY_2 - 1j * PAULI_Y) / math.sqrt(2)


class GraphError(ValueError):
    """Raised for invalid graph-state operations."""


# --------------------------------------------------------------------------
# the 24 single-qubit Cliffords, tagged by shortest H/S word
# --------------------------------------------------------------------------


def _canonical_key(m: np.ndarray) -> tuple:
    # entries of a single-qubit Clifford have magnitude 0, 1/sqrt(2), or 1,
    # so the first entry above 0.4 is a stable phase reference (a matrix
    # without one, or with a non-finite entry, matches no Clifford's key)
    flat = m.ravel().tolist()
    pivot = next((x for x in flat if abs(x) > 0.4), 1)
    fixed = [x * (abs(pivot) / pivot) for x in flat]
    return tuple(round(p, 8) for x in fixed for p in (x.real, x.imag))


# Each generator with its conjugation of the Paulis x, y, z = 0, 1, 2, as
# (axis, sign) with g^dag P g = sign * P_axis: H swaps X and Z and negates
# Y; S takes X to -Y and Y to X.
_GENERATORS = ((HADAMARD, ((2, 1), (1, -1), (0, 1))),
               (PHASE_S, ((1, -1), (0, 1), (2, 1))))


def _clifford_group():
    """Tables of the 24 elements, from 48 breadth-first H/S steps."""
    tags, mats, origin = [""], [IDENTITY_2], [None]
    index = {_canonical_key(IDENTITY_2): 0}
    step, conj = [], [((0, 1), (1, 1), (2, 1))]
    for k in range(24):
        step.append({})
        for letter, (gen, gen_conj) in zip("HS", _GENERATORS):
            m = mats[k] @ gen
            key = _canonical_key(m)
            if key not in index:
                index[key] = len(tags)
                tags.append(tags[k] + letter)
                mats.append(m)
                origin.append((k, letter))
                conj.append(tuple((gen_conj[a][0], s * gen_conj[a][1])
                                  for a, s in conj[k]))
            step[k][letter] = index[key]
    # element b is element k times a letter, so a * b = (a * k) * letter
    mul = []
    for a in range(24):
        row = [a]
        for k, letter in origin[1:]:
            row.append(step[row[k]][letter])
        mul.append(tuple(row))
    return tags, mats, index, tuple(mul), tuple(conj)


# _MUL[a][b] is the element whose matrix is (matrix a) @ (matrix b);
# _CONJ[f][p] = (axis, sign) with f^dag P_p f = sign * P_axis
_TAGS, _MATRICES, _INDEX_BY_KEY, _MUL, _CONJ = _clifford_group()
_MAT_BY_TAG = dict(zip(_TAGS, _MATRICES))


def _clifford_index(m) -> int:
    """Group index of a 2x2 Clifford matrix (up to global phase)."""
    try:
        a = np.asarray(m, dtype=complex)
        if a.shape == (2, 2):
            return _INDEX_BY_KEY[_canonical_key(a)]
    except (KeyError, TypeError, ValueError):
        pass
    raise GraphError("frame must be a 2x2 single-qubit Clifford "
                     "(up to global phase)")


_Z, _S, _S_DAG, _SQRT_PLUS_IY, _SQRT_MINUS_IY = (_clifford_index(m) for m in (
    PAULI_Z, PHASE_S, PHASE_S_DAG, SQRT_PLUS_IY, SQRT_MINUS_IY))


def clifford_tag(m) -> str:
    """Canonical H/S word for a single-qubit Clifford (up to global phase)."""
    return _TAGS[_clifford_index(m)]


def clifford_from_tag(tag: str) -> np.ndarray:
    if tag not in _MAT_BY_TAG:
        raise GraphError(f"unknown frame tag {tag!r}")
    return _MAT_BY_TAG[tag].copy()


# --------------------------------------------------------------------------
# graph states
# --------------------------------------------------------------------------


class GraphState:
    """An undirected simple graph with a local Clifford frame per vertex.

    Operations never mutate; each returns a new instance.  Vertex labels
    must be hashable and mutually sortable (ints or strings in practice).
    ``frames`` maps each vertex whose frame is not the identity to its
    Clifford group index; read a frame as a matrix with ``frame(v)``.
    """

    def __init__(self, vertices=(), edges=(), frames=None):
        try:
            adj = {v: set() for v in vertices}
        except TypeError:
            raise GraphError("vertices must be hashable labels") from None
        for e in edges:
            try:
                u, v = tuple(e)
                known = u in adj and v in adj
            except (TypeError, ValueError):
                raise GraphError(
                    f"edge {e!r} must be a pair of hashable labels") from None
            if u == v:
                raise GraphError(f"self-loop on vertex {u!r}")
            if not known:
                raise GraphError(f"edge ({u!r}, {v!r}) uses unknown vertices")
            adj[u].add(v)
            adj[v].add(u)
        self._adj = {v: frozenset(nb) for v, nb in adj.items()}
        self.frames = {}
        for v, m in (frames or {}).items():
            if v not in adj:
                raise GraphError(f"frame on unknown vertex {v!r}")
            f = _clifford_index(m)
            if f:
                self.frames[v] = f

    @property
    def vertices(self) -> frozenset:
        return frozenset(self._adj)

    @property
    def edges(self) -> frozenset:
        """Every edge as a 2-element frozenset, derived from the adjacency."""
        return frozenset(frozenset((u, w))
                         for u, nb in self._adj.items() for w in nb)

    def neighbors(self, v) -> frozenset:
        if v not in self._adj:
            raise GraphError(f"unknown vertex {v!r}")
        return self._adj[v]

    def degree(self, v) -> int:
        return len(self.neighbors(v))

    def frame(self, v) -> np.ndarray:
        if v not in self._adj:
            raise GraphError(f"unknown vertex {v!r}")
        return _MATRICES[self.frames.get(v, 0)].copy()

    def has_edge(self, u, v) -> bool:
        return v in self._adj.get(u, ())

    def _replace(self, adj=None, frames=None) -> "GraphState":
        """A graph that takes ownership of ``adj`` and ``frames``."""
        g = GraphState.__new__(GraphState)
        g._adj = self._adj if adj is None else adj
        g.frames = self.frames if frames is None else frames
        return g

    def compose_frame(self, v, m) -> "GraphState":
        """Multiply a byproduct onto v's frame (byproduct acts first)."""
        if v not in self._adj:
            raise GraphError(f"unknown vertex {v!r}")
        frames = dict(self.frames)
        _compose(frames, (v,), _clifford_index(m))
        return self._replace(frames=frames)

    def __eq__(self, other):
        if not isinstance(other, GraphState):
            return NotImplemented
        return self._adj == other._adj and self.frames == other.frames

    def __repr__(self):
        vs = ",".join(repr(v) for v in sorted(self._adj))
        return (f"GraphState(vertices=[{vs}], edges={len(self.edges)}, "
                f"frames={len(self.frames)})")


def _compose(frames: dict, vertices, b: int):
    """Compose Clifford b onto each vertex's frame, in place (b acts first).

    This helper and the two below update a graph's private copies of its
    frames and adjacency before ``_replace`` hands them to the result.
    """
    for w in vertices:
        f = _MUL[frames.get(w, 0)][b]
        if f:
            frames[w] = f
        else:
            frames.pop(w, None)


def _complement(adj: dict, v):
    """Toggle every edge between two neighbors of v."""
    nb = adj[v]
    for a in nb:
        adj[a] ^= nb - {a}


def _delete_vertex(adj: dict, v):
    for w in adj.pop(v):
        adj[w] -= {v}


def graph_union(ga: GraphState, gb: GraphState) -> GraphState:
    """Disjoint union; the two vertex sets must not overlap."""
    clash = ga._adj.keys() & gb._adj.keys()
    if clash:
        raise GraphError(f"vertex labels {sorted(clash)} appear in both graphs")
    return ga._replace({**ga._adj, **gb._adj}, {**ga.frames, **gb.frames})


def local_complement(g: GraphState, v) -> GraphState:
    """Toggle every edge between two neighbors of v (graph geometry only)."""
    if v not in g._adj:
        raise GraphError(f"unknown vertex {v!r}")
    adj = dict(g._adj)
    _complement(adj, v)
    return g._replace(adj=adj)


def add_cz_edge(g: GraphState, u, v) -> GraphState:
    """Toggle the edge u-v (a CZ between the two qubits).

    Both endpoints must carry identity frames: a CZ does not commute
    through a general local Clifford, so the caller has to clear frames
    first (physically: undo them with single-qubit gates).
    """
    if u == v:
        raise GraphError(f"cannot add a self-loop on {u!r}")
    for w in (u, v):
        if w not in g._adj:
            raise GraphError(f"unknown vertex {w!r}")
        if w in g.frames:
            raise GraphError(
                f"vertex {w!r} carries a non-identity frame; clear it "
                "before applying a CZ")
    adj = dict(g._adj)
    adj[u] ^= {v}
    adj[v] ^= {u}
    return g._replace(adj=adj)


# --------------------------------------------------------------------------
# Pauli measurements
# --------------------------------------------------------------------------


def _measure(g: GraphState, v, pauli: str, outcome: int) -> GraphState:
    if isinstance(outcome, bool) or outcome not in (0, 1):
        raise GraphError(f"outcome must be 0 or 1, got {outcome!r}")
    if v not in g._adj:
        raise GraphError(f"unknown vertex {v!r}")
    # the rule for the Pauli that v's frame maps the requested one onto
    axis, sign = _CONJ[g.frames.get(v, 0)]["xyz".index(pauli)]
    s = outcome if sign > 0 else 1 - outcome
    nb = g._adj[v]
    adj, frames = dict(g._adj), dict(g.frames)
    frames.pop(v, None)
    if axis == 2:
        _delete_vertex(adj, v)
        if s == 1:
            _compose(frames, nb, _Z)
    elif axis == 1:
        _complement(adj, v)
        _delete_vertex(adj, v)
        _compose(frames, nb, _S if s == 0 else _S_DAG)
    elif not nb:
        if s == 1:
            raise GraphError(
                "X outcome 1 on an isolated vertex has probability zero")
        _delete_vertex(adj, v)
    else:
        b0 = min(nb)
        nb0 = adj[b0]
        _complement(adj, b0)
        _complement(adj, v)
        _delete_vertex(adj, v)
        _complement(adj, b0)
        if s == 0:
            _compose(frames, (b0,), _SQRT_PLUS_IY)
            _compose(frames, nb - nb0 - {b0}, _Z)
        else:
            _compose(frames, (b0,), _SQRT_MINUS_IY)
            _compose(frames, nb0 - nb - {v}, _Z)
    return g._replace(adj, frames)


def measure_x(g: GraphState, v, outcome: int = 0) -> GraphState:
    """Measure Pauli X on vertex v (outcome 0 means eigenvalue +1)."""
    return _measure(g, v, "x", outcome)


def measure_y(g: GraphState, v, outcome: int = 0) -> GraphState:
    """Measure Pauli Y on vertex v (outcome 0 means eigenvalue +1)."""
    return _measure(g, v, "y", outcome)


def measure_z(g: GraphState, v, outcome: int = 0) -> GraphState:
    """Measure Pauli Z on vertex v (outcome 0 means eigenvalue +1)."""
    return _measure(g, v, "z", outcome)


# --------------------------------------------------------------------------
# star bonding
# --------------------------------------------------------------------------


def required_branches(p_gate: float, p_bond: float) -> int:
    """Least k with 1 - (1 - p_gate)^k >= p_bond."""
    if not 0.0 < p_gate <= 1.0:
        raise GraphError(f"p_gate must be in (0, 1], got {p_gate}")
    if not 0.0 < p_bond < 1.0:
        raise GraphError(f"p_bond must be in (0, 1), got {p_bond}")
    if p_gate == 1.0:
        return 1
    k = max(1, math.ceil(math.log1p(-p_bond) / math.log1p(-p_gate)))
    while k > 1 and 1.0 - (1.0 - p_gate) ** (k - 1) >= p_bond:
        k -= 1
    while 1.0 - (1.0 - p_gate) ** k < p_bond:
        k += 1
    return k


def bond_micro_clusters(ga: GraphState, gb: GraphState, centers, p_gate: float,
                        rng):
    """Bond two star clusters with repeat-until-success branch gates.

    ``centers`` is the pair (center_a, center_b).  Branch leaves are paired
    off in sorted order; each attempt fires a heralded CZ with success
    probability ``p_gate``.  Success is followed by Y measurements of both
    leaves (contracting the link into a direct center-center bond); failure
    consumes the pair with Z measurements.  Measurement outcomes are drawn
    from ``rng``.

    Returns ``(success, graph, consumed)`` where ``consumed`` counts the
    branch pairs used.
    """
    if not 0.0 <= p_gate <= 1.0:
        raise GraphError(f"p_gate must be in [0, 1], got {p_gate}")
    if rng is None:
        raise GraphError("bonding draws samples and requires an rng")
    ca, cb = centers
    if ca not in ga.vertices:
        raise GraphError(f"center {ca!r} not in the first graph")
    if cb not in gb.vertices:
        raise GraphError(f"center {cb!r} not in the second graph")
    branches_a = sorted(ga.neighbors(ca))
    branches_b = sorted(gb.neighbors(cb))
    if not branches_a or not branches_b:
        raise GraphError("both stars need at least one branch to bond")
    g = graph_union(ga, gb)
    consumed = 0
    for leaf_a, leaf_b in zip(branches_a, branches_b):
        consumed += 1
        if rng.random() < p_gate:
            g = add_cz_edge(g, leaf_a, leaf_b)
            g = measure_y(g, leaf_a, int(rng.integers(2)))
            g = measure_y(g, leaf_b, int(rng.integers(2)))
            return True, g, consumed
        g = measure_z(g, leaf_a, int(rng.integers(2)))
        g = measure_z(g, leaf_b, int(rng.integers(2)))
    return False, g, consumed


def bond_success_trials(p_gate: float, k: int, trials: int, rng) -> int:
    """Count bonding successes over seeded trials of the branch process.

    Each trial fires up to k independent attempts with success probability
    p_gate and succeeds if any attempt does -- the same statistics as
    ``bond_micro_clusters`` on k-branch stars, without the graph surgery,
    so large trial counts stay cheap.
    """
    if not 0.0 <= p_gate <= 1.0:
        raise GraphError(f"p_gate must be in [0, 1], got {p_gate}")
    if k < 1 or trials < 0:
        raise GraphError("need k >= 1 and trials >= 0")
    if trials == 0:
        return 0
    wins = 0
    chunk = max(1, min(trials, 200_000 // k))
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        draws = rng.random((m, k)) < p_gate
        wins += int(draws.any(axis=1).sum())
        done += m
    return wins


# --------------------------------------------------------------------------
# time-bin fusion at the Fock level
# --------------------------------------------------------------------------


def pbs_matrix() -> np.ndarray:
    """Mode map of the bin-sorting swap on (h1, v1, h2, v2): the ``swap``
    that both fusion gadgets apply first."""
    return np.array([[0, 0, 1, 0],
                     [0, 1, 0, 0],
                     [1, 0, 0, 0],
                     [0, 0, 0, 1]], dtype=complex)


@dataclass(frozen=True)
class FusionResult(HeraldedResult):
    """A fusion's ``HeraldedResult`` plus ``graph_action``, what the outcome
    does to the cluster picture (see ``apply_fusion_graph_rule``)."""

    graph_action: dict


def _fuse(gadget: str, state: FockState, pair_a, pair_b, rng):
    """Run a fusion entry of ``GADGETS`` on the bins (h1, v1, h2, v2)."""
    if rng is None:
        raise GraphError("fusion samples detectors and requires an rng")
    bins = tuple(int(b) for b in tuple(pair_a) + tuple(pair_b))
    if len(bins) != 4 or len(set(bins)) != 4 \
            or any(not 0 <= m < state.n_modes for m in bins):
        raise GraphError(f"bins {bins} must be four distinct modes")
    return _run_gadget(GADGETS[gadget], state, bins, rng, False)


def fusion_type_i(state: FockState, pair_a, pair_b, rng) -> FusionResult:
    """Fuse two dual-rail qubits, keeping the first one.

    Runs ``GADGETS["fusion1"]``, which detects the second pair.  One photon
    there heralds success: the logical content merges onto the surviving
    pair, with a Z byproduct when the photon lands in the first bin.  Zero
    or two photons herald failure and act as Z measurements of both qubits
    (the surviving pair then holds vacuum or both photons, not a qubit).
    """
    res = _fuse("fusion1", state, pair_a, pair_b, rng)
    if res.success:
        action = {"kind": "merge", "z_on_survivor": res.outcome == (1, 0)}
    else:
        action = {"kind": "separate",
                  "z_outcomes": (1, 0) if sum(res.outcome) == 0 else (0, 1)}
    return FusionResult(**vars(res), graph_action=action)


def fusion_type_ii(state: FockState, pair_a, pair_b, rng) -> FusionResult:
    """Fuse two dual-rail qubits, consuming both.

    Runs ``GADGETS["fusion2"]``, which detects all four bins.  One photon
    per pair heralds success: the cluster picture is a merge followed by an
    X measurement of the merged vertex, with the outcome bit set by the
    detector parity.  Two photons in one pair herald failure (Z
    measurements of both qubits).
    """
    res = _fuse("fusion2", state, pair_a, pair_b, rng)
    h1, v1, h2, _ = res.outcome
    if res.success:
        # minus sign iff exactly one photon sits in a first (h) bin
        action = {"kind": "merge_then_x", "x_outcome": (h1 + h2) % 2}
    else:
        action = {"kind": "separate",
                  "z_outcomes": (1, 0) if h1 + v1 == 2 else (0, 1)}
    return FusionResult(**vars(res), graph_action=action)


def merge_vertices(g: GraphState, keep, drop) -> GraphState:
    """Merge ``drop`` into ``keep``: the new neighborhood is the symmetric
    difference of the two (each shared neighbor's CZs cancel).  An existing
    keep-drop edge becomes a Z on the merged vertex.  Both vertices must
    carry identity frames.
    """
    if keep == drop:
        raise GraphError("cannot merge a vertex with itself")
    for w in (keep, drop):
        if w not in g._adj:
            raise GraphError(f"unknown vertex {w!r}")
        if w in g.frames:
            raise GraphError(
                f"vertex {w!r} carries a non-identity frame; fusion rules "
                "apply to bare graph vertices")
    adj, frames = dict(g._adj), dict(g.frames)
    new_nb = (adj[keep] ^ adj[drop]) - {keep, drop}
    if drop in adj[keep]:
        _compose(frames, (keep,), _Z)
    _delete_vertex(adj, drop)
    for w in adj[keep] ^ new_nb:
        adj[w] ^= {keep}
    adj[keep] = new_nb
    return g._replace(adj, frames)


def apply_fusion_graph_rule(g: GraphState, va, vb, action: dict) -> GraphState:
    """Apply a fusion outcome's cluster-level effect.

    ``action`` is the ``graph_action`` of a ``FusionResult`` whose pairs
    encoded vertices ``va`` (surviving in type I) and ``vb``.
    """
    kind = action.get("kind")
    if kind == "merge":
        out = merge_vertices(g, va, vb)
        if action.get("z_on_survivor"):
            out = out.compose_frame(va, PAULI_Z)
        return out
    if kind == "merge_then_x":
        out = merge_vertices(g, va, vb)
        return measure_x(out, va, int(action["x_outcome"]))
    if kind == "separate":
        za, zb = action["z_outcomes"]
        return measure_z(measure_z(g, va, za), vb, zb)
    raise GraphError(f"unknown fusion action {action!r}")


# --------------------------------------------------------------------------
# Fock-level view of a cluster
# --------------------------------------------------------------------------


def graph_to_fock(g: GraphState, cap: int = 6) -> FockState:
    """Dual-rail Fock state of the cluster; qubit k is the k-th vertex in
    sorted order, on modes (2k, 2k+1).  Exponential in the vertex count,
    so refuses more than ``cap`` vertices (raise it explicitly if needed).
    """
    verts = sorted(g.vertices)
    m = len(verts)
    if m > cap:
        raise GraphError(
            f"{m} vertices exceed the Fock cross-check cap of {cap}")
    index = {v: k for k, v in enumerate(verts)}
    edge_idx = [(index[a], index[b]) for a, nb in g._adj.items()
                for b in nb if index[a] < index[b]]
    # one ket per basis state, qubit k as (1, 0) or (0, 1) on modes
    # (2k, 2k+1): |+> per vertex and a sign per edge
    kets = list(itertools.product(((1, 0), (0, 1)), repeat=m))
    scale = 2.0 ** (-m / 2)
    amps = [-scale if sum(o[a][1] * o[b][1] for a, b in edge_idx) % 2
            else scale for o in kets]
    if g.frames:
        # each frame is a 2x2 update on its own qubit, axis k of psi
        psi = np.array(amps, dtype=complex).reshape((2,) * m)
        for v, f in g.frames.items():
            k = index[v]
            psi = np.moveaxis(np.tensordot(_MATRICES[f], psi, (1, k)), 0, k)
        amps = psi.ravel().tolist()
    return FockState(2 * m, m, {sum(o, ()): a for o, a in zip(kets, amps)})


def project_dual_rail(state: FockState, pair, qubit_vector):
    """Project one dual-rail pair onto a single-qubit state and drop it.

    Returns ``(probability, conditional)``; components outside the
    one-photon subspace of the pair are annihilated by the projection.
    """
    i, j = int(pair[0]), int(pair[1])
    v0, v1 = complex(qubit_vector[0]), complex(qubit_vector[1])
    norm = math.sqrt(abs(v0) ** 2 + abs(v1) ** 2)
    v0, v1 = v0 / norm, v1 / norm
    keep = [m for m in range(state.n_modes) if m not in (i, j)]
    terms: dict = {}
    for occ, amp in state.items():
        rails = (occ[i], occ[j])
        if rails == (1, 0):
            w = amp * v0.conjugate()
        elif rails == (0, 1):
            w = amp * v1.conjugate()
        else:
            continue
        rest = tuple(occ[m] for m in keep)
        terms[rest] = terms.get(rest, 0j) + w
    prob = sum(abs(a) ** 2 for a in terms.values())
    if prob <= 0.0:
        return 0.0, FockState(len(keep), max(state.total_photons - 1, 0), {},
                              normalized=False)
    scale = 1.0 / math.sqrt(prob)
    cond = FockState(len(keep), state.total_photons - 1,
                     {occ: a * scale for occ, a in terms.items() if a != 0})
    return prob, cond


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def graph_to_json(g: GraphState) -> str:
    verts = sorted(g.vertices)
    payload = {
        **header("graph-state"),
        "vertices": list(verts),
        "edges": sorted(sorted(e) for e in g.edges),
        "frames": {str(v): _TAGS[f] for v, f in g.frames.items()},
    }
    return json.dumps(payload, sort_keys=True)


def _labels(xs) -> bool:
    """True if every item is an int or a str (a bool is neither here)."""
    return all(type(x) in (int, str) for x in xs)


def graph_from_json(text: str) -> GraphState:
    data = json.loads(text)
    check_header(data, "graph-state", GraphError)
    vertices, edges = data.get("vertices"), data.get("edges")
    frames = data.get("frames", {})
    if not isinstance(vertices, list) or not _labels(vertices):
        raise GraphError("'vertices' must be a list of int or string labels")
    by_name = {str(v): v for v in vertices}
    if len(by_name) != len(vertices):
        raise GraphError("vertex labels must be distinct")
    if not isinstance(edges, list) or not all(
            type(e) is list and len(e) == 2 and _labels(e) for e in edges):
        raise GraphError("'edges' must be a list of [label, label] pairs")
    if not isinstance(frames, dict) or not _labels(frames.values()):
        raise GraphError("'frames' must map vertex names to H/S tags")
    for name in frames:
        if name not in by_name:
            raise GraphError(f"frame on unknown vertex {name!r}")
    return GraphState(vertices, edges, {by_name[name]: clifford_from_tag(tag)
                                        for name, tag in frames.items()})
