"""Graph states, local-Clifford frames, fusion, and star bonding.

A cluster is tracked as a graph plus a single-qubit Clifford *frame* per
vertex: the physical state is (tensor of frames) applied to the canonical
graph state.  Pauli measurements are propagated with the usual
local-complementation rules:

* Z on v: delete v; outcome 1 puts Z on every neighbor.
* Y on v: locally complement at v, delete v; S (outcome 0) or S-dagger
  (outcome 1) lands on every neighbor.
* X on v: pick a special neighbor b0 (the smallest label), locally
  complement at b0, then at v, delete v, complement at b0 again; b0 picks
  up a square root of +-iY and a set of neighbors picks up Z.

A vertex whose frame is not the identity is measured by conjugating the
requested Pauli through the frame first, so e.g. measuring Y on a vertex
carrying an S frame dispatches to the X rule with the outcome bit adjusted.

Fock-level fusion of two dual-rail qubits (polarizing swap + diagonal
waveplates + detectors) is provided alongside the graph-level prediction of
what each detector pattern does to the cluster, so the two descriptions can
be checked against each other.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .fock import FockState, apply_beamsplitter, apply_mode_unitary, \
    check_header, header, measure_modes, post_select, swap_modes

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


def _canonical_key(m) -> tuple:
    m = np.asarray(m, dtype=complex)
    flat = m.reshape(-1)
    # entries of a single-qubit Clifford have magnitude 0, 1/sqrt(2), or 1,
    # so the first entry above 0.4 is a stable phase reference
    pivot = next(x for x in flat if abs(x) > 0.4)
    fixed = flat * (abs(pivot) / pivot)
    return tuple(np.round(fixed, 8).view(float))


def _build_clifford_table():
    by_key, by_tag = {}, {}
    queue = [("", IDENTITY_2)]
    by_key[_canonical_key(IDENTITY_2)] = ""
    by_tag[""] = IDENTITY_2
    while queue:
        word, m = queue.pop(0)
        for letter, gen in (("H", HADAMARD), ("S", PHASE_S)):
            nw, nm = word + letter, m @ gen
            key = _canonical_key(nm)
            if key not in by_key:
                by_key[key] = nw
                by_tag[nw] = nm
                queue.append((nw, nm))
    return by_key, by_tag


_TAG_BY_KEY, _MAT_BY_TAG = _build_clifford_table()


def clifford_tag(m) -> str:
    """Canonical H/S word for a single-qubit Clifford (up to global phase)."""
    try:
        return _TAG_BY_KEY[_canonical_key(m)]
    except KeyError:
        raise GraphError("frame must be a single-qubit Clifford "
                         "(up to global phase)") from None


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
    """

    def __init__(self, vertices=(), edges=(), frames=None):
        self.vertices = frozenset(vertices)
        es = set()
        for e in edges:
            u, v = tuple(e)
            if u == v:
                raise GraphError(f"self-loop on vertex {u!r}")
            if u not in self.vertices or v not in self.vertices:
                raise GraphError(f"edge ({u!r}, {v!r}) uses unknown vertices")
            es.add(frozenset((u, v)))
        self.edges = frozenset(es)
        self.frames = {}
        for v, m in (frames or {}).items():
            if v not in self.vertices:
                raise GraphError(f"frame on unknown vertex {v!r}")
            tag = clifford_tag(m)  # validates Clifford membership
            if tag:
                self.frames[v] = np.asarray(m, dtype=complex).copy()

    def neighbors(self, v) -> frozenset:
        if v not in self.vertices:
            raise GraphError(f"unknown vertex {v!r}")
        return frozenset(w for e in self.edges if v in e for w in e - {v})

    def degree(self, v) -> int:
        return len(self.neighbors(v))

    def frame(self, v) -> np.ndarray:
        if v not in self.vertices:
            raise GraphError(f"unknown vertex {v!r}")
        return self.frames.get(v, IDENTITY_2).copy()

    def has_edge(self, u, v) -> bool:
        return frozenset((u, v)) in self.edges

    def _replace(self, vertices=None, edges=None, frames=None) -> "GraphState":
        g = GraphState.__new__(GraphState)
        g.vertices = self.vertices if vertices is None else frozenset(vertices)
        g.edges = self.edges if edges is None else frozenset(
            frozenset(e) for e in edges)
        g.frames = dict(self.frames) if frames is None else dict(frames)
        return g

    def compose_frame(self, v, m) -> "GraphState":
        """Multiply a byproduct onto v's frame (byproduct acts first)."""
        if v not in self.vertices:
            raise GraphError(f"unknown vertex {v!r}")
        new = self.frames.get(v, IDENTITY_2) @ np.asarray(m, dtype=complex)
        frames = dict(self.frames)
        if clifford_tag(new):
            frames[v] = new
        else:
            frames.pop(v, None)
        return self._replace(frames=frames)

    def __eq__(self, other):
        if not isinstance(other, GraphState):
            return NotImplemented
        return (self.vertices == other.vertices
                and self.edges == other.edges
                and {v: clifford_tag(m) for v, m in self.frames.items()}
                == {v: clifford_tag(m) for v, m in other.frames.items()})

    def __repr__(self):
        vs = ",".join(repr(v) for v in sorted(self.vertices))
        return (f"GraphState(vertices=[{vs}], edges={len(self.edges)}, "
                f"frames={len(self.frames)})")


def graph_union(ga: GraphState, gb: GraphState) -> GraphState:
    """Disjoint union; the two vertex sets must not overlap."""
    clash = ga.vertices & gb.vertices
    if clash:
        raise GraphError(f"vertex labels {sorted(clash)} appear in both graphs")
    return GraphState(ga.vertices | gb.vertices,
                      list(ga.edges) + list(gb.edges),
                      {**ga.frames, **gb.frames})


def local_complement(g: GraphState, v) -> GraphState:
    """Toggle every edge between two neighbors of v (graph geometry only)."""
    nb = sorted(g.neighbors(v))
    edges = set(g.edges)
    for a, b in itertools.combinations(nb, 2):
        e = frozenset((a, b))
        if e in edges:
            edges.remove(e)
        else:
            edges.add(e)
    return g._replace(edges=edges)


def add_cz_edge(g: GraphState, u, v) -> GraphState:
    """Toggle the edge u-v (a CZ between the two qubits).

    Both endpoints must carry identity frames: a CZ does not commute
    through a general local Clifford, so the caller has to clear frames
    first (physically: undo them with single-qubit gates).
    """
    if u == v:
        raise GraphError(f"cannot add a self-loop on {u!r}")
    for w in (u, v):
        if w not in g.vertices:
            raise GraphError(f"unknown vertex {w!r}")
        if w in g.frames:
            raise GraphError(
                f"vertex {w!r} carries a non-identity frame; clear it "
                "before applying a CZ")
    e = frozenset((u, v))
    edges = set(g.edges)
    if e in edges:
        edges.remove(e)
    else:
        edges.add(e)
    return g._replace(edges=edges)


def _delete_vertex(g: GraphState, v) -> GraphState:
    frames = dict(g.frames)
    frames.pop(v, None)
    return g._replace(vertices=g.vertices - {v},
                      edges=[e for e in g.edges if v not in e],
                      frames=frames)


# --------------------------------------------------------------------------
# Pauli measurements
# --------------------------------------------------------------------------

_PAULIS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


def _conjugated_pauli(frame, pauli: str):
    """Return (axis, sign) with frame^dag P frame = sign * axis."""
    m = frame.conj().T @ _PAULIS[pauli] @ frame
    for axis, p in _PAULIS.items():
        for sign in (1, -1):
            if np.allclose(m, sign * p, atol=1e-9):
                return axis, sign
    raise GraphError("frame does not map the measurement axis onto a Pauli")


def _measure_graph_pauli(g: GraphState, v, axis: str, s: int) -> GraphState:
    """Measurement rule for a bare graph vertex (identity frame on v)."""
    nb = g.neighbors(v)
    if axis == "z":
        out = _delete_vertex(g, v)
        if s == 1:
            for b in nb:
                out = out.compose_frame(b, PAULI_Z)
        return out
    if axis == "y":
        out = _delete_vertex(local_complement(g, v), v)
        u = PHASE_S if s == 0 else PHASE_S_DAG
        for b in nb:
            out = out.compose_frame(b, u)
        return out
    # axis == "x"
    if not nb:
        if s == 1:
            raise GraphError(
                "X outcome 1 on an isolated vertex has probability zero")
        return _delete_vertex(g, v)
    b0 = min(nb)
    nb0 = g.neighbors(b0)
    out = local_complement(g, b0)
    out = local_complement(out, v)
    out = _delete_vertex(out, v)
    out = local_complement(out, b0)
    if s == 0:
        out = out.compose_frame(b0, SQRT_PLUS_IY)
        z_set = nb - nb0 - {b0}
    else:
        out = out.compose_frame(b0, SQRT_MINUS_IY)
        z_set = nb0 - nb - {v}
    for b in z_set:
        out = out.compose_frame(b, PAULI_Z)
    return out


def _measure(g: GraphState, v, pauli: str, outcome: int) -> GraphState:
    if outcome not in (0, 1):
        raise GraphError(f"outcome must be 0 or 1, got {outcome!r}")
    axis, sign = _conjugated_pauli(g.frame(v), pauli)
    s = outcome if sign > 0 else 1 - outcome
    return _measure_graph_pauli(g, v, axis, s)


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
    """Mode map of the bin-sorting swap on (h1, v1, h2, v2)."""
    return np.array([[0, 0, 1, 0],
                     [0, 1, 0, 0],
                     [1, 0, 0, 0],
                     [0, 0, 0, 1]], dtype=complex)


def pbs_timebin(state: FockState, bins) -> FockState:
    """Swap the first and third of a four-bin block (h1, v1, h2, v2).

    This is the bin-sorting element: the h bins of the two qubits are
    exchanged, the v bins pass through.
    """
    bins = tuple(int(b) for b in bins)
    if len(bins) != 4 or len(set(bins)) != 4 \
            or any(not 0 <= m < state.n_modes for m in bins):
        raise GraphError(f"bins {bins} must be four distinct modes")
    return swap_modes(state, bins[0], bins[2])


def waveplate_timebin(state: FockState, pair, theta: float = math.pi / 4,
                      phi: float = 0.0) -> FockState:
    """Beamsplitter between the two bins of one dual-rail pair."""
    return apply_beamsplitter(state, pair[0], pair[1], theta, phi)


@dataclass(frozen=True)
class FusionResult:
    """Detector record of one fusion attempt.

    ``probability`` is the sampled outcome's probability and ``state`` the
    conditional state on the surviving modes; ``success_probability`` is the
    analytic weight of all success patterns for the given input.
    ``graph_action`` describes what the outcome does to the cluster picture
    (see ``apply_fusion_graph_rule``).
    """

    success: bool
    outcome: tuple
    probability: float
    success_probability: float
    state: FockState
    graph_action: dict


def fusion_type_i(state: FockState, pair_a, pair_b, rng) -> FusionResult:
    """Fuse two dual-rail qubits, keeping the first one.

    Swap the first bins, rotate the second pair by 45 degrees, and detect
    its two bins.  One photon there heralds success: the logical content
    merges onto the surviving pair, with a Z byproduct when the photon
    lands in the first bin.  Zero or two photons herald failure and act as
    Z measurements of both qubits (the surviving pair then holds vacuum or
    both photons, not a qubit).
    """
    if rng is None:
        raise GraphError("fusion samples detectors and requires an rng")
    work = pbs_timebin(state, tuple(pair_a) + tuple(pair_b))
    work = waveplate_timebin(work, pair_b)
    success_probability = (post_select(work, pair_b, (1, 0))[0]
                           + post_select(work, pair_b, (0, 1))[0])
    outcome, cond, prob = measure_modes(work, pair_b, rng)
    if outcome in ((1, 0), (0, 1)):
        action = {"kind": "merge", "z_on_survivor": outcome == (1, 0)}
        return FusionResult(True, outcome, prob, success_probability, cond,
                            action)
    if sum(outcome) == 0:
        action = {"kind": "separate", "z_outcomes": (1, 0)}
    else:
        action = {"kind": "separate", "z_outcomes": (0, 1)}
    return FusionResult(False, outcome, prob, success_probability, cond,
                        action)


def fusion_type_ii(state: FockState, pair_a, pair_b, rng) -> FusionResult:
    """Fuse two dual-rail qubits, consuming both.

    Swap the first bins, rotate both pairs by 45 degrees, and detect all
    four bins.  One photon per pair heralds success: the cluster picture is
    a merge followed by an X measurement of the merged vertex, with the
    outcome bit set by the detector parity.  Two photons in one pair herald
    failure (Z measurements of both qubits).
    """
    if rng is None:
        raise GraphError("fusion samples detectors and requires an rng")
    work = pbs_timebin(state, tuple(pair_a) + tuple(pair_b))
    work = waveplate_timebin(work, pair_a)
    work = waveplate_timebin(work, pair_b)
    modes = tuple(pair_a) + tuple(pair_b)
    success_probability = sum(
        post_select(work, modes, patt)[0]
        for patt in ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)))
    outcome, cond, prob = measure_modes(work, modes, rng)
    a_count, b_count = outcome[0] + outcome[1], outcome[2] + outcome[3]
    if a_count == 1 and b_count == 1:
        # minus sign iff exactly one photon sits in a first (h) bin
        x_outcome = (outcome[0] + outcome[2]) % 2
        action = {"kind": "merge_then_x", "x_outcome": x_outcome}
        return FusionResult(True, outcome, prob, success_probability, cond,
                            action)
    action = {"kind": "separate",
              "z_outcomes": (1, 0) if a_count == 2 else (0, 1)}
    return FusionResult(False, outcome, prob, success_probability, cond,
                        action)


def merge_vertices(g: GraphState, keep, drop) -> GraphState:
    """Merge ``drop`` into ``keep``: the new neighborhood is the symmetric
    difference of the two (each shared neighbor's CZs cancel).  An existing
    keep-drop edge becomes a Z on the merged vertex.  Both vertices must
    carry identity frames.
    """
    if keep == drop:
        raise GraphError("cannot merge a vertex with itself")
    for w in (keep, drop):
        if w not in g.vertices:
            raise GraphError(f"unknown vertex {w!r}")
        if w in g.frames:
            raise GraphError(
                f"vertex {w!r} carries a non-identity frame; fusion rules "
                "apply to bare graph vertices")
    linked = g.has_edge(keep, drop)
    new_nb = (g.neighbors(keep) ^ g.neighbors(drop)) - {keep, drop}
    edges = [e for e in g.edges if keep not in e and drop not in e]
    edges += [frozenset((keep, w)) for w in new_nb]
    out = g._replace(vertices=g.vertices - {drop}, edges=edges)
    out.frames.pop(drop, None)
    if linked:
        out = out.compose_frame(keep, PAULI_Z)
    return out


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
    edge_idx = [tuple(sorted(index[w] for w in e)) for e in g.edges]
    scale = 2.0 ** (-m / 2)
    terms = {}
    for bits in itertools.product((0, 1), repeat=m):
        sign = -1.0 if sum(bits[a] * bits[b] for a, b in edge_idx) % 2 else 1.0
        occ = [0] * (2 * m)
        for k, b in enumerate(bits):
            occ[2 * k + b] = 1
        terms[tuple(occ)] = sign * scale
    state = FockState(2 * m, m, terms)
    if g.frames:
        u = np.eye(2 * m, dtype=complex)
        for v, f in g.frames.items():
            k = index[v]
            u[np.ix_((2 * k, 2 * k + 1), (2 * k, 2 * k + 1))] = f
        state = apply_mode_unitary(state, u)
    return state


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
        "frames": {str(v): clifford_tag(m) for v, m in g.frames.items()},
    }
    return json.dumps(payload, sort_keys=True)


def graph_from_json(text: str) -> GraphState:
    data = json.loads(text)
    check_header(data, "graph-state", GraphError)
    by_name = {str(v): v for v in data["vertices"]}
    frames = {}
    for name, tag in data.get("frames", {}).items():
        if name not in by_name:
            raise GraphError(f"frame on unknown vertex {name!r}")
        frames[by_name[name]] = clifford_from_tag(tag)
    return GraphState(data["vertices"], data["edges"], frames)
