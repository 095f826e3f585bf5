"""The four benchmark workloads: inputs, the job, and the output checks.

Each workload makes every input from the seed (``rng(i)`` for job i) and
hands the program only those inputs.  Job kinds (sizes, gadgets, bonding
probabilities) are drawn in blocks: each block of ``len(pattern)`` jobs is
a seeded permutation of ``pattern``.  Drawing kinds independently per job
would let the mix, and with it every timing, drift from one seed to the
next; the block mix is chosen so that the median and the 90th percentile
of job latency fall well inside one kind's latencies rather than on the
edge between two kinds.

``run`` is the timed job.  ``check`` compares its output with an
independent reference outside the timed region and returns a problem
string, or None when the output is right.  ``digest`` is the part of an
output that must repeat exactly for the same seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

import refs

VERIFY_TOL = 1e-9
FIDELITY_TOL = 1e-9


class Loopqc:
    """The loopqc modules, imported afresh so that import-time work is part
    of every set-up repeat."""

    NAMES = ("fock", "loop", "compiler", "gates", "cluster", "cli", "seeding")

    def __init__(self):
        for name in [m for m in sys.modules if m == "loopqc" or m.startswith("loopqc.")]:
            del sys.modules[name]
        self.package = importlib.import_module("loopqc")
        for name in self.NAMES:
            setattr(self, name, importlib.import_module("loopqc." + name))

    def modules(self):
        return [self.package] + [getattr(self, n) for n in self.NAMES]


class Workload:
    name = ""
    wid = 0
    why = ""
    pattern: tuple = ()

    def __init__(self, lq: Loopqc, seed: int, workdir):
        self.lq = lq
        self.seed = seed
        self.workdir = workdir

    def rng(self, i: int, stream: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.wid, stream, i])

    def kind(self, i: int):
        block, pos = divmod(i, len(self.pattern))
        order = self.rng(block, stream=1).permutation(len(self.pattern))
        return self.pattern[order[pos]]

    def setup(self):
        """Prepare what every job shares, then run one warm-up job."""

    def make_input(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> str | None:
        raise NotImplementedError

    def digest(self, out):
        raise NotImplementedError

    def passes(self, inp, out) -> int:
        """Coupler passes the job streamed through the machine."""
        return 0

    def stats_problems(self) -> list[str]:
        return []

    def layer_metrics(self) -> dict:
        return {}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------


@dataclass
class CompileInput:
    n: int
    target: np.ndarray
    pair: tuple | None


class CompileHaar(Workload):
    name = "compile-haar"
    wid = 1
    why = ("compile_unitary on fresh Haar U, n 4-12: per-call cost of verify -> "
           "effective_unitary -> run_pass -> apply_beamsplitter; loads compiler/loop/fock, "
           "bypasses gates/cluster/cli")
    # n drawn from 4..12, weighted towards small n (a compile at n=12 costs
    # about 120 at n=4) so that p50 falls well inside the n=6 jobs and p90
    # inside the n=11 jobs
    pattern = (4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 7, 8, 9, 10, 11, 11, 12)
    PAIR_RATE = 0.1

    def setup(self):
        self.run(self._input(self.rng(0, stream=2), 6))

    def _input(self, rng, n):
        target = refs.haar(n, rng)
        pair = None
        if rng.random() < self.PAIR_RATE:
            pair = [0] * n
            for mode in rng.integers(n, size=2):
                pair[mode] += 1
            pair = tuple(pair)
        return CompileInput(n, target, pair)

    def make_input(self, i):
        return self._input(self.rng(i), self.kind(i))

    def run(self, inp):
        return self.lq.compiler.compile_unitary(inp.target)

    def check(self, inp, schedule):
        n = inp.n
        if schedule.n_passes > n * (n - 1) // 2 + 1:
            return f"{schedule.n_passes} passes for n={n}"
        passes = [ps.central for rp in schedule.rounds for ps in rp.passes]
        realized, leak = refs.schedule_transfer(passes, n)
        dist = refs.phase_free_distance(realized, inp.target)
        if leak > VERIFY_TOL or not dist < VERIFY_TOL:
            return f"n={n}: realized transfer matrix off by {dist:.3g} (leak {leak:.3g})"
        if inp.pair is not None:
            return self._check_pair(inp, schedule)
        return None

    def _check_pair(self, inp, schedule):
        """Two photons through the schedule against the fock layer's
        ``apply_mode_unitary`` and the permanent formula."""
        fock, loop = self.lq.fock, self.lq.loop
        state = fock.FockState.from_occupation(inp.pair)
        machine = loop.Machine(schedule.config)
        machine.load_pulse_train(state)
        loop.run_schedule(machine, schedule)
        ref = fock.apply_mode_unitary(state, inp.target)
        fid = refs.fidelity(machine.train.amplitudes, ref.amplitudes)
        if not fid > 1 - FIDELITY_TOL:
            return f"n={inp.n}: 2-photon run fidelity {fid!r}"
        top = sorted(ref.amplitudes, key=lambda occ: -abs(ref.amplitudes[occ]))[:3]
        for occ in top:
            p_perm = fock.output_probability(inp.target, inp.pair, occ)
            p_run = abs(machine.train.amplitude(occ)) ** 2
            if abs(p_perm - p_run) > 1e-9:
                return f"n={inp.n}: P{occ} permanent {p_perm!r} vs run {p_run!r}"
        return None

    def digest(self, schedule):
        return schedule.n_passes, _sha(repr([ps.central for rp in schedule.rounds for ps in rp.passes]))

    def passes(self, inp, schedule):
        return schedule.n_passes


# ---------------------------------------------------------------------------


@dataclass
class SimulateInput:
    n: int
    target: np.ndarray
    amplitudes: dict
    photons: int
    argv: list
    recheck_state: bool


class SimulatePhotons(Workload):
    name = "simulate-photons"
    wid = 2
    why = ("in-process 'loopqc simulate --shots' of 2-3 photons through compiled n=6-8 "
           "schedules: per-ket loop/fock work plus cli parsing, sampling, report JSON; "
           "bypasses gates/cluster")
    SIZES = (6, 7, 8)
    SHOTS = 2000
    FIDELITY_RATE = 0.25
    # (bins, photons), in rising cost; p50 falls inside the (7, 2) jobs and
    # p90 inside the (8, 3) jobs
    pattern = ((6, 2), (6, 2), (6, 2), (7, 2), (7, 2), (7, 2), (7, 2), (6, 3), (8, 2), (7, 3),
               (8, 3), (8, 3))

    def setup(self):
        loop, compiler = self.lq.loop, self.lq.compiler
        self.targets, self.paths, self.n_passes = {}, {}, {}
        for n in self.SIZES:
            target = refs.haar(n, self.rng(n, stream=3))
            schedule = compiler.compile_unitary(target)
            path = self.workdir / f"schedule-{n}.json"
            path.write_text(loop.schedule_to_json(schedule))
            self.targets[n], self.paths[n] = target, path
            self.n_passes[n] = schedule.n_passes
        self.state_path = self.workdir / "state.json"
        self.bytes_out, self.cli_jobs = 0, 0
        self.run(self._input(self.rng(0, stream=2), 6, 2))

    def _input(self, rng, n, photons):
        amps = {}
        # three random occupations: one ket confined to the last bins would
        # make a job several times cheaper than the rest of its kind
        for _ in range(3):
            occ = [0] * n
            for mode in rng.integers(n, size=photons):
                occ[mode] += 1
            amps[tuple(occ)] = complex(rng.standard_normal(), rng.standard_normal())
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
        amps = {occ: a / norm for occ, a in amps.items()}
        doc = {"kind": "fock-state", "format_version": "1.0", "n_modes": n,
               "total_photons": photons, "normalized": True,
               "terms": [{"occ": list(o), "re": a.real, "im": a.imag}
                         for o, a in sorted(amps.items())]}
        self.state_path.write_text(json.dumps(doc))
        argv = ["simulate", str(self.paths[n]), str(self.state_path),
                "--seed", str(int(rng.integers(2 ** 31)))]
        return SimulateInput(n, self.targets[n], amps, photons, argv,
                             rng.random() < self.FIDELITY_RATE)

    def make_input(self, i):
        n, photons = self.kind(i)
        return self._input(self.rng(i), n, photons)

    def _invoke(self, argv) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                self.lq.cli.main.main(args=argv, prog_name="loopqc", standalone_mode=False)
            except SystemExit as exc:
                raise RuntimeError(f"loopqc {' '.join(argv)} exited {exc.code}") from None
        return buf.getvalue()

    def run(self, inp):
        return self._invoke(inp.argv + ["--shots", str(self.SHOTS)])

    def check(self, inp, stdout):
        fock = self.lq.fock
        state = fock.FockState(inp.n, inp.photons, inp.amplitudes)
        ref = fock.apply_mode_unitary(state, inp.target).amplitudes
        self.bytes_out += len(stdout.encode())
        self.cli_jobs += 1
        hist = json.loads(stdout)["histogram"]
        counts = {tuple(int(x) for x in k.split(",")): c for k, c in hist.items()}
        if sum(counts.values()) != self.SHOTS:
            return f"histogram sums to {sum(counts.values())}, not {self.SHOTS}"
        for occ, c in counts.items():
            if abs(ref.get(occ, 0j)) ** 2 < 1e-12:
                return f"{c} shots on {occ}, which has probability 0"
        for occ, amp in ref.items():
            if not refs.shot_count_ok(counts.get(occ, 0), self.SHOTS, abs(amp) ** 2):
                return f"{counts.get(occ, 0)} shots on {occ} with probability {abs(amp) ** 2:.4g}"
        if inp.recheck_state:
            final = json.loads(self._invoke(inp.argv))["final_state"]
            amps = {tuple(t["occ"]): complex(t["re"], t["im"]) for t in final["terms"]}
            fid = refs.fidelity(amps, ref)
            if not fid > 1 - FIDELITY_TOL:
                return f"final state fidelity {fid!r}"
        return None

    def digest(self, stdout):
        return _sha(stdout)

    def passes(self, inp, stdout):
        return self.n_passes[inp.n]

    def layer_metrics(self):
        return {"cli.bytes_out": self.bytes_out / self.cli_jobs if self.cli_jobs else 0.0}


# ---------------------------------------------------------------------------


@dataclass
class KlmInput:
    gadget: str
    logical: object
    index: int


class KlmRounds(Workload):
    name = "klm-rounds"
    wid = 3
    why = ("sampled klm_round of the CZ (8 bins) or NS (4 bins) gadget: recompiles the same "
           "two unitaries every round, plus inject/extract and measure_modes; bypasses cluster/cli")
    # two NS rounds per CZ round: p50 falls inside the NS rounds, p90 inside
    # the CZ rounds
    pattern = ("ns", "ns", "cz")
    HERALD = {"cz": (1, 0, 1, 0), "ns": (1, 0)}
    P_HERALD = {"cz": 1 / 16, "ns": 1 / 4}
    LOGICAL = {"cz": ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)),
               "ns": ((2, 0), (1, 1), (0, 2))}

    def setup(self):
        gates, compiler = self.lq.gates, self.lq.compiler
        self.unitary = {"cz": gates.cz_gadget_unitary(),
                        "ns": refs.embed(4, (0, 2, 3), gates.ns_gadget_unitary())}
        self.n_passes = {g: compiler.compile_unitary(u).n_passes for g, u in self.unitary.items()}
        self.rounds = {"cz": 0, "ns": 0}
        self.heralds = {"cz": 0, "ns": 0}
        for gadget in ("ns", "cz"):
            self.run(self._input(self.rng(0, stream=2), gadget, -1))

    def _input(self, rng, gadget, i):
        basis = self.LOGICAL[gadget]
        amps = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        amps /= np.linalg.norm(amps)
        logical = self.lq.fock.FockState(len(basis[0]), 2, dict(zip(basis, amps)))
        return KlmInput(gadget, logical, i)

    def make_input(self, i):
        return self._input(self.rng(i), self.kind(i), i)

    def run(self, inp):
        rng = self.lq.seeding.derive_rng(self.seed, "klm", inp.index)
        final, outcome = self.lq.gates.klm_round(
            inp.logical, self.HERALD[inp.gadget], self.unitary[inp.gadget], rng=rng)
        return inp.gadget, final, tuple(outcome)

    def check(self, inp, out):
        gadget, final, outcome = out
        photons = inp.logical.total_photons + sum(self.HERALD[gadget]) - sum(outcome)
        if (final.n_modes, final.total_photons) != (inp.logical.n_modes, photons):
            return f"{gadget}: final state has {final.n_modes} bins, {final.total_photons} photons"
        self.rounds[gadget] += 1
        if outcome != self.HERALD[gadget]:
            return None
        self.heralds[gadget] += 1
        gates = self.lq.gates
        if gadget == "cz":
            ref = gates.cz_gate(inp.logical, (0, 1), (2, 3), postselect=True)
        else:
            ref = gates.ns_gate(inp.logical, 0, postselect=True)
        fid = refs.fidelity(final.amplitudes, ref.state.amplitudes)
        if not fid > 1 - FIDELITY_TOL:
            return f"{gadget}: heralded state fidelity {fid!r} with the direct gate"
        return None

    def digest(self, out):
        gadget, final, outcome = out
        return gadget, outcome, _sha(repr(sorted(final.amplitudes.items())))

    def passes(self, inp, out):
        return self.n_passes[inp.gadget]

    def stats_problems(self):
        return [f"{g}: {self.heralds[g]} heralds in {self.rounds[g]} rounds, "
                f"beyond 4 sigma of p = {self.P_HERALD[g]}"
                for g in self.rounds
                if not refs.binomial_within_4_sigma(self.heralds[g], self.rounds[g], self.P_HERALD[g])]

    def layer_metrics(self):
        return {f"gates.herald_success_ratio.{g}": self.heralds[g] / self.rounds[g] if self.rounds[g] else 0.0
                for g in ("cz", "ns")}


# ---------------------------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)


@dataclass
class ClusterInput:
    p_gate: float
    k: int
    graph: object
    va: int
    vb: int
    fusion_type: int
    index: int


class ClusterGrow(Workload):
    name = "cluster-grow"
    wid = 4
    why = ("bond two k-branch stars (k for p_gate 1/16, 1/4, 1/2), one type-I/II fusion on "
           "<=6 framed vertices, then the graph rule: the cluster layer; bypasses loop/compiler/cli")
    pattern = (1 / 16, 1 / 4, 1 / 2)
    P_BOND = 0.99
    B_OFFSET = 1000

    def setup(self):
        cluster = self.lq.cluster
        self.stars = {}
        for p in self.pattern:
            k = cluster.required_branches(p, self.P_BOND)
            ga = cluster.GraphState(range(k + 1), [(0, j) for j in range(1, k + 1)])
            b = self.B_OFFSET
            gb = cluster.GraphState(range(b, b + k + 1), [(b, b + j) for j in range(1, k + 1)])
            self.stars[p] = (k, ga, gb)
        self.bonds = {p: [0, 0] for p in self.pattern}
        self.consumed = 0
        self.fusions = [0, 0]
        self.run(self._input(self.rng(0, stream=2), 1 / 4, -1))

    def _small_cluster(self, rng, labels, bare):
        edges = [(labels[j], labels[int(rng.integers(j))]) for j in range(1, len(labels))]
        edges += [(a, b) for x, a in enumerate(labels) for b in labels[x + 1:] if rng.random() < 0.3]
        frames = {}
        for v in labels:
            if v != bare and rng.random() < 0.5:
                m = np.eye(2, dtype=complex)
                for letter in rng.integers(2, size=int(rng.integers(1, 6))):
                    m = m @ (_H if letter else _S)
                frames[v] = m
        return edges, frames

    def _input(self, rng, p_gate, i):
        size_a, size_b = (int(x) for x in rng.integers(2, 4, size=2))
        la, lb = list(range(size_a)), list(range(10, 10 + size_b))
        va, vb = int(rng.choice(la)), int(rng.choice(lb))
        ea, fa = self._small_cluster(rng, la, va)
        eb, fb = self._small_cluster(rng, lb, vb)
        graph = self.lq.cluster.GraphState(la + lb, ea + eb, {**fa, **fb})
        return ClusterInput(p_gate, self.stars[p_gate][0], graph, va, vb,
                            int(rng.integers(1, 3)), i)

    def make_input(self, i):
        return self._input(self.rng(i), self.kind(i), i)

    def run(self, inp):
        cluster, seeding = self.lq.cluster, self.lq.seeding
        i = inp.index
        _, ga, gb = self.stars[inp.p_gate]
        bond = cluster.bond_micro_clusters(ga, gb, (0, self.B_OFFSET), inp.p_gate,
                                           seeding.derive_rng(self.seed, "bond", i))
        verts = sorted(inp.graph.vertices)
        qa, qb = verts.index(inp.va), verts.index(inp.vb)
        fuse = cluster.fusion_type_i if inp.fusion_type == 1 else cluster.fusion_type_ii
        fusion = fuse(cluster.graph_to_fock(inp.graph), (2 * qa, 2 * qa + 1), (2 * qb, 2 * qb + 1),
                      seeding.derive_rng(self.seed, "fusion", i))
        predicted = cluster.apply_fusion_graph_rule(inp.graph, inp.va, inp.vb, fusion.graph_action)
        return bond, fusion, predicted

    def check(self, inp, out):
        (bonded, grown, consumed), fusion, predicted = out
        problem = self._check_bond(inp, bonded, grown, consumed)
        if problem:
            return problem
        self.bonds[inp.p_gate][0] += 1
        self.bonds[inp.p_gate][1] += bonded
        self.consumed += consumed
        self.fusions[0] += 1
        if fusion.success:
            self.fusions[1] += 1
            ref = self.lq.cluster.graph_to_fock(predicted)
            fid = refs.fidelity(fusion.state.amplitudes, ref.amplitudes)
            if not fid > 1 - FIDELITY_TOL:
                return f"type-{inp.fusion_type} fusion state fidelity {fid!r} with the graph rule"
        return None

    def _check_bond(self, inp, bonded, grown, consumed):
        """Each attempt consumes one leaf per star; success leaves one
        connected cluster, failure (all k attempts) leaves two bare centres.
        Connectivity is invariant under the local complementations the
        measurement rules apply, so it pins the outcome exactly."""
        k = inp.k
        if not 1 <= consumed <= k or (not bonded and consumed != k):
            return f"bond consumed {consumed} of {k} branch pairs (success={bonded})"
        if len(grown.vertices) != 2 * (k + 1 - consumed):
            return f"bond left {len(grown.vertices)} vertices after {consumed} attempts"
        adj = {v: set() for v in grown.vertices}
        for e in grown.edges:
            a, b = tuple(e)
            adj[a].add(b)
            adj[b].add(a)
        seen, todo = {0}, [0]
        while todo:
            for w in adj[todo.pop()] - seen:
                seen.add(w)
                todo.append(w)
        if bonded != (len(seen) == len(grown.vertices)):
            return f"bond success={bonded} but the cluster is {'not ' * bonded}connected"
        return None

    def digest(self, out):
        (bonded, grown, consumed), fusion, predicted = out
        edges = lambda g: sorted(sorted(e) for e in g.edges)  # noqa: E731
        return bonded, consumed, _sha(repr(edges(grown))), fusion.outcome, _sha(repr(edges(predicted)))

    def stats_problems(self):
        out = []
        for p, (trials, wins) in self.bonds.items():
            k = self.stars[p][0]
            expected = 1 - (1 - p) ** k
            if not refs.binomial_within_4_sigma(wins, trials, expected):
                out.append(f"p_gate={p}: {wins} bonds in {trials}, beyond 4 sigma of {expected:.4f}")
        return out

    def layer_metrics(self):
        trials = sum(t for t, _ in self.bonds.values())
        return {"cluster.bond_success_ratio": sum(w for _, w in self.bonds.values()) / trials if trials else 0.0,
                "cluster.branches_consumed": self.consumed / trials if trials else 0.0,
                "cluster.fusion_success_ratio": self.fusions[1] / self.fusions[0] if self.fusions[0] else 0.0}


WORKLOADS = {w.name: w for w in (CompileHaar, SimulatePhotons, KlmRounds, ClusterGrow)}
