"""loopqc — compile and simulate time-bin linear optics on a two-loop machine.

The package is organized around four layers:

- ``fock``: exact sparse simulation of photon-number states under passive
  optics, plus permanent-based transition amplitudes.
- ``loop``: the operational model of a machine built from two nested fiber
  delay loops with a single programmable coupler, driven by per-time-bin
  pass settings, with ancilla injection/extraction and measurement records.
- ``compiler``: decomposition of arbitrary mode unitaries into pass
  schedules for that machine, plus schedule verification.
- ``gates`` / ``cluster``: measurement-induced two-qubit gates (heralded
  sign-shift and controlled-Z), dual-rail fusion operations, and a graph
  state layer with probabilistic bonding.

Only the names the README quick tour uses are re-exported here; everything
else is imported from its module (``loopqc.fock``, ``loopqc.loop``, ...).
"""

from .cluster import (
    GraphState,
    bond_micro_clusters,
    fusion_type_i,
    graph_to_fock,
    graph_union,
    required_branches,
)
from .compiler import VerificationError, compile_unitary, verify_schedule
from .fock import FockState, apply_beamsplitter, haar_unitary
from .gates import cz_gadget_unitary, dual_rail_ket, klm_round
from .seeding import derive_rng

__version__ = "0.1.0"
