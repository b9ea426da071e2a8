"""The Airfoil application: a standard unstructured-mesh finite-volume CFD code.

Airfoil (Giles et al.) is OP2's canonical demo and the paper's benchmark: an
inviscid 2-D Euler solver around an airfoil with five parallel loops per
timestep (paper Fig 4):

- ``save_soln`` (direct, cells) — copy the solution;
- ``adt_calc`` (indirect, cells via the cell->node map) — local timestep;
- ``res_calc`` (indirect, edges via edge->node and edge->cell maps) — interior
  fluxes, incrementing cell residuals;
- ``bres_calc`` (indirect, boundary edges) — wall/far-field fluxes;
- ``update`` (direct, cells) — explicit update plus an RMS global reduction.

The paper's mesh input file is replaced by a parametric body-fitted O-mesh
generator around a NACA airfoil (:mod:`~repro.airfoil.meshgen`) producing the
same sets/maps/dats layout at any resolution.
"""

from repro.airfoil.constants import FlowConstants
from repro.airfoil.naca import naca4_thickness, naca4_surface
from repro.airfoil.meshgen import AirfoilMesh, generate_mesh
from repro.airfoil.kernels import make_kernels
from repro.airfoil.app import AirfoilApp, AirfoilResult
from repro.airfoil.reference import ReferenceAirfoil
from repro.airfoil.validation import compare_states, max_rel_diff
from repro.airfoil.metrics import ForceCoefficients, compute_forces, reference_forces

__all__ = [
    "FlowConstants",
    "naca4_thickness",
    "naca4_surface",
    "AirfoilMesh",
    "generate_mesh",
    "make_kernels",
    "AirfoilApp",
    "AirfoilResult",
    "ReferenceAirfoil",
    "compare_states",
    "max_rel_diff",
    "ForceCoefficients",
    "compute_forces",
    "reference_forces",
]
