"""One-dimensional coined quantum walks: bands, topology, symmetries, edges.

The root exports the names of the README's quick start; everything else is
imported from its module, e.g. ``from dtqw.lattice import build_walk``.
"""

from .core import CoinParams
from .edge import InterfaceSpec, analytic_edge_state
from .topology import rel_homotopy_invariant

__version__ = "0.1.0"
