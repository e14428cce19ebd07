"""Entrywise positivity preservers on graph-patterned PSD matrices.

Modules by topic: graphs (patterns), matrices (dense core + sampling),
star_tree (closed-form PSD criteria), functions (power sums and grid checks),
constructors (thresholds and preserver polynomials), witnesses (Schur-power
quadratic-form witnesses), cli (reports).  parse_graph and parse_matrix read
the graph and matrix texts of a report back.
"""

from .graphs import Graph, GraphError, build_graph, path_graph, star_graph, complete_graph, random_tree, parse_graph
from .matrices import MatrixError, is_psd, hadamard_power, apply_entrywise, quadratic_form, parse_matrix
from .star_tree import StarMatrix, star_psd_check, tree_psd_check
from .functions import EntrywiseFunction, parse_function, power_function
from .constructors import build_tree_preserver_poly, build_entire_function_partial
from .witnesses import WitnessSet, nk_membership, vandermonde_witnesses, star_witnesses, k_lower_bound, derivative_sign_estimate

__version__ = "0.1.0"
