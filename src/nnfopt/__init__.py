"""Maximization of multilinear binary polynomials via knowledge compilation.

The pipeline: encode the instance's multilinear set as CNF, compile the
CNF into a decision-DNNF circuit, then answer max-plus queries (optimum,
top-k, cardinality- or knapsack-constrained optima) on the circuit, or
extract a totally dual integral extended LP formulation from it.
"""

from .circuit import (CapExceeded, CircuitBuilder, NnfCircuit, StructureReport,
                      check_structure, enumerate_models, evaluate, from_nnf_text,
                      model_count, normalize_for_extform, reroot,
                      smooth_binary_form, to_nnf_text)
from .cnf import (CnfFormula, CnfVariable, encode_basic, encode_ordered,
                  formula_hypergraph, formula_incidence_graph, instance_variables,
                  lift_decomposition)
from .compiler import (CompileConfig, compile_formula, compile_instance,
                       encode_instance, order_from_beta, order_from_decomposition)
from .extform import (LinearSystem, Row, build_system, certificate_point,
                      certificate_tree_cost, dual_optimize, enumerate_certificates,
                      to_lp_text, tu_counterexample_check, validate_certificate,
                      weight_edge_costs)
from .hypergraph import (Graph, Hypergraph, LiteralInstance, TreeDecomposition,
                         beta_elimination_order, cycle_decomposition,
                         incidence_graph, is_beta_acyclic,
                         is_valid_elimination_order, minfill_decomposition)
from .instances import (CardinalitySpec, GuardViolation, ParsedInstance, ParseError,
                        brute_force, format_instance, gen_labs, labs_energy, parse_instance)
from .maxplus import (NEG_INF, Optimum, WeightFunction, optimize,
                      project_solution, top_k, weights_from_profits)
from .transforms import counting_transform, knapsack_transform, restrict_cardinality

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
