"""Local-consistency and cohomological decision procedures for CSP and
structure isomorphism, with the instance generators used to separate them."""

from .structures import (LocalSection, SearchResult, Signature, Structure,
                         StructureFormatError, brute_force_hom, brute_force_iso,
                         is_partial_hom, is_partial_iso, load_structure,
                         save_structure, structure_from_json, structure_to_json,
                         validate_structure)
from .presheaf import (Context, SectionSet, all_contexts, bij_forth_holds,
                       classical_fixpoint, downward_close, enumerate_sections,
                       forth_holds, remove_with_upset, restrict, wl_fixpoint)
from .intlinalg import (HnfResult, IntLattice, IntMatrix, SparseEchelon,
                        det_bareiss, dump_system, hermite_normal_form,
                        solve_diophantine)
from .cohomology import (CompatibilitySystem, DecisionReport, ZLinearSection,
                         build_compatibility_system, cohom_consistency_fixpoint,
                         cohom_wl_fixpoint, invert_section_set, run_decision,
                         z_bi_extendable, z_extendable, z_linear_witness)
from .generators import (AffineSystem, CfiSpec, OrderedGraph,
                         affine_solvable_brute, affine_solvable_mod,
                         affine_to_instance, cfi_equations, cfi_structure,
                         complete_graph, cycle_graph, flow_system,
                         graph_from_text, graph_to_text, named_graph,
                         path_graph, phi_interpretation, random_instances,
                         ring_structure, tseitin_system, zero_twist)

__version__ = "0.1.0"
