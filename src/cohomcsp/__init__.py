"""Local-consistency and cohomological decision procedures for CSP and
structure isomorphism, with the instance generators used to separate them."""

from .structures import (LocalSection, SearchResult, Signature, Structure,
                         StructureFormatError, brute_force_hom, brute_force_iso,
                         is_partial_hom, is_partial_iso, load_structure,
                         save_structure, structure_from_json, structure_to_json,
                         validate_structure)
from .presheaf import (Context, Section, SectionSet, all_contexts,
                       bij_forth_holds, classical_fixpoint, enumerate_sections,
                       forth_holds, wl_fixpoint)
from .intlinalg import IntLattice, SparseEchelon
from .cohomology import (CompatibilitySystem, DecisionReport,
                         build_compatibility_system, invert_section_set,
                         run_decision)
from .generators import (AffineSystem, CfiSpec, OrderedGraph,
                         affine_solvable_brute, affine_solvable_mod,
                         affine_to_instance, cfi_equations, cfi_structure,
                         complete_graph, cycle_graph, flow_system,
                         graph_from_text, graph_to_text, named_graph,
                         path_graph, phi_interpretation, random_instances,
                         ring_structure, tseitin_system, zero_twist)

__version__ = "0.1.0"
