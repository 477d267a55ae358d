"""F-polynomials, tropical F-polynomials, and Newton polytopes of quiver
representations, with stabilization functors and structural verifiers."""

from .errors import (CostCapExceeded, FpolyError, GenericityError, InvalidInput,
                     InvalidSubrepresentation, InvariantViolation,
                     NonPolynomialCount)
from .quiver import Quiver, euler_form, kronecker_quiver, cycle_quiver
from .rep import (Representation, RepRecipe, Subrep, direct_sum, dual,
                  ext_dim_hereditary, generic_hom_ext, generic_sub_dims,
                  hom_dim, make_subrep, quotient, restrict_to_sub)
from .grassmannian import (enumerate_subreps, maximizer_dims, sub_dim_vectors,
                           subrep_counts, subrep_dim_vectors, tropical_f,
                           unique_subrep)
from .polynomial import MultiPoly, f_polynomial, restrict_to_face
from .polytope import Polytope, convex_hull, lattice_points
from .presentations import (Presentation, cokernel, generic_cokernel,
                            generic_hom_e, hom_e, injective_representation,
                            nakayama_kernel, projective_representation,
                            random_presentation)
from .cluster import (Seed, b_matrix, find_by_delta, initial_seed, mutate,
                      run_sequence, seed_from_quiver)
from .stabilization import (GradedData, StableFactorData, TorsionSplit,
                            graded_semistable_f, is_semistable,
                            stable_factors, torsion_split, verify_cones,
                            verify_facet_restriction, verify_facets,
                            verify_saturation, verify_vertex_theorems)

__version__ = "1.0.0"
