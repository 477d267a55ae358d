"""F-polynomials, tropical F-polynomials, and Newton polytopes of quiver
representations, with stabilization functors and structural verifiers."""

from .errors import (CheckFailed, CostCapExceeded, FpolyError, GenericityError,
                     InvalidInput, InvalidSubrepresentation, InvariantViolation,
                     NonPolynomialCount)
from .quiver import Quiver, euler_form, kronecker_quiver, cycle_quiver
from .rep import (Representation, RepRecipe, Subrep, direct_sum,
                  ext_dim_hereditary, generic_hom_ext, hom_basis, hom_dim,
                  make_subrep, quotient, restrict_to_sub,
                  simple_representation)
from .grassmannian import (count_points, enumerate_subreps, has_subrep,
                           maximizer_dims, sub_dim_vectors, subrep_counts,
                           subrep_dim_vectors, tropical_f, dual_tropical_f,
                           unique_subrep)
from .polynomial import (MultiPoly, euler_characteristic, f_polynomial,
                         restrict_to_face)
from .polytope import (Cone, Polytope, convex_hull, dual_cone_rays,
                       lattice_points, maximizing_face,
                       polytope_from_inequalities)
from .presentations import (Presentation, cokernel, generic_cokernel,
                            generic_hom_e, hom_e, injective_representation,
                            nakayama_kernel, projective_representation,
                            random_presentation)
from .cluster import (Seed, b_matrix, find_by_delta, initial_seed, mutate,
                      run_sequence, seed_from_quiver)
from .stabilization import (GradedData, StableFactorData, TorsionSplit,
                            collapse_monomial, delta_cones, generic_sub_dims,
                            graded_semistable_f, is_semistable, is_stable,
                            newton_via_cones, perpendicular_quiver,
                            stable_factors, torsion_split,
                            verify_facet_restriction, verify_saturation,
                            verify_vertex_theorems)

__version__ = "1.0.0"
