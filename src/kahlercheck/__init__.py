"""Obstruction tests for Kahler groups and Kahler homomorphisms on
finitely presented groups.

The battery: abelianization parity, non-quadraticity of the Malcev Lie
algebra (formality), non-strictness of induced Malcev maps, and
non-torsion splitting obstructions of central extensions.  Every verdict
is one-directional: a fired test certifies "not Kahler" with a witness;
nothing here can certify the converse.
"""

from .extensions import (CentralExtension, ExtensionClass,
                         abelianization_obstruction,
                         canonical_class2_extension, class_and_torsion,
                         pushout_extension, recognize_extension,
                         section_search)
from .homology import (cup_injectivity_check, cup_product, h1,
                       h1_cocycle_basis, h1_parity_check, one_cocycle)
from .intlinalg import (AbelianStructure, IntMatrix, SNFResult, cokernel,
                        smith_normal_form, solve_integer, solve_rational)
from .lieranks import (BudgetExceededError, GradedRanks, TruncatedSeries,
                       build_quotient_algebra, derived_image_check,
                       formality_test, holonomy_ranks, lcs_ranks,
                       magnus_expansion, malcev_map, strictness_check)
from .presentation import (EXACT, IN_ABELIANIZATION, IN_NILPOTENT,
                           UNVERIFIED, Generator, GroupHom, InternalError,
                           ParseError, Presentation, VerificationError, Word,
                           build_presentation, commutator, compose,
                           free_reduce, parse_file, parse_presentation,
                           parse_word_in, serialize_presentation, verify_hom,
                           word_str)
from .surface import (OrbifoldSurfaceGroup, SurfaceGroup, dehn_trivial,
                      maximal_surface_map_check, orbifold_group,
                      orbifold_kernel_h1_check, surface_group)

__version__ = "0.1.0"
