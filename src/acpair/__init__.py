"""acpair: presentations as 2-complexes with a fixed wedge boundary,
Andrews-Curtis style move scripts as replayable certificates, the formal
pairing algebra, and exact chain-level homology.

The names imported below are the library surface."""

__version__ = "0.1.0"

from .presentations import (CanonicalKey, ClosedComplex, Presentation,
                            abelianization, canonical_key, disjoint_union,
                            euler_char, forget_boundary, make_presentation,
                            parse_presentation, product, unit_presentation,
                            wedge_s1, wedge_s2)
from .moves import (MoveScript, SearchBudget, SearchOutcome,
                    apply_automorphism, bounded_equivalence_search,
                    expand_restricted_slides, invert_script, replay,
                    slide_exponent_ledger)
from .pairing import EquivalenceCertificate, FormalSum, verify_null
from .constructions import (IsoWitness, NormalClosureWitness, WitnessBudget,
                            common_generators, lustig, null_vector_pipeline,
                            product_stabilization,
                            search_normal_closure_witness,
                            verify_smove_certificates)
from .homology import (AbelianGroup, ChainComplexData, FiniteGroup,
                       GroupRingMatrix, check_dyer_bound, determinant,
                       euler_char_chain, glue_product, homology_at,
                       invariant_factors, matrix_rank, product_euler,
                       restrict_scalars, smith_normal_form)
