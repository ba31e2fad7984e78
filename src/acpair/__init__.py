"""acpair: presentations as 2-complexes with a fixed wedge boundary,
Andrews-Curtis style move scripts as replayable certificates, the formal
pairing algebra, and exact chain-level homology."""

__version__ = "0.1.0"

from .presentations import (CanonicalKey, ClosedComplex, Presentation,
                            canonical_key, euler_char, make_presentation,
                            parse_presentation, product, wedge_s1, wedge_s2)
from .moves import (MoveScript, SearchBudget, SearchOutcome,
                    bounded_equivalence_search, replay)
from .pairing import EquivalenceCertificate, FormalSum, verify_null
from .constructions import (IsoWitness, NormalClosureWitness, WitnessBudget,
                            common_generators, lustig, null_vector_pipeline,
                            product_stabilization,
                            search_normal_closure_witness,
                            verify_smove_certificates)
from .homology import (AbelianGroup, ChainComplexData, FiniteGroup,
                       GroupRingMatrix, check_dyer_bound, euler_char_chain,
                       glue_product, homology_at, restrict_scalars,
                       smith_normal_form)
