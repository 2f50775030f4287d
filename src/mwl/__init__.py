"""Exact toolkit for weak lengths, bivariant upgradings and mean values
of group-ring modules over finitely generated abelian groups.

Everything is computed in exact arithmetic: log values are integer
counts, rationals are fractions, and Folner ratios compare by
cross-multiplication, so identities like log 4 = log 2 + log 2 are
integer facts rather than floating-point coincidences.
"""

from .bivariant import (
    COVER_LOG,
    BivariantSpec,
    check_upgrading_proper,
    cover_bivariant,
    kernel_witness,
    quotient_bivariant,
)
from .errors import ConfigurationError, DomainError, SetSizeLimitError
from .finabelian import (
    AbHom,
    FinAbGroup,
    direct_sum,
    hom_image,
    hom_kernel,
    quotient_group,
    subgroup_generated,
    torsion_k,
)
from .groupring import (
    ShiftModule,
    coeff_quotient,
    embed_subset,
    gr_translate,
    orbit_sum,
    principal_quotient,
)
from .intmat import smith_normal_form
from .meanlen import (
    FolnerBoxes,
    MeanEstimate,
    addition_report,
    ratio_sequence,
)
from .registry import example_names, run_example
from .subsets import Element, FiniteSubset, difference_set, minkowski_sum, union
from .values import LengthValue, MeanRatio, value_add, value_cmp
from .weaklength import (
    GEN,
    LOG_CARD,
    NU,
    RANK,
    WeakLengthSpec,
    check_axiom,
    eval_weak_length,
    tors_log,
)

__version__ = "0.1.0"
