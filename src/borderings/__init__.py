"""b-orderings of integer subsets and the generalized factorials they induce.

The library computes greedy valuation-minimising orderings of arbitrary
subsets of Z for every base b >= 0, the well-defined exponent invariants
they share, and the factored generalized factorials, integers and
binomial coefficients over arbitrary finite base sets, with closed-form
fast paths for the integers and the primes and a verification harness
covering the supporting theory at desk scale.

The harness, `borderings.verify`, is imported on demand: by
`import borderings.verify`, or by the `borderings verify` command.
`import borderings` and every other command never load it.
"""

__version__ = "0.1.0"

from .numerics import INF, ExtNat, ord_b, digits, digit_sum, cumulative_digit_sum, floor_sum
from .intsets import (
    AllIntegers,
    ArithmeticProgression,
    ExplicitFinite,
    IntegerSet,
    NonnegativeIntegers,
    Primes,
    SetSpecError,
    parse_set_spec,
)
from .ordering import (
    CANONICAL,
    BOrdering,
    ExponentSequence,
    RandomTieBreak,
    b_ordering,
    check_majorization,
    evaluate_multiplicative,
    evaluate_test_sequence,
    exponent_sequence,
    greedy_step,
    pairwise_valuation_sum,
)
from .factored import BaseSet, BaseSetError, FactoredNumber, parse_base_spec
from .factorials import (
    factorial,
    gen_binomial,
    gen_integer,
    nu_bar,
    pairwise_multiple_check,
    row_product,
)
from .series import (
    CapError,
    TOrderValue,
    TruncatedSeries,
    congruence_check,
    maxmin_check,
    phi_b,
    t_ordering,
)
from . import closedforms, tables
