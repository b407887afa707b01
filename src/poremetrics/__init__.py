"""Dyadic pore statistics and distance-weight Muckenhoupt diagnostics."""

from .dyadic import Cube
from .errors import InsufficientDepthError, ParseError, PreconditionError
from .pores import (
    FractionQuery,
    LengthAnswer,
    PoreFamily,
    Side,
    enumerate_pores,
    fraction_length,
    ratio_condition,
    weak_porosity_check,
)
from .porestats import (
    BinomialModel,
    LengthDistribution,
    MarkovBounds,
    binomial_check,
    divergence_scan,
    kakeya_product,
    length_law,
    length_laws,
    markov_bounds_from_moments,
    moment,
    moment_closed_form,
    moment_prefixes,
    normal_gap,
    tilde_quantiles,
)
from .rationals import format_rational, parse_rational
from .setmodels import (
    BoxUnion,
    ContractionSequence,
    FinitePoints,
    Generated,
    IntegerLattice,
    SetOracle,
    envelope_cube,
    envelope_length,
    load_set_spec,
    oracle_from_spec,
    save_set_spec,
)
from .weights import (
    ApQuery,
    ApResult,
    MeanValue,
    a1_quotient,
    ap_product,
    mean_dist_power,
)

__version__ = "0.1.0"
