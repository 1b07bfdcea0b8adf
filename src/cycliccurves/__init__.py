"""Curves with a cyclic automorphism group of order at least 2g + 1.

Exact-arithmetic classification of the curve families admitting such a
group in odd characteristic (and the classical characteristic-0 case),
enumeration of their ramification signatures, and independent
verification of genera and automorphism structure by finite-field point
counting and zeta-function inference.
"""

from .ramification import (
    FiltrationProfile,
    Inconsistent,
    InvalidFiltration,
    NotADivisor,
    OrbitDatum,
    Signature,
    rh_genus_tame,
    rh_genus_wild,
)
from .families import (
    ASPower,
    ASRational,
    CurveModel,
    DegenerateModel,
    Homma,
    Hyperelliptic,
    Kummer,
    NotPrimitive,
    PrimitivePair,
    kummer_genus,
)
from .classify import (
    BadGenus,
    BadOrder,
    OrderTooLarge,
    SasakiReport,
    TooManyCandidates,
    TooManyIndices,
    UnsupportedCharacteristic,
    canonical_pair,
    enumerate_signatures,
    primitive_pairs,
    verify_sasaki_bound,
)
from .fforacle import (
    FieldTooLarge,
    FiniteField,
    HasseWeilViolation,
    InsufficientCounts,
    NotAnAutomorphism,
    OrbitReport,
    OrderMismatch,
    PlaceCountSeries,
    PreconditionViolated,
    count_places,
    count_places_naive,
    count_series,
    field,
    verify_automorphism,
    zeta_genus,
)

__version__ = "0.1.0"
