"""genred: exact representation and reduction of finite hidden Markov
generators.

A generator is a Markov transition kernel from internal states to (next
state, output symbol) pairs.  This package computes the exact word
distributions a generator induces, decides process equivalence, and reduces
generators to minimal observationally equivalent form, all in exact
rational arithmetic.
"""

from .core import (
    DeterministicGenerator,
    Distribution,
    Generator,
    Partition,
    as_fraction,
    fraction_str,
    from_deterministic,
    pushforward,
    validate,
)
from .catalog import (
    CircleModel,
    arc_length_distribution,
    catalog,
    complete_randomness,
    markov_shift,
    rational_rotation,
)
from .errors import (
    AlphabetMismatchError,
    DistributionMismatchError,
    FileFormatError,
    GenredError,
    NotTransitionPreservingError,
    RowNotNormalizedError,
    SizeLimitError,
    UnknownFixtureError,
    UnknownStateError,
    UnknownSymbolError,
)
from .morphism import Morphism, check_transport, relabel_outputs, verify
from .process import (
    WordTable,
    causal_state_partition,
    equivalent,
    sample,
    shortest_distinguishing_word,
    word_distribution,
    word_probability,
)
from .reduce import (
    EventReducedGenerator,
    ReductionResult,
    event_reduction,
    minimal_reduction,
    sigma_observation_partition,
    state_reduction,
)

__version__ = "0.1.0"

__all__ = [
    "AlphabetMismatchError",
    "CircleModel",
    "DeterministicGenerator",
    "Distribution",
    "DistributionMismatchError",
    "EventReducedGenerator",
    "FileFormatError",
    "Generator",
    "GenredError",
    "Morphism",
    "NotTransitionPreservingError",
    "Partition",
    "ReductionResult",
    "RowNotNormalizedError",
    "SizeLimitError",
    "UnknownFixtureError",
    "UnknownStateError",
    "UnknownSymbolError",
    "WordTable",
    "arc_length_distribution",
    "as_fraction",
    "catalog",
    "causal_state_partition",
    "check_transport",
    "complete_randomness",
    "equivalent",
    "event_reduction",
    "fraction_str",
    "from_deterministic",
    "markov_shift",
    "minimal_reduction",
    "pushforward",
    "rational_rotation",
    "relabel_outputs",
    "sample",
    "shortest_distinguishing_word",
    "sigma_observation_partition",
    "state_reduction",
    "validate",
    "verify",
    "word_distribution",
    "word_probability",
]
