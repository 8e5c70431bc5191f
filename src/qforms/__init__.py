"""Class groups of binary quadratic forms and statistics of the primes they represent."""

from .arith import (
    Discriminant,
    build_sieve,
    classify_discriminant,
    fundamental_discriminants,
    kronecker,
)
# NB: the characters() enumerator is deliberately not re-exported here so the
# qforms.characters submodule binding survives; import it from the submodule.
from .characters import build_w_table, kronecker_factorize
from .forms import QuadForm, class_group, reduce_form, representation_count

__version__ = "0.1.0"

__all__ = [
    "Discriminant",
    "QuadForm",
    "build_sieve",
    "build_w_table",
    "class_group",
    "classify_discriminant",
    "fundamental_discriminants",
    "kronecker",
    "kronecker_factorize",
    "reduce_form",
    "representation_count",
]
