"""quivercert: certified computations with finite-dimensional quiver algebras.

Covers exact linear algebra over GF(p)/Q, path-algebra quotients and
tensor products, module categories with Auslander-Reiten style functors,
torsionless/divisible inventories, endomorphism-category global
dimension, tier layerings, and polynomial-lattice Ext witnesses, all
emitted as reproducible certificates.
"""

from .fields import GF, QQ, Field, FieldError, field_from_name, field_name
from .matrix import Matrix, NoSolution

__version__ = "0.1.0"

__all__ = [
    "GF",
    "QQ",
    "Field",
    "FieldError",
    "field_from_name",
    "field_name",
    "Matrix",
    "NoSolution",
    "__version__",
]
