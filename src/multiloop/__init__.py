"""Exact computer algebra for twisted multiloop Lie algebras.

Constructs split simple Lie algebras in Chevalley bases, twists their loop
algebras by commuting finite-order automorphisms via Galois descent over
Laurent polynomial rings, builds the central extension by the quotient of
one-forms modulo exact forms, and verifies the structural claims (cocycle
laws, centre, perfectness, windowed graded 2-cohomology) in exact
cyclotomic-rational arithmetic.
"""

from .cyclotomic import CyclotomicField, CyclotomicNumber, root_of_unity
from .descent import DescentCocycle, LoopAlgebra, LoopElement, TwistedLoopAlgebra
from .errors import MismatchError, SpecError, StructureError
from .extension import CentralExtension, ExtendedElement
from .kaehler import (
    CentralClass,
    DifferentialForm,
    class_basis_at,
    differential,
    invariant_class_basis,
    reduce_form,
)
from .laurent import GaloisElement, GaloisGroup, LaurentPoly, LaurentRing
from .liealg import (
    LieAutomorphism,
    SplitSimpleLieAlgebra,
    build_algebra,
    diagram_automorphism,
    identity_automorphism,
    is_central_simple,
    simultaneous_eigenspaces,
)
from .session import Session, SessionSpec, load_spec

__version__ = "0.1.0"

__all__ = [
    "CentralClass",
    "CentralExtension",
    "CyclotomicField",
    "CyclotomicNumber",
    "DescentCocycle",
    "DifferentialForm",
    "ExtendedElement",
    "GaloisElement",
    "GaloisGroup",
    "LaurentPoly",
    "LaurentRing",
    "LieAutomorphism",
    "LoopAlgebra",
    "LoopElement",
    "MismatchError",
    "Session",
    "SessionSpec",
    "SpecError",
    "SplitSimpleLieAlgebra",
    "StructureError",
    "TwistedLoopAlgebra",
    "build_algebra",
    "class_basis_at",
    "diagram_automorphism",
    "differential",
    "identity_automorphism",
    "invariant_class_basis",
    "is_central_simple",
    "load_spec",
    "reduce_form",
    "root_of_unity",
    "simultaneous_eigenspaces",
]
