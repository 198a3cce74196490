"""Small complexes that the tests build and the package does not ship."""

from nccwk import IntMatrix, NccwComplex


def dimension_drop(p: int) -> NccwComplex:
    """The prototype interval algebra with scalar fibers of multiplicity p
    at both endpoints; p = 2 is the building block of the torsion examples."""
    return NccwComplex((1, 1), (p,),
                       IntMatrix.from_rows([[p, 0]]),
                       IntMatrix.from_rows([[0, p]]))
