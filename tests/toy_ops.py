"""Scalar readouts for toy losses in the tests, built from the package's
own ops so their gradients come from the ops under test."""

from poshan.grad import hadamard, sum_axis


def dot(a, b):
    """Inner product of two rank-1 tensors as a scalar tensor:
    ``sum_axis(hadamard(a, b))``."""
    return sum_axis(hadamard(a, b))
