"""Variational-inequality solver toolkit: affine operators with certified
moduli, convex sets with exact projections, projection-type solvers, and a
brute-force grid oracle that cross-validates them."""

__version__ = "0.1.0"
