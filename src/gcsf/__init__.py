"""Numerical laboratory for the power-of-curvature contracting flow.

The modules are the API; import them, as in ``from gcsf import flow``.
gcsf.geometry represents convex plane curves by sampled support functions;
gcsf.flow moves them inward with normal speed equal to a power of curvature;
gcsf.solitons solves the translating-soliton ODEs and the blow-down,
Legendre and comparison checks built on top of them; gcsf.tables writes and
reads their CSV tables; gcsf.cli runs, sweeps and verifies experiments.
"""

__version__ = "0.1.0"
