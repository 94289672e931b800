"""The numbers several modules share: the starting quadrature resolution
and the shared identity gates.

A run has two settable numbers.  ``--quad-points`` is the starting point
count of every moment quadrature (QUAD_POINTS by default).  ``--tol`` is one
scale factor on every identity gate: each gate is its stated tolerance times
``--tol``, whether the gate is checked by a report (IDENTITY_TOL and the
constants each suite states) or by the construction itself (FIT_TOL, which
gates the U read only).  Every identity is checked on exact data
(polynomials, moment series and their derivatives), so there is one identity
tier.  Defaults are sized for double precision; the level at which each
suite meets them on the flagship weight is stated in the README.  The
controls that take a single value live next to their only reader.
"""

QUAD_POINTS = 256
# Identity residuals computed from exact data.
IDENTITY_TOL = 1e-9
# Ceiling on the out-of-band ratio of U's exact series reads: the orders
# around the band must vanish to this fraction.  The quadruples' ratios are
# report entries (degree_certification), gated at 1e-7.
FIT_TOL = 1e-6
