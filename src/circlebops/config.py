"""The identity gate the suites share.  ``--tol``, the one settable number
of a run, scales every report entry's gate: its stated tolerance
(IDENTITY_TOL or a suite's own constant) times ``--tol``.  Every identity
is checked on exact data, so there is one tier; the level at which each
suite meets its gates on the reference weights is stated in the README.
"""

IDENTITY_TOL = 1e-9
