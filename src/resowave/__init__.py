"""resowave: periodic solutions of completely resonant nonlinear wave equations.

Spectral machinery for u_tt - u_xx + f(u) = 0 with Dirichlet conditions on
(0, pi): frequency admissibility, contraction solution of the range equation,
variational search on the resonant kernel, solution records, a time-domain
integrator, and a verification suite for every identity the construction uses.
Each lives in its own module and is imported from it (``from resowave import
search``); the package root re-exports nothing.
"""

__version__ = "0.1.0"
