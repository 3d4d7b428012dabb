"""Exact-arithmetic construction and verification of finite Siegel-type
Lagrangian geometry over quadratic extensions of small prime fields.

Import each name from its module (`fsiegel.lagrangian`, `fsiegel.orbits`, ...);
`python -m fsiegel` is the command line.  The package binds only `cayley` (the
benchmark checks that its tracer wraps `fsiegel.cayley` too), so `import fsiegel`
loads the modules `cayley` needs and no others."""

from .cayley import cayley

__version__ = "0.1.0"
