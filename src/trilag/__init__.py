"""Exact-arithmetic toolkit for 3-graph Lagrangian bounds.

Import names from the module that defines them; the package itself
imports nothing, so ``import trilag.certify`` loads the certificate
alone.

- ``trilag.graphs``: constructions and checkers of oriented graphs.
- ``trilag.lagrangian``: the exact chain on integers -- Lagrangians,
  symmetrization merges, the closed form and g, and the whole chain on
  one instance.
- ``trilag.simplex``: simplex maximization of the complete graph closed
  form (numpy).
- ``trilag.certify``: h as a dict of integer terms, and the exact
  certificate of the final trivariate inequality, one Bernstein form on D
  raised to the first degree with no negative coefficient.
- ``trilag.harness``: exhaustive sweeps over orientations (numpy).
- ``trilag.fileio``: the graph and weight file formats.
- ``trilag.cli``: the ``trilag`` command line.
"""

__version__ = "0.1.0"
