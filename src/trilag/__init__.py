"""Exact-arithmetic toolkit for 3-graph Lagrangian bounds.

Import names from the module that defines them; the package itself
imports nothing, so ``import trilag.certify`` loads the certificate
alone.

- ``trilag.graphs``: oriented and undirected graphs, which check their
  own pairs, and the triple constructions and checkers of orientations.
- ``trilag.lagrangian``: the exact chain on integers -- Lagrangians,
  symmetrization merges, the closed form and g, and the whole chain on
  one instance.
- ``trilag.simplex``: simplex maximization of the complete graph closed
  form (numpy).
- ``trilag.certify``: the certificate of h >= 0: the form of 96 h on D,
  built from the paper's formula, raised until no coefficient is negative.
- ``trilag.harness``: exhaustive sweeps over orientations (numpy).
- ``trilag.fileio``: the graph and weight file formats.
- ``trilag.cli``: the ``trilag`` command line.
"""

__version__ = "0.1.0"
