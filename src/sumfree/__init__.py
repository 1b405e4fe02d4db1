"""Symmetric complete sum-free sets in Z_n.

Constructions, exhaustive ground truth, counting, and the downstream
applications (Cayley graphs, a three-element dioid quotient, and the
random sum-free process), all over exact integer bitmask arithmetic.

The package root exports nothing.  Import from the layer modules, each of
which lists its public names in its own ``__all__``: ``sumfree.errors``,
``zn_core``, ``st_family``, ``special_sets``, ``interval_ap_family``,
``search_oracle``, ``applications`` and ``cli``.  README "Layout" says
what each one holds.
"""

__version__ = "0.1.0"
