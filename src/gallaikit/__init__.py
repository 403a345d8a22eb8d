"""gallaikit: search and verification for colorings that avoid monochromatic and rainbow patterns.

The package covers finite grids (rectangle avoidance), complete graphs
(rainbow triangles versus monochromatic C4/P4, with exact small
Gallai-Ramsey numbers), DIMACS export of grid instances, and the
Euclidean constructions that transfer those finite statements to
colorings of high-dimensional space.

Import each name from the module that defines it (grid, search, sat,
graphs, euclid, cli); only euclid needs numpy.
"""

__version__ = "0.1.0"
