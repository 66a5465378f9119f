"""coordgeo: a metric model of the space of 3-D coordination geometries.

The package builds the 22 reference coordination geometries, derives the
bond-angle discretizer from their pooled inherent angles, computes one- and
n-particle extracopularity coefficients and the induced distance, analyses
the resulting metric space (clustering, MDS, typicality), and applies the
machinery to classify local structure in particle snapshots.
"""

from .angles import (AnglePool, AngleProfile, Discretizer, axioms_satisfied,
                     bond_angles, collect_pool, derive_discretizer, discretize,
                     profile)
from .catalog import (CAPPING_RELATION, CODES, TAXONOMY, Catalog, GeometrySpec,
                      build_catalog, build_geometry, capping_reduced_set)
from .coefficients import (ParticleDescriptor, check_loose_bounds,
                           check_upper_bound, d_e, descriptor, e_many, e_one)
from .hull import HullResult, convex_hull
from .shape import moment_per_neighbour, sphericity
from .snapshot import (Frame, NeighbourList, analyze_frame, auto_cutoff,
                       classify, make_lattice, neighbours_cutoff,
                       per_particle_e, read_frames, write_frames)
from .spacemap import (Dendrogram, DistanceMatrix, Embedding, MetricReport,
                       TypicalityReport, class_averages, delaunay_2d,
                       distance_matrix, hierarchical_cluster, mds, typicality,
                       verify_metric)

__version__ = "0.1.0"
