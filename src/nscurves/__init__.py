"""Curves on triangulated surfaces: normal coordinates, minimal position,
bicorn constructions, and hyperbolicity measurements for the graphs of
nonseparating curves."""

__version__ = "0.1.0"

from .surface import Surface, build_surface, parse_surface_spec, validate
from .homology import HomologyBasis, HomologyClass, homology_basis
from .curve import (Curve, boundary_parallel_curve, curve_from_normal_coords,
                    dehn_twist, parse_curve, random_curve,
                    random_nonseparating, torus_slope, twist_generators)
from .pairconfig import (PairConfiguration, algebraic_intersection,
                         cut_components, draw_pair, find_complement_curve,
                         intersection_number, intersection_witness)
from .bicorn import (Bicorn, BicornGraph, BoundViolation, bicorn_graph,
                     bicorn_successor, connect_in_bicorn_graph, distance_path,
                     enumerate_bicorns, project_to_sides, surgery_step,
                     triple_config)
from .verify import (BallGraph, VerificationReport, build_ball,
                     four_point_delta, run_verifier)

