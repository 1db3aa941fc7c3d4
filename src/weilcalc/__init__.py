"""Exact calculus for connections on algebroids presented by polynomial data.

Everything is exact rational arithmetic over a single polynomial chart:
the package provides the sparse polynomial ring, trivialized algebroid
presentations, the cochain complex of frame-valued tables with its
simplicial differential, exterior covariant derivatives, horizontal
projection and derivative for a bundle of ideals, curvature and
obstruction machinery, and a spec-file CLI.
"""

from .polyring import Poly, poly_from_str, poly_to_str
from .errors import ContractError, SpecError, StructureError
from .algebroid import AlgebroidPresentation, Section, VForm, bracket
from .connections import (ARep, LinearConnection, act, compose, induced_end_connection,
                          induced_end_rep, lieA_derivative)
from .weil import (WeilCochain, bounded_kernel, check_IM, delta, dnabla_cochain,
                   eval_row, evaluate, invariance_form, is_A_invariant,
                   is_horizontal, solve_coboundary, validate_algebroid,
                   validate_rep, wedge_Ttheta)
from .ideals import (Dhor, IdealBundle, IMConnection, ad_inverse, abelian_primitive_check,
                     bianchi_check, bracket_of_forms, build_coupled, c2,
                     check_semisimple, coupled_presentation, coupling_checks,
                     curvature, curving_suite, deform, frame_splitting, hstar,
                     obstruction_cocycle, primitive_from_pair, splitting_cochain,
                     splitting_curvature, unique_curving, wedgedot)
from .fixtures import FIXTURE_NAMES, Fixture, build_fixture, random_cochain

__version__ = "0.1.0"
