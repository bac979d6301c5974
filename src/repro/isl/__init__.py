"""A pure-Python substitute for the Integer Set Library (ISL).

Implements the subset of ISL that the Tiramisu compiler relies on:
integer sets and maps defined by affine constraints (with existential
division dimensions), exact integer emptiness via the Omega test,
Fourier-Motzkin projection, map application and composition, subtraction
and subset tests, point enumeration, simplification, and a parser/printer
for the ISL set/map notation used throughout the paper.
"""

from .basic import BasicMap, BasicSet
from .cache import cache_disabled as isl_cache_disabled
from .cache import clear as isl_cache_clear
from .cache import stats as isl_cache_stats
from .constraint import EQ, GE, Constraint
from .enumerate_ import count, points
from .linexpr import DIV, IN, OUT, PARAM, LinExpr
from .parser import ParseError, parse, parse_map, parse_set
from .sample import lexmax, lexmin, sample
from .simplify import gist, remove_redundant, simple_hull
from .space import Space
from .union import Map, Set

__all__ = [
    "BasicMap", "BasicSet", "Constraint", "EQ", "GE",
    "count", "points", "DIV", "IN", "OUT", "PARAM", "LinExpr",
    "ParseError", "parse", "parse_map", "parse_set",
    "lexmax", "lexmin", "sample",
    "gist", "remove_redundant", "simple_hull", "Space", "Map", "Set",
    "isl_cache_clear", "isl_cache_disabled", "isl_cache_stats",
]
