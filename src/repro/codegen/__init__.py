"""Polyhedral code generation: loop synthesis and Python emission."""

from .ast import Block, Loop, Stmt, loops_in, stmts_in, walk
from .isl_to_ast import generate_ast
from .lanes import lane_verdict

__all__ = ["Block", "Loop", "Stmt", "loops_in", "stmts_in", "walk",
           "generate_ast", "lane_verdict"]
