"""SQL front-end: lexer, parser, AST, vectorized expression compiler."""

from . import ast
from .compiler import Compiled, compile_expr, compile_predicate, infer_type, to_scan_predicate
from .lexer import Token, tokenize
from .parser import parse, parse_expr

__all__ = [
    "ast",
    "tokenize",
    "Token",
    "parse",
    "parse_expr",
    "compile_expr",
    "compile_predicate",
    "infer_type",
    "to_scan_predicate",
    "Compiled",
]
