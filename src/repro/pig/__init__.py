"""Pig-like dataflow system: parser, plans, MR compiler, engine."""

from repro.pig.engine import PigRunResult, PigServer
from repro.pig.mrcompiler import MRCompiler
from repro.pig.parser import parse

__all__ = [
    "MRCompiler",
    "PigRunResult",
    "PigServer",
    "parse",
]
