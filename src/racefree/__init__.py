"""Static analyzer for lock-based concurrent programs.

A one-pass front end (a parser that lowers each statement straight to the
sync-CFG's commands), interleaving and thread-local reference semantics with
bounded exploration and happens-before race checking, sync-CFG abstract
analyses over interval/octagon/environment-set domains, owned-variable
assertion discharge, and a metatheory check harness.
"""

from .checker import check_assertions, compute_owned_oracle, compute_owned_static
from .concrete import find_data_races, find_region_races
from .engine import AnalysisConfig, analyze_fixpoint, collecting_fixpoint
from .lang import Program, parse_program, validate_program
from .syncfg import build_syncfg

__all__ = [
    "AnalysisConfig",
    "Program",
    "analyze_fixpoint",
    "build_syncfg",
    "check_assertions",
    "collecting_fixpoint",
    "compute_owned_oracle",
    "compute_owned_static",
    "find_data_races",
    "find_region_races",
    "parse_program",
    "validate_program",
]
