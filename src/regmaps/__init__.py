"""Regular algebraic maps on surfaces, built on finite group actions."""

from .census import (CensusEntry, DEFAULT_CENSUS_MAX_ORDER, census_classify,
                     enumerate_flagged, enumerate_oriented)
from .classify import (ExceptionalCase, PMapClassification, SylowStructure,
                       certify_sylow_structure, classify, detect_p_map,
                       identify_exceptional)
from .coset_enum import (CosetTable, DEFAULT_MAX_COSETS, presentation_group,
                         todd_coxeter)
from .errors import (ClassificationError, ContractViolation, ParseError,
                     RegmapsError, ResourceLimitExceeded, TheoremViolation)
from .grammar import (GroupFile, MapDecl, Realization, format_group_file,
                      format_word, matrix_group, parse_group_file,
                      read_group_text, realize_group_file)
from .group import (DEFAULT_MAX_ORDER, FiniteGroup, Subgroup, closure,
                    coset_action, derived_subgroup, is_solvable,
                    isomorphism_search, normal_core, o_p, quotient_group,
                    standardize, sylow_p)
from .maps import (FlaggedMap, MapReport, OrientedMap, oriented_of_flagged,
                   quotient_map)
from .perm import Perm
from .reporting import ReportDocument, TOOL_VERSION, input_digest, \
    map_section, new_document
from .verify import CheckRow, all_passed, verify_corpus
from .words import Presentation, Word, relator_from_equality

__version__ = TOOL_VERSION

__all__ = [
    "CensusEntry", "CheckRow", "ClassificationError", "ContractViolation",
    "CosetTable", "DEFAULT_CENSUS_MAX_ORDER", "DEFAULT_MAX_COSETS",
    "DEFAULT_MAX_ORDER", "ExceptionalCase", "FiniteGroup", "FlaggedMap",
    "GroupFile", "MapDecl", "MapReport", "OrientedMap",
    "PMapClassification", "ParseError", "Perm", "Presentation",
    "Realization", "RegmapsError", "ReportDocument",
    "ResourceLimitExceeded", "Subgroup", "SylowStructure", "TOOL_VERSION",
    "TheoremViolation", "Word", "all_passed", "census_classify",
    "certify_sylow_structure", "classify", "closure", "coset_action",
    "derived_subgroup", "detect_p_map", "enumerate_flagged",
    "enumerate_oriented", "format_group_file", "format_word",
    "identify_exceptional", "input_digest", "is_solvable",
    "isomorphism_search", "map_section", "matrix_group", "new_document",
    "normal_core", "o_p", "oriented_of_flagged", "parse_group_file",
    "presentation_group", "quotient_group", "quotient_map",
    "read_group_text", "realize_group_file", "relator_from_equality",
    "standardize", "sylow_p", "todd_coxeter", "verify_corpus",
]
