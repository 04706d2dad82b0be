"""Report documents: one stable, timestamp-free JSON shape per invocation.

Field names are part of the compatibility contract: group_order, vertices,
edges, faces, euler, orientable, genus_kind, genus, p, k, solvable, normal,
exceptional_case, quotient_order, diagnostics.  Identical inputs must yield
byte-identical JSON, so keys are sorted and nothing environmental (clock,
hostname, paths) is recorded.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from .group import FiniteGroup, is_solvable, o_p, prime_factors

TOOL_VERSION = "0.1.0"


def input_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def group_summary(G: FiniteGroup) -> dict:
    cores = {str(p): o_p(G, p).order for p in prime_factors(G.order)}
    return {
        "group_order": G.order,
        "solvable": is_solvable(G),
        "p_core_orders": cores,
    }


def map_section(name: str, m, classification=None,
                sylow_structure=None) -> dict:
    section = {"name": name, "kind": m.kind}
    section.update(m.report().to_dict())
    if classification is not None:
        section.update(classification.to_dict())
    if sylow_structure is not None:
        section["sylow_structure"] = sylow_structure.to_dict()
    return section


@dataclass
class ReportDocument:
    tool_version: str
    input_digest: str
    command: str
    group: dict
    maps: list = field(default_factory=list)
    census: Optional[dict] = None
    diagnostics: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """Every field, and `census` only when it is set."""
        return {k: v for k, v in vars(self).items() if v is not None}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def new_document(command: str, text: str, G: FiniteGroup) -> ReportDocument:
    return ReportDocument(tool_version=TOOL_VERSION,
                          input_digest=input_digest(text),
                          command=command, group=group_summary(G))
