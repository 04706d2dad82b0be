"""Report documents: one stable, timestamp-free JSON shape per invocation.

Field names are part of the compatibility contract: group_order, vertices,
edges, faces, euler, orientable, genus_kind, genus, p, k, solvable, normal,
exceptional_case, quotient_order, diagnostics.  Identical inputs must yield
byte-identical JSON, so keys are sorted and nothing environmental (clock,
hostname, paths) is recorded.  :func:`dumps` writes every JSON document of
the CLI, byte for byte as ``json.dumps(value, sort_keys=True, indent=2)``
does, in one recursive pass instead of that encoder's generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _string
from typing import Optional

from .group import FiniteGroup, is_solvable, o_p, prime_factors
try:  # the built-in module, which does not load OpenSSL as hashlib does
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

TOOL_VERSION = "0.1.0"


def _dump(value, pad: str) -> str:
    """`value` in JSON; `pad` is the newline and indent of the line it
    starts on, which its nested lines extend."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # one join of the pieces, so a long value is copied once
        parts = ["{"]
        for k in sorted(value):
            parts += inner, _string(k), ": ", _dump(value[k], inner), ","
        parts[-1] = pad + "}"
        return "".join(parts)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_dump(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    raise TypeError(f"cannot write {type(value).__name__} as JSON")


def dumps(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for `value` built of
    dicts with str keys, lists, tuples, str, int, bool and None; any other
    type, a non-str key included, raises TypeError."""
    return _dump(value, "\n")


def input_digest(text: str) -> str:
    return sha256(text.encode("utf-8")).hexdigest()


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
        return dumps(self.to_dict())


def new_document(command: str, text: str, G: FiniteGroup) -> ReportDocument:
    return ReportDocument(tool_version=TOOL_VERSION,
                          input_digest=input_digest(text),
                          command=command, group=group_summary(G))
