"""The traced benchmark's wrapping table still matches the package.

perfbench/spans.py wraps regmaps functions by module and name, so a renamed
or deleted function would otherwise show only as an AttributeError in a
full traced benchmark run.  The benchmark files are only read.
"""

import importlib
import sys
from pathlib import Path

import regmaps.census
import regmaps.cli as cli
import regmaps.group
from regmaps.verify import corpus_text

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402


def _resolve(modname, attr):
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_target_resolves_to_a_callable():
    for modname, attr, _name in spans.TARGETS + spans.COUNTED:
        assert callable(_resolve(modname, attr)), (modname, attr)


def test_analyze_records_spans_and_restores_the_package(tmp_path, capsys):
    f = tmp_path / "s4_3map.grp"
    f.write_text(corpus_text("s4_3map.grp"), encoding="utf-8")
    closure = regmaps.group.closure
    generates = regmaps.census._generates
    with spans.installed(spans.Recorder()) as rec:
        assert regmaps.group.closure is not closure
        rc = cli.main(["analyze", str(f), "--json"])
    capsys.readouterr()
    assert rc == 0
    assert {"group.closure", "grammar.parse"} <= set(rec.names)
    assert regmaps.group.closure is closure
    assert regmaps.census._generates is generates


def test_installed_wraps_every_entry():
    """installed() rebinds only names in a class's own __dict__, so a method
    moved to a base class would keep the original and lose its span."""
    entries = [(m, a) for m, a, _name in spans.TARGETS + spans.COUNTED]
    originals = [_resolve(m, a) for m, a in entries]
    with spans.installed(spans.Recorder()):
        bare = [entry for entry, fn in zip(entries, originals)
                if _resolve(*entry) is fn]
    assert bare == []
