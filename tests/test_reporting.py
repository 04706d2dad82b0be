import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import regmaps.cli as cli
import regmaps.reporting
from regmaps.classify import classify
from regmaps.reporting import (ReportDocument, TOOL_VERSION, dumps,
                               group_summary, input_digest, map_section,
                               new_document)
from regmaps.standard import symmetric_group
from regmaps.verify import corpus_names, corpus_text

LADDER = Path(__file__).resolve().parent.parent / "perfbench/data/ladder"


def test_input_digest_is_plain_sha256():
    assert input_digest("group g\n") == (
        "8e8dcb998ae132b8d0d761fcb101ab52cfe625649e875638cc566c68792a5ae5")


def test_input_digest_loads_no_openssl():
    # the built-in SHA-256 where the interpreter has it: a command that
    # loads hashlib, and so OpenSSL, costs every process a few MB
    code = ("import sys; before = set(sys.modules); import regmaps.cli;"
            " regmaps.cli.main(['analyze', '--json', sys.argv[1]]);"
            " print(sorted({'hashlib', '_hashlib'} & (set(sys.modules)"
            " - before)), file=sys.stderr)")
    src = Path(regmaps.reporting.__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, "-c", code, str(LADDER / "ladder_p11.grp")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0
    if importlib.util.find_spec("_sha256") is not None:
        assert run.stderr == "[]\n"
    assert input_digest("") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")


def test_group_summary_s4():
    assert group_summary(symmetric_group(4)) == {
        "group_order": 24,
        "solvable": True,
        "p_core_orders": {"2": 4, "3": 1},
    }


def test_map_section_fields(corpus):
    m = corpus["s4_3map.grp"].maps["m"]
    sec = map_section("m", m, classify(m))
    assert sec["name"] == "m"
    assert sec["kind"] == "flagged"
    assert (sec["vertices"], sec["edges"], sec["faces"]) == (3, 6, 4)
    assert sec["genus_kind"] == "crosscap_number"
    assert sec["p"] == 3 and sec["k"] == 1
    assert sec["exceptional_case"] == "C(3,2)"
    assert "sylow_structure" not in sec


def test_document_json_is_stable(corpus):
    rz = corpus["s4_3map.grp"]
    text = "group x\n"
    doc1 = new_document("analyze", text, rz.group)
    doc2 = new_document("analyze", text, rz.group)
    assert doc1.to_json() == doc2.to_json()
    loaded = json.loads(doc1.to_json())
    assert loaded["tool_version"] == TOOL_VERSION
    assert loaded["input_digest"] == input_digest(text)
    assert loaded["command"] == "analyze"
    assert "census" not in loaded  # only present when a census ran
    assert list(loaded) == sorted(loaded)


def _json_dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


def test_every_cli_document_is_written_as_json_dumps_writes_it(
        tmp_path, monkeypatch, capsys):
    """Every --json document of analyze, both quotients, both censuses and
    tc on the corpus and ladder files, and of verify-corpus, against
    json.dumps of the value the writer was given."""
    written = []

    def recorded(value):
        text = dumps(value)
        written.append((value, text))
        return text
    for module in (regmaps.reporting, cli):
        monkeypatch.setattr(module, "dumps", recorded)
    files = []
    for name in corpus_names():
        files.append(tmp_path / name)
        files[-1].write_text(corpus_text(name), encoding="utf-8")
    files += sorted(LADDER.glob("*.grp"))
    runs = [["verify-corpus"]]
    for f in files:
        runs += [["analyze", str(f)], ["quotient", str(f), "--p", "2"],
                 ["quotient", str(f), "--p", "3"], ["tc", str(f)]]
        runs += [["census", str(f), "--kind", kind, "--max-order", "5000"]
                 for kind in ("oriented", "flagged")]
    printed = 0
    for argv in runs:
        cli.main(argv + ["--json"])
        printed += bool(capsys.readouterr().out)
    assert len(written) == printed > len(runs) / 2
    for value, text in written:
        assert text == _json_dumps(value)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40)


@given(json_values)
@example({"\x00\x1f\x7f\u2028é😀\"\\": ["", (), {}, [[]], None, True,
                                          False, 0, -2 ** 70, {"": {}}]})
def test_dumps_writes_what_json_dumps_writes(value):
    assert dumps(value) == _json_dumps(value)


@pytest.mark.parametrize("value", [1.5, {1: 2}, {"a": 1, 2: 3}, [{"x": {4}}],
                                   (b"x",), object(), {"a": [float("nan")]}])
def test_dumps_refuses_any_other_type(value):
    with pytest.raises(TypeError):
        dumps(value)
