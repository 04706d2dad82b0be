"""The pinned-value table behind verify-corpus checks itself, and a corpus
file that cannot be read or has no map ``m`` becomes one failing row."""

import pytest

import regmaps.cli as cli
import regmaps.verify as verify
from regmaps.verify import (PROPERTIES, REGISTRY, CheckRow, corpus_text,
                            verify_corpus)

# each check name and the first (file, position) that pins it
FIRST_PIN = {}
for _name, _pins in REGISTRY.items():
    for _i, (_check, _) in enumerate(_pins):
        FIRST_PIN.setdefault(_check, (_name, _i))


@pytest.fixture(scope="module")
def rows():
    return verify_corpus()


def test_every_check_names_a_property_and_every_property_is_pinned():
    assert set(FIRST_PIN) == set(PROPERTIES)


@pytest.mark.parametrize("check", sorted(FIRST_PIN))
def test_a_perturbed_value_fails_exactly_its_own_row(monkeypatch, rows,
                                                     check):
    name, i = FIRST_PIN[check]
    pins = list(REGISTRY[name])
    want = pins[i][1]
    wrong = ("perturbed", want)
    pins[i] = (check, wrong)
    monkeypatch.setattr(verify, "REGISTRY", {name: tuple(pins)})
    expected = [r for r in rows if r.example == name]
    assert all(r.ok for r in expected)
    expected[i] = CheckRow(name, check, False,
                           f"got {want!r}, want {wrong!r}")
    assert verify_corpus() == expected


@pytest.mark.parametrize("damage,detail", [
    ("missing", "cannot read "),
    ("not_utf8", "cannot read "),
    ("no_map_m", "the file declares no map named 'm'"),
])
def test_a_damaged_corpus_file_fails_its_realization_row(tmp_path, capsys,
                                                         damage, detail):
    for name in REGISTRY:
        (tmp_path / name).write_text(corpus_text(name), encoding="utf-8")
    target = tmp_path / "g72_3map.grp"
    if damage == "missing":
        target.unlink()
    elif damage == "not_utf8":
        target.write_bytes(b"\xff" + corpus_text("g72_3map.grp").encode())
    else:
        target.write_text(corpus_text("g72_3map.grp").replace("map m ",
                                                              "map n "),
                          encoding="utf-8")
    bad = [r for r in verify_corpus(str(tmp_path)) if not r.ok]
    assert [(r.example, r.check) for r in bad] == [("g72_3map.grp",
                                                    "realization")]
    assert bad[0].detail.startswith(detail)

    assert cli.main(["verify-corpus", "--corpus-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert (f"FAIL  {'g72_3map.grp':24} realization  [{detail}"
            in captured.out)
