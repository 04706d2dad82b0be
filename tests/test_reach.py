"""The package holds what a command runs.

Every command runs over the corpus, the `limits` files of the benchmark
but big_mod101, which each command takes about a second to refuse, and
one D4 dipole, whose Sylow subgroup splits neither way.  The sweep runs in a subprocess whose
call-only trace hook is set before ``import regmaps``, so code that runs at
import (the ``_kept`` decorator) counts, and what earlier tests imported
does not matter.  A function is matched by its code object, the constant
its module's code holds: every function and method defined in
``src/regmaps`` must have run, except those in ``ALLOWED``.  The benchmark
files are only read.  The public API, ``regmaps.__all__``, is the list
the README names.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import regmaps

ROOT = Path(__file__).resolve().parent.parent
LIMITS = ROOT / "perfbench/data/limits"

# "module:qualname" of each function no command runs, with its reason
ALLOWED = {
    "group:hom_extend": "perfbench/spans.py wraps it by name",
    "group:GroupHom.is_bijective": "perfbench/spans.py wraps it by name",
    "maps:oriented_of_flagged": "declared API; ROADMAP item 9 uses it",
    "maps:_Map.key": "public API (README) that no command reads",
    "group:standardize": "public API (README) that no command runs",
    "words:Word.__post_init__":
        "validates outside input to the public constructor",
    "words:_reduce": "validates outside input to the public constructor",
    "group:Subgroup.__eq__": "pairs with the __hash__ that runs",
    "verify:corpus_names": "lists package data for the tests",
}

# Oriented map on D4 with 2 vertices: r of order 4, l a reflection
D4_DIPOLE = """\
group d4
perm r = (1 2 3 4)
perm l = (1 3)
map m : oriented r=r l=l
"""

SWEEP = r"""
import contextlib, inspect, io, json, os, sys

package = os.path.join(sys.argv[1], "regmaps")
modules, called = [], set()


def hook(frame, event, arg):
    code = frame.f_code
    called.add(code)
    if (code.co_name == "<module>"
            and os.path.dirname(code.co_filename) == package):
        modules.append(code)


def functions(code):
    # class bodies are walked but not counted; comprehensions, generator
    # expressions and lambdas belong to the function that holds them
    for const in code.co_consts:
        if inspect.iscode(const):
            if (const.co_flags & inspect.CO_OPTIMIZED
                    and not const.co_name.startswith("<")):
                yield const
            yield from functions(const)


sys.settrace(hook)
import regmaps.cli as cli

for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
sys.settrace(None)
name = {m: os.path.basename(m.co_filename)[:-3] for m in modules}
print(json.dumps({
    "modules": sorted(name.values()),
    "unreached": sorted(f"{name[m]}:{f.co_qualname}" for m in modules
                        for f in functions(m) if f not in called)}))
"""


def _argvs(files: list) -> list:
    runs = [["verify-corpus"]]
    for f in map(str, files):
        runs += [["analyze", f], ["analyze", f, "--json"],
                 ["quotient", f, "--p", "2"], ["quotient", f, "--p", "3"],
                 ["census", f, "--kind", "oriented"],
                 ["census", f, "--kind", "flagged"],
                 ["tc", f], ["tc", f, "--export-perms"]]
    return runs


def test_every_function_in_the_package_runs_under_a_command(tmp_path):
    dipole = tmp_path / "d4_dipole.grp"
    dipole.write_text(D4_DIPOLE, encoding="utf-8")
    src = Path(regmaps.__file__).resolve().parent.parent
    files = sorted((src / "regmaps/corpus").glob("*.grp")) + sorted(
        f for f in LIMITS.glob("*.grp") if f.name != "big_mod101.grp")
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP, str(src),
         json.dumps(_argvs(files + [dipole]))],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    sweep = json.loads(proc.stdout)
    # a module no command imports would hide all its functions;
    # __main__, which defines none, runs only under `python -m regmaps`
    modules = {f.stem for f in (src / "regmaps").glob("*.py")}
    assert sorted(modules - {"__main__"}) == sweep["modules"]
    unreached = set(sweep["unreached"])
    extra = sorted(unreached - set(ALLOWED))
    assert not extra, f"no command runs {extra}"
    stale = sorted(set(ALLOWED) - unreached)
    assert not stale, f"{stale} run or are gone: take them off ALLOWED"


def test_every_public_name_resolves_and_is_in_the_readme():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = " ".join(re.findall(r"`([^`\n]+)`", text))  # inline code
    named = set(re.findall(r"\w+", spans))
    assert len(set(regmaps.__all__)) == len(regmaps.__all__)
    for name in regmaps.__all__:
        assert hasattr(regmaps, name), name
    missing = sorted(set(regmaps.__all__) - named)
    assert not missing, f"the README does not name {missing}"
