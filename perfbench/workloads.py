"""Workload job lists and the seeded input generator.

Every input a job reads is written by :func:`generate` from the package's
bundled corpus (``src/regmaps/corpus/*.grp``, read as plain text) and the
files under ``data/``; regmaps itself is never used to make inputs.  Seed 0
writes the files unchanged.  Any other seed relabels each well-formed file
without changing its group or maps: generator order and names, relator
order, permutation points, and a conjugation of every matrix by one
seed-chosen invertible matrix.  Malformed files are copied unchanged.

Generator order fixes the element numbering, and the numbering changes how
much work index-order scans do: up to 30% per job on this corpus.  So the
order is not drawn from the seed.  Round i of a run rotates the generator
list by i, the same in every run, and a run's per-job medians cover the
same few numberings whatever the seed.

An untraced pass runs in rounds, each on its own relabeling.  A job runs
in ``reps`` of them, and the median of its runs is its latency in the
pass.  On pipeline and limits the cheap jobs run in every round: they sit
at the median and tail percentiles, where one slow sample or one costly
numbering would otherwise move the percentile.  The long jobs are spread
over the rounds (:func:`schedule`), so that the cheap jobs' runs sample
the whole pass while the shared host's speed drifts.
"""

from __future__ import annotations

import random
import re
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
ROOT = Path(__file__).resolve().parent.parent
SOURCE_CORPUS = ROOT / "src" / "regmaps" / "corpus"
WORK = ROOT / ".bench_work"

CORPUS = ("g2106_chiral", "g216_nonorientable", "g216_orientable",
          "g384_chiral", "g72_3map", "gl23_reflexible", "s4_3map",
          "s4_presentation", "s4_projective", "s4_sphere")
MAP_FILES = tuple(n for n in CORPUS if n != "s4_presentation")
# The census refuses groups above its default bound of 2000; g2106 is the
# only corpus group past it and is kept for the `limits` workload.
CENSUS_FILES = tuple(n for n in CORPUS if n != "g2106_chiral")

# Seconds one pass of each job list took on the reference machine (see
# baseline.json).  The pass count of a run is fixed from these and
# --seconds, never from a clock, so the sample count behind each percentile
# is the same in every run of one benchmark version.
NOMINAL_PASS_S = {"pipeline": 13, "census": 6, "limits": 7}
MIN_PASSES = 3
# Nesting depth of the deep-parentheses input (a ROADMAP 4a defect).
DEEP_NESTING = 3000


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple   # "{name}" names a generated file, "{corpus}" its directory
    rc: int       # the exit code the CLI contract requires
    # A crash of this job is a known defect: it counts in `failed` but
    # leaves `correct` true.  Any other wrong outcome still makes it false.
    known_defect: bool = False
    reps: int = 1  # runs per untraced pass, one per round (see module doc)


def _job(cmd: str, name: str, *flags: str, rc: int = 0,
         known_defect: bool = False, reps: int = 1) -> Job:
    opts = [v if k == "--kind" else f"{k.lstrip('-')}={v}"
            for k, v in zip(flags[::2], flags[1::2])]
    return Job("/".join((cmd, name, *opts)), (cmd, "{%s}" % name) + flags, rc,
               known_defect, reps)


# Runs per pass of each pipeline and limits job under 0.2 s on the reference
# machine, so that a job near the median or the tail percentile counts as a
# median of many relabelings.  Longer jobs run once.
REPS = 5


WORKLOADS = {
    "pipeline": (
        [_job("analyze", n, reps=1 if n == "g2106_chiral" else REPS)
         for n in MAP_FILES]
        + [_job("quotient", "g384_chiral", "--p", "2", reps=REPS),
           _job("quotient", "g72_3map", "--p", "3", reps=REPS),
           _job("tc", "g2106_chiral", reps=REPS),
           _job("tc", "s4_presentation", reps=REPS),
           Job("verify-corpus", ("verify-corpus", "--corpus-dir", "{corpus}"),
               0),
           _job("analyze", "ladder_p11"),
           _job("analyze", "ladder_p13")]),
    # One round: six passes keep job_tail_ms at p90, and rounds for the
    # cheap census jobs would not fit in a run beside them.
    "census": [_job("census", n, "--kind", kind)
               for n in CENSUS_FILES for kind in ("oriented", "flagged")],
    "limits": [
        _job("analyze", "big_mod101", "--max-order", "2000", rc=5),
        # At the tail percentile; 0.45 s, so it runs three times.
        _job("tc", "modular", rc=5, reps=3),
        _job("census", "g2106_chiral", "--kind", "oriented", rc=5),
        # Exit 2 is the contract; today the parser overflows the Python
        # stack (ROADMAP 4a) and the job counts as failed.
        _job("analyze", "deep_parens", rc=2, known_defect=True, reps=REPS),
        _job("analyze", "bad_char", rc=2, reps=REPS),
        _job("analyze", "no_group_line", rc=2, reps=REPS),
        _job("analyze", "s4_presentation", rc=3, reps=REPS),
        _job("quotient", "s4_3map", "--p", "4", rc=3, reps=REPS),
    ],
}


def passes_for(workload: str, seconds: int) -> int:
    return max(MIN_PASSES, seconds // NOMINAL_PASS_S[workload])


def rounds_for(workload: str) -> int:
    """Rounds in one untraced pass: the most runs any job makes in it."""
    return max(job.reps for job in WORKLOADS[workload])


def schedule(workload: str) -> list:
    """For each job, the rounds of an untraced pass it runs in: `reps`
    consecutive rounds, wrapping, from round k mod rounds for the k-th job
    that does not run in every round."""
    rounds = rounds_for(workload)
    out, k = [], 0
    for job in WORKLOADS[workload]:
        start = 0
        if job.reps < rounds:
            start, k = k % rounds, k + 1
        out.append({(start + i) % rounds for i in range(job.reps)})
    return out


def _source_texts() -> dict:
    files = [SOURCE_CORPUS / f"{name}.grp" for name in CORPUS]
    files += [p for sub in ("ladder", "limits")
              for p in sorted((DATA / sub).glob("*.grp"))]
    texts = {p.stem: p.read_text(encoding="utf-8") for p in files}
    texts["deep_parens"] = ("group deep_parens\ngens a\nrel "
                            + "(" * DEEP_NESTING + "a" + ")" * DEEP_NESTING
                            + "\n")
    return texts


_VERBATIM = {"bad_char", "no_group_line", "deep_parens"}
_IDENT = re.compile(r"([A-Za-z_]\w*)(\s*=)?")


def _rename(text: str, names: dict, fields: bool) -> str:
    """Rename generators in word text.  With `fields`, as in a map line, an
    identifier followed by '=' is a field name; in a relator it is a word."""
    def sub(m):
        name = names.get(m.group(1), m.group(1))
        return m.group(0) if fields and m.group(2) else name + (m.group(2) or "")
    return _IDENT.sub(sub, text)


def _conjugate(rows, a, p):
    (x, y), (z, w) = a
    d = pow(x * w - y * z, -1, p)
    a_inv = ((w * d % p, -y * d % p), (-z * d % p, x * d % p))

    def mul(m, n):
        return tuple(tuple(sum(m[i][k] * n[k][j] for k in range(2)) % p
                           for j in range(2)) for i in range(2))
    return mul(mul(a, rows), a_inv)


def relabel(text: str, rng: random.Random, rotation: int) -> str:
    """The same group file, relabeled by `rng`, with its generator list
    rotated by `rotation` places (see module doc)."""
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    head, body = lines[0], lines[1:]
    gens = [ln for ln in body if ln.split()[0] == "gens"]
    decls = [ln for ln in body if ln.split()[0] in ("perm", "mat")]
    rels = [ln for ln in body if ln.split()[0] == "rel"]
    maps = [ln for ln in body if ln.split()[0] == "map"]
    if gens:
        old = [g.strip() for g in gens[0][len("gens"):].split(",")]
    else:
        old = [ln.split()[1] for ln in decls]
    fresh = rng.sample(range(10, 100), len(old))
    names = {o: f"g{f}" for o, f in zip(old, fresh)}
    order = [(i + rotation) % len(old) for i in range(len(old))]
    rng.shuffle(rels)

    out = [head]
    if gens:
        out.append("gens " + ", ".join(names[old[i]] for i in order))
    elif decls[0].startswith("perm"):
        cycles = [[[int(x) for x in c.split()]
                   for c in re.findall(r"\(([^)]*)\)", ln)] for ln in decls]
        degree = max(x for cs in cycles for c in cs for x in c)
        sigma = list(range(1, degree + 1))
        rng.shuffle(sigma)
        for i in order:
            body_ = "".join("(" + " ".join(str(sigma[x - 1]) for x in c) + ")"
                            for c in cycles[i]) or "()"
            out.append(f"perm {names[old[i]]} = {body_}")
    else:
        mats = [tuple(int(v) for v in re.findall(r"-?\d+", ln.split("=", 1)[1]))
                for ln in decls]
        p = mats[0][4]
        while True:
            a = ((rng.randrange(p), rng.randrange(p)),
                 (rng.randrange(p), rng.randrange(p)))
            if (a[0][0] * a[1][1] - a[0][1] * a[1][0]) % p:
                break
        for i in order:
            v = mats[i]
            (q, r), (s, t) = _conjugate(((v[0], v[1]), (v[2], v[3])), a, p)
            out.append(f"mat {names[old[i]]} = [[{q},{r}],[{s},{t}]] mod {p}")
    out += ["rel " + _rename(ln[len("rel"):].strip(), names, False)
            for ln in rels]
    for ln in maps:
        lhs, rhs = ln.split(":", 1)
        kind, fields = rhs.split(None, 1)
        out.append(f"{lhs.strip()} : {kind} {_rename(fields, names, True)}")
    return "\n".join(out) + "\n"


def generate(workload: str, seed: int, variant: int, out_dir: Path) -> list:
    """Write the workload's inputs under out_dir; return its jobs' argv lists.

    `variant` is the round's index in the run, which sets the generator
    rotation and varies the rest of the relabeling.  The corpus directory
    always holds all ten corpus files, because verify-corpus reads every
    one.
    """
    texts = _source_texts()
    corpus_dir = out_dir / "corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in sorted(texts):
        needed = name in CORPUS or any("{%s}" % name in job.argv
                                       for job in WORKLOADS[workload])
        if not needed:
            continue
        text = texts[name]
        if seed != 0 and name not in _VERBATIM:
            text = relabel(text, random.Random(f"{seed}:{variant}:{name}"),
                           variant)
        path = (corpus_dir if name in CORPUS else out_dir) / f"{name}.grp"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    paths["corpus"] = str(corpus_dir)
    return [[arg.format(**paths) for arg in job.argv]
            for job in WORKLOADS[workload]]


@contextmanager
def scratch(tag: str):
    """A fresh directory for generated inputs, removed afterwards."""
    path = WORK / tag
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another worker still uses it
