"""Workload definitions shared by the benchmark driver and its children.

Each workload is one ``eqhom`` command on one presentation.  The seed
varies the presentation's spelling only: variable, rule and letter names,
declaration layout and comments.  Every such variant presents the same
system with the same rule order, so the command's stdout must be
byte-identical for every seed; its sha256 is pinned below from the
parent commit and checked on every run, next to oracles that do not
depend on the code.

This module imports nothing from ``eqhom``.
"""

from __future__ import annotations

import hashlib
import random
import re
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DATA = Path(__file__).resolve().parent / "data"
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# integral homology of the symmetric group S3 through H_8 (period 4 above
# H_0); an oracle independent of the code under test
S3_HOMOLOGY = ["Z", "Z/2", "0", "Z/6", "0", "Z/2", "0", "Z/6", "0"]


@dataclass(frozen=True)
class Workload:
    name: str
    template: str          # file under data/; its suffix selects the format
    cli_args: tuple[str, ...]  # "{input}" stands for the generated file
    stdout_sha256: str
    check: Callable[[str], list[str]]

    @property
    def suffix(self) -> str:
        return Path(self.template).suffix

    def argv(self, input_path: str) -> list[str]:
        return [input_path if a == "{input}" else a for a in self.cli_args]


def _fresh_names(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    out: list[str] = []
    while len(out) < count:
        name = rng.choice("uvw") + "".join(
            rng.choices(string.ascii_lowercase + string.digits, k=rng.randint(1, 6)))
        if name not in taken:
            taken.add(name)
            out.append(name)
    return out


def _comment(rng: random.Random) -> str:
    words = ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(2, 8)))
             for _ in range(rng.randint(1, 6))]
    return "# " + " ".join(words)


def _with_comments(rng: random.Random, lines: list[str]) -> str:
    out: list[str] = []
    for line in lines:
        if rng.random() < 0.3:
            out.append(_comment(rng))
        if rng.random() < 0.2:
            out.append("")
        out.append(line + ("   " + _comment(rng) if rng.random() < 0.2 else ""))
    return "\n".join(out) + "\n"


def vary_lwv(text: str, rng: random.Random) -> str:
    """Respell a term presentation: rename variables and rules, reshuffle
    declarations and restore the rule order with an ``order`` line."""
    head: list[str] = []
    var_sorts: dict[str, str] = {}
    rules: list[tuple[str, str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        if kind == "var":
            names, sort = rest.split(":")
            for n in names.split():
                var_sorts[n] = sort.strip()
        elif kind == "rule":
            name, body = rest.split(":", 1)
            rules.append((name.strip(), body.strip()))
        else:
            head.append(line)
    taken = set(IDENT.findall("\n".join(head))) | set(var_sorts)
    renamed = dict(zip(var_sorts, _fresh_names(rng, len(var_sorts), taken)))
    rule_names = _fresh_names(rng, len(rules), taken)

    decls = [(renamed[v], s) for v, s in var_sorts.items()]
    rng.shuffle(decls)
    if rng.random() < 0.5:
        by_sort: dict[str, list[str]] = {}
        for v, s in decls:
            by_sort.setdefault(s, []).append(v)
        var_lines = [f"var {' '.join(vs)} : {s}" for s, vs in by_sort.items()]
    else:
        var_lines = [f"var {v} : {s}" for v, s in decls]

    rename = lambda m: renamed.get(m.group(), m.group())
    rule_lines = [f"rule {n} : {IDENT.sub(rename, body)}"
                  for n, (_, body) in zip(rule_names, rules)]
    shuffled = rule_lines[:]
    rng.shuffle(shuffled)
    order = "order " + " ".join(rule_names)
    return _with_comments(rng, head + var_lines + shuffled + [order])


def vary_srs(text: str, rng: random.Random) -> str:
    """Respell a string presentation: rename letters (keeping their sort
    order, which fixes the chain order) and rules, keeping rule order."""
    letters: list[str] = []
    rules: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        if kind == "letters":
            letters.extend(rest.split())
        else:
            rules.append(rest.split(":", 1)[1].strip())
    taken = set(letters)
    fresh = sorted(_fresh_names(rng, len(letters), taken))
    renamed = dict(zip(sorted(letters), fresh))
    letter_lines = ([f"letters {' '.join(renamed[a] for a in letters)}"]
                    if rng.random() < 0.5 else [f"letters {renamed[a]}" for a in letters])
    word = lambda w: " ".join(renamed[a] for a in w.split())
    rule_lines = []
    for name, body in zip(_fresh_names(rng, len(rules), taken), rules):
        lhs, rhs = body.split("->")
        rule_lines.append(f"rule {name} : {word(lhs)} -> {word(rhs)}".rstrip())
    return _with_comments(rng, letter_lines + rule_lines)


def make_input(workload: Workload, seed: int) -> str:
    rng = random.Random(f"{workload.name}/{seed}")
    text = (DATA / workload.template).read_text(encoding="utf-8")
    return vary_lwv(text, rng) if workload.suffix == ".lwv" else vary_srs(text, rng)


def _counts(pattern: str, stdout: str) -> list[int]:
    return [int(n) for n in re.findall(pattern, stdout)]


def _check_group_count(stdout: str) -> list[str]:
    problems = []
    counts = _counts(r"\((\d+) chain\(s\)\)", stdout)
    if counts != [1, 3, 10, 39]:
        problems.append(f"chain counts {counts}, expected [1, 3, 10, 39]")
    if "10 - 3 + 1 = 8 >= 0" not in stdout:
        problems.append("axiom-count bound line '10 - 3 + 1 = 8 >= 0' missing")
    return problems


def _check_group_symbolic(stdout: str) -> list[str]:
    counts = _counts(r"dimension \d+: (\d+) generator\(s\)", stdout)
    if counts != [1, 3, 10, 39, 154]:
        return [f"generator counts {counts}, expected [1, 3, 10, 39, 154]"]
    return []


def _check_s3(stdout: str) -> list[str]:
    groups = re.findall(r"^H_\d+: (.*)$", stdout, re.M)
    if groups != S3_HOMOLOGY:
        return [f"S3 homology {groups}, expected {S3_HOMOLOGY}"]
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload("group-count", "group.lwv",
                 ("homology", "{input}", "--max-dim", "3"),
                 "357cb48e1370071b43467199afc2128173d2a9a5577106cff94cc49fafea21b2",
                 _check_group_count),
        Workload("group-symbolic", "group.lwv",
                 ("resolution", "{input}", "--max-dim", "4", "--mode", "symbolic"),
                 "c2418170c9034951153dc4e397c5151c20323151969c30121580099a5b83b181",
                 _check_group_symbolic),
        Workload("s3-word", "s3.srs",
                 ("monoid", "homology", "{input}", "--max-dim", "8"),
                 "a61506b024788d86b13375e65fd942f659c051f3dc30ce807cbb1ea521fb8372",
                 _check_s3),
    )
}


def check_output(workload: Workload, stdout: str) -> list[str]:
    """Problems with one run's stdout; empty when it is correct."""
    problems = workload.check(stdout)
    digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    if digest != workload.stdout_sha256:
        problems.append(f"stdout sha256 {digest} differs from the pinned "
                        f"{workload.stdout_sha256}")
    return problems
