"""The benchmark's workloads: manifest texts plus the answer key for each.

A workload is a list of (source, text) manifests that one pass verifies in
order, together with the expected report status of every claim label.

* ``autgroup`` and ``breadth`` replay the shipped manifests; their keys are
  the hand-written files under ``answers/``.
* ``tame-qw`` is generated from a seed.  Every verdict in its key follows from
  how the manifest was built (see ``tame_qw``); the kernel is never consulted.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFESTS = HERE.parent / "src" / "krcubic" / "manifests"
ANSWERS = HERE / "answers"

SHIPPED = {
    "autgroup": ("autgroup.krv",),
    "breadth": ("embeddings.krv", "fibers.krv", "stable.krv", "cylinder.krv"),
}
NAMES = ("autgroup", "breadth", "tame-qw")

# Map pairs in one tame-qw manifest: a pass takes about 0.7 s on a 2-vCPU
# host, and averaging over ten pairs keeps the per-seed cost within a few
# percent.
TAME_PAIRS = 10


def shipped_text(name: str) -> str:
    return (MANIFESTS / name).read_text(encoding="utf-8")


def load(workload: str, seed: int, pairs: int = TAME_PAIRS):
    """Return (manifests, key): [(source, text)], {label: expected status}."""
    if workload == "tame-qw":
        text, key = tame_qw(seed, pairs)
        return [(f"tame-qw-{seed}.krv", text)], key
    if workload not in SHIPPED:
        raise ValueError(f"unknown workload {workload!r}; expected one of {NAMES}")
    manifests = [(name, shipped_text(name)) for name in SHIPPED[workload]]
    key = json.loads((ANSWERS / f"{workload}.json").read_text(encoding="utf-8"))
    return manifests, key


# ---------------------------------------------------------------------------
# tame-qw: triangular automorphisms over Q(w)
#
# For each pair i the manifest declares, with p(x, t) and q(x, z) nonzero,
#     m_i : z -> z + x*p      mi_i : z -> z - x*p
#     n_i : t -> t + x*q      ni_i : t -> t - x*q
#     c_i = compose(m_i, n_i),  ci_i = compose(ni_i, mi_i)
# Both elementary maps are inverted exactly by their partners, so c_i and ci_i
# are inverse automorphisms fixing x, and every claim's truth is a theorem:
#   inverse_pair(m_i, mi_i)            true
#   inverse_pair(n_i, mi_i)            false: z -> z - x*p(x, t + x*q) != z
#   jacdet(c_i, z, t) = 1              true: x is fixed, each factor has det 1
#   ci_i(c_i(f)) = f                   true for every f
#   m_i(n_i(t)) = t + k, k != 0        false: the left side minus t is in (x)
#   A = c_i(z) = z + x*p, B = c_i(t):
#   divides(A*B, A)                    true
#   divides(A*B + 1, A)                false: A is not constant
#   member(A*f + B*g, {A, B})          true
#   member(A*B + 1, {A, B})            false: A and B vanish at the origin,
#                                      so (A, B) is a proper ideal
# One claim per pair, picked by the seed, is written with the opposite
# expectation, so the key also holds 'fail' statuses and the report renders
# failed claims.

_F_POOL = ("x*z", "z*t", "t^2", "x*t", "z^2")


def _coeff(rng: random.Random) -> str:
    """A nonzero element a + b*w of Q(w) with b != 0, written for the grammar."""
    a = rng.randint(-3, 3)
    b = rng.choice((-3, -2, -1, 1, 2, 3))
    den = rng.choice((1, 1, 1, 2))
    wpart = "w" if abs(b) == 1 else f"{abs(b)}*w"
    if a == 0:
        body = wpart if b > 0 else f"-{wpart}"
    else:
        body = f"{a} {'+' if b > 0 else '-'} {wpart}"
    return f"({body})" if den == 1 else f"1/{den}*({body})"


def _poly(rng: random.Random, lead: str, pool: tuple[str, ...]) -> str:
    """Three terms: the fixed leading monomial plus two distinct pool monomials."""
    monos = [lead] + rng.sample(pool, 2)
    return " + ".join(f"{_coeff(rng)}*{m}" if m != "1" else _coeff(rng)
                      for m in monos)


def tame_qw(seed: int, pairs: int = TAME_PAIRS) -> tuple[str, dict[str, str]]:
    """Generate the tame-qw manifest and its answer key from a seed."""
    rng = random.Random(seed)
    lines = [
        f"# tame-qw workload, seed {seed}, {pairs} map pairs.",
        "# Generated by bench/workloads.py; verdicts follow from the construction.",
        "",
        "ring T = vars(x, z, t);",
        "",
    ]
    key: dict[str, str] = {}
    for i in range(1, pairs + 1):
        p = _poly(rng, "t", ("x", "1"))
        q = _poly(rng, "z", ("x", "1"))
        f = _poly(rng, "z*t^2", _F_POOL)
        g = _poly(rng, "x*t", _F_POOL)
        shifted = rng.choice(("t + w", "t + 1", "t - 1", "t - 2*w", "t + 1 + w"))
        lines += [
            f"let p{i} = {p};",
            f"let q{i} = {q};",
            f"let f{i} = {f};",
            f"let g{i} = {g};",
            f"map m{i} : T {{ z -> z + x*p{i}; }}",
            f"map mi{i} : T {{ z -> z - x*p{i}; }}",
            f"map n{i} : T {{ t -> t + x*q{i}; }}",
            f"map ni{i} : T {{ t -> t - x*q{i}; }}",
            f"inverse(m{i}, mi{i});",
            f"inverse(n{i}, ni{i});",
            f"map c{i} = compose(m{i}, n{i});",
            f"map ci{i} = compose(ni{i}, mi{i});",
            f"inverse(c{i}, ci{i});",
        ]
        a, b = f"c{i}(z)", f"c{i}(t)"
        claims = [
            ("inverse pair", f"inverse_pair(m{i}, mi{i})", True),
            ("mismatched pair", f"inverse_pair(n{i}, mi{i})", False),
            ("unit jacobian", f"eq(jacdet(c{i}, z, t), 1)", True),
            ("round trip", f"eq(ci{i}(c{i}(f{i})), f{i})", True),
            ("shifted image", f"eq(m{i}(n{i}(t)), {shifted})", False),
            ("divides product", f"divides({a}*{b}, {a})", True),
            ("divides product plus one", f"divides({a}*{b} + 1, {a})", False),
            ("member combination", f"member({a}*f{i} + {b}*g{i}, {{{a}, {b}}})", True),
            ("member product plus one", f"member({a}*{b} + 1, {{{a}, {b}}})", False),
        ]
        flipped = rng.randrange(len(claims))
        for j, (name, body, truth) in enumerate(claims):
            expect = truth if j != flipped else not truth
            label = f"pair {i}: {name}"
            lines.append(f'claim "{label}" {body} expect {str(expect).lower()};')
            key[label] = "pass" if expect == truth else "fail"
        lines.append("")
    return "\n".join(lines), key
