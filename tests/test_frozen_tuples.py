"""Differential gate: rendered `value --model tuples` output, frozen.

`frozen_tuple_digests.json` holds the sha256 of the CLI's text output for
every case below at `--depth` 1..12, recorded from the evaluator that
unrolled cycle unions by per-entry relay tables.  The rooted-walk oracle
in `test_tuple_eval` is the same recurrence as today's evaluator, so these
digests are the independent check that the output has not moved.

Regenerate (only when a change of output is intended and announced):
    PYTHONPATH=src python3 tests/test_frozen_tuples.py > tests/frozen_tuple_digests.json
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path


HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from conftest import FIXTURES  # noqa: E402

from gradarg import AttackGraph, parse_framework, random_attack_graph  # noqa: E402
from gradarg.cli import main  # noqa: E402

DIGESTS = HERE / "frozen_tuple_digests.json"
DEPTHS = range(1, 13)

# Hand-built shapes the random graphs may miss: self-loops feeding and fed
# by cycle unions, bipartite unions with one and several entry points, and
# chains of unions each attacked by the one before.
HAND_BUILT = {
    "selfloop-feeds-cycle": (
        "s a b c t",
        "s,s s,a a,b b,a b,c c,t",
    ),
    "leaf-feeds-selfloop": (
        "l s t u",
        "l,s s,s s,t t,u",
    ),
    "bipartite-two-entries": (
        "d e c1 c2 c3 c4 x",
        "d,c1 e,c2 c1,c2 c2,c3 c3,c4 c4,c1 c2,c1 c3,x",
    ),
    "bipartite-fed-by-odd": (
        "o1 o2 o3 b1 b2 b3 b4 y",
        "o1,o2 o2,o3 o3,o1 o3,b1 b1,b2 b2,b3 b3,b4 b4,b1 b4,y y,b2",
    ),
    "union-chain": (
        "u1 u2 u3 v1 v2 w t1 t2",
        "u1,u2 u2,u3 u3,u1 u2,v1 v1,v2 v2,v1 v2,w w,w w,t1 t1,t2 u3,t2",
    ),
    "two-unions-join": (
        "p1 p2 q1 q2 q3 r1 r2 z",
        "p1,p2 p2,p1 q1,q2 q2,q3 q3,q1 q1,q3 p2,r1 q2,r2 r1,r2 r2,r1 r1,z",
    ),
    "odd-union-long-tail": (
        "leaf a1 a2 a3 a4 a5 m1 m2 m3",
        "leaf,a1 a1,a2 a2,a3 a3,a4 a4,a5 a5,m1 m1,m2 m2,m3 m3,m1 m1,m3 a2,m2",
    ),
}


def _hand_built(arguments: str, attacks: str) -> AttackGraph:
    return AttackGraph(
        arguments.split(), [tuple(pair.split(",")) for pair in attacks.split()]
    )


def cases() -> dict[str, str]:
    """Case id -> framework text, in a fixed order."""
    out = {}
    for path in sorted(FIXTURES.glob("*.apx")):
        out[f"fixture:{path.stem}"] = path.read_text()
    for name, (arguments, attacks) in HAND_BUILT.items():
        out[f"hand:{name}"] = _hand_built(arguments, attacks).serialize()
    for seed in range(48):
        size = 3 + seed % 10
        density = (0.12, 0.2, 0.3)[seed % 3]
        out[f"random:{seed}:{size}:{density}"] = (
            random_attack_graph(seed, size, density).serialize()
        )
    for seed, size in ((101, 18), (102, 24), (103, 30)):
        density = 2.0 / size
        out[f"random:{seed}:{size}:{density:.4f}"] = (
            random_attack_graph(seed, size, density).serialize()
        )
    return out


def render(path: Path, depth: int) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["value", str(path), "--model", "tuples", "--depth", str(depth)])
    assert code == 0, (path, depth)
    return buffer.getvalue()


def digests(workdir: Path) -> dict[str, str]:
    out = {}
    for index, (case, text) in enumerate(cases().items()):
        path = workdir / f"case{index}.apx"
        path.write_text(text)
        for depth in DEPTHS:
            output = render(path, depth).encode()
            out[f"{case}@{depth}"] = hashlib.sha256(output).hexdigest()
    return out


def _kinds(g: AttackGraph) -> set[str]:
    """Union shapes present in g, to show the cases cover each of them."""
    kinds = set()
    mcycles = g.find_mcycles()
    owner = {m: i for i, mc in enumerate(mcycles) for m in mc.members}
    for i, mc in enumerate(mcycles):
        members = set(mc.members)
        if len(members) == 1:
            kinds.add("self-loop")
        colour = {mc.members[0]: 0}
        frontier = [mc.members[0]]
        bipartite = True
        while frontier:
            v = frontier.pop()
            for t in g.targets_of(v):
                if t not in members:
                    continue
                if t not in colour:
                    colour[t] = 1 - colour[v]
                    frontier.append(t)
                elif colour[t] == colour[v]:
                    bipartite = False
        if bipartite:
            kinds.add("bipartite")
        for m in mc.inputs:
            if any(owner.get(b, i) != i for b in g.attackers_of(m)):
                kinds.add("fed-by-union")
    return kinds


def test_cases_cover_every_union_shape():
    seen = set()
    for text in cases().values():
        seen |= _kinds(parse_framework(text))
    assert {"self-loop", "bipartite", "fed-by-union"} <= seen


def test_rendered_tuple_values_match_the_frozen_digests(tmp_path):
    frozen = json.loads(DIGESTS.read_text())
    got = digests(tmp_path)
    assert sorted(got) == sorted(frozen)
    moved = [case for case in frozen if got[case] != frozen[case]]
    assert not moved, f"{len(moved)} cases changed output, first: {moved[:5]}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(digests(Path(tmp)), sys.stdout, indent=0, sort_keys=True)
        sys.stdout.write("\n")
