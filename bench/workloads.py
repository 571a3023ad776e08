"""Seeded inputs and op plans for the four benchmark workloads.

Everything here is the benchmark's own code: the graphs are drawn with
`random.Random` seeded from the workload name and the run seed, so the
same seed always gives byte-identical input files, and nothing depends on
the generators inside `gradarg`.

Random graphs are drawn by seeded rejection against stated size
properties (argument count and attack count exactly, largest strongly
connected component and its entry members within a band), so that a fresh
seed gives a load comparable to every other seed.
"""

from __future__ import annotations

import os
import random

WORKLOADS = ("cyclic-tuples", "small-classify", "large-local", "scan")

MODELS = ("categoriser", "labelling", "tuples")
SCAN_VALUATIONS = ("categoriser", "rooted_labelling", "max_based", "tuples")

MAX_DRAWS = 20000


class GenerationError(RuntimeError):
    """No graph within the stated properties after MAX_DRAWS draws."""


# -- graphs -------------------------------------------------------------------


class Graph:
    """Argument names in declaration order plus attacks as index pairs."""

    def __init__(self, names, attacks):
        self.names = list(names)
        self.attacks = list(attacks)

    def apx(self) -> str:
        lines = [f"arg({a})." for a in self.names]
        lines += [f"att({self.names[s]},{self.names[d]})." for s, d in self.attacks]
        return "\n".join(lines) + "\n"


def components(n: int, attacks) -> list[list[int]]:
    """Strongly connected components (iterative Tarjan), each sorted."""
    succ = [[] for _ in range(n)]
    for s, d in attacks:
        succ[s].append(d)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, i = work[-1]
            if i < len(succ[v]):
                work[-1] = (v, i + 1)
                w = succ[v][i]
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                out.append(sorted(comp))
    return out


def size_properties(g: Graph) -> dict:
    """The properties every generated graph is drawn against.  The relay
    work of tuple evaluation on the largest component grows with its size,
    its entry members and its internal attacks, and multiplies when other
    cycle unions feed it."""
    n = len(g.names)
    comps = components(n, g.attacks)
    largest = max(comps, key=len)
    members = set(largest)
    entries = {d for s, d in g.attacks if d in members and s not in members}
    self_loops = {s for s, d in g.attacks if s == d}
    preds = [[] for _ in range(n)]
    for s, d in g.attacks:
        preds[d].append(s)
    upstream, stack = set(), [v for v in largest]
    while stack:
        for u in preds[stack.pop()]:
            if u not in upstream and u not in members:
                upstream.add(u)
                stack.append(u)
    feeding = sum(1 for c in comps
                  if c[0] in upstream and (len(c) > 1 or c[0] in self_loops))
    return {
        "arguments": n,
        "attacks": len(g.attacks),
        "largest_component": len(largest),
        "component_entries": len(entries),
        "component_attacks": sum(1 for s, d in g.attacks if s in members and d in members),
        "feeding_cycle_unions": feeding,
    }


def _draw_pairs(rng: random.Random, n: int, m: int, acyclic: bool):
    pairs: set[tuple[int, int]] = set()
    ordered = []
    while len(ordered) < m:
        s, d = rng.randrange(n), rng.randrange(n)
        if s == d:
            continue
        if acyclic and s < d:
            s, d = d, s  # only later arguments attack earlier ones
        if (s, d) not in pairs:
            pairs.add((s, d))
            ordered.append((s, d))
    return ordered


def draw_graph(rng, n, m, *, acyclic=False, bands=None):
    """A random digraph with exactly n arguments and m attacks whose
    size_properties fall within the given inclusive bands."""
    names = [f"a{i}" for i in range(1, n + 1)]
    for _ in range(MAX_DRAWS):
        g = Graph(names, _draw_pairs(rng, n, m, acyclic))
        if not bands:
            return g
        props = size_properties(g)
        if all(lo <= props[key] <= hi for key, (lo, hi) in bands.items()):
            return g
    raise GenerationError(f"no {n}-argument graph within {bands}")


def roadmap_graph(seed: int, size: int, density: float) -> Graph:
    """The ROADMAP cases: every ordered pair, self-pairs included, attacks
    with probability `density` under `random.Random(seed)`.  The same
    draw order as `gradarg.random_attack_graph`, re-implemented here so the
    inputs do not change when the library does."""
    rng = random.Random(seed)
    names = [f"a{i}" for i in range(1, size + 1)]
    attacks = [(s, d) for s in range(size) for d in range(size) if rng.random() < density]
    return Graph(names, attacks)


def count_conflict_free(g: Graph) -> int:
    """Number of conflict-free sets (independent sets of the symmetric
    attack relation, self-attackers excluded)."""
    n = len(g.names)
    nbr = [0] * n
    banned = 0
    for s, d in g.attacks:
        if s == d:
            banned |= 1 << s
        else:
            nbr[s] |= 1 << d
            nbr[d] |= 1 << s
    memo: dict[int, int] = {}

    def count(mask: int) -> int:
        if not mask:
            return 1
        if mask in memo:
            return memo[mask]
        v = max((i for i in range(n) if mask >> i & 1), key=lambda i: bin(nbr[i] & mask).count("1"))
        bit = 1 << v
        if not nbr[v] & mask:
            result = 2 * count(mask & ~bit)
        else:
            result = count(mask & ~bit) + count(mask & ~bit & ~nbr[v])
        memo[mask] = result
        return result

    return count(((1 << n) - 1) & ~banned)


# -- op plans ------------------------------------------------------------------
#
# An op is a dict: {"kind": "cli", "argv": [...], "graph": <file>, ...} runs
# gradarg.cli.main(argv) once; {"kind": "scan", ...} runs one
# compatibility_scan call.  "graph", "command", "model" and "semantics" tell
# the output checks what the op was asked.

# (arguments, attacks, --depth, (largest component, its entry members,
# its internal attacks) bands); no other cycle union feeds the largest one.
# The 120-argument graph comes twice, so that the median op falls inside
# its cost band rather than between two bands.
TUPLE_GRAPHS = (
    (60, 120, 10, (37, 41), (12, 13), (78, 83)),
    (80, 160, 10, (49, 53), (16, 17), (98, 105)),
    (120, 240, 3, (73, 79), (24, 25), (149, 157)),
    (120, 240, 3, (73, 79), (24, 25), (149, 157)),
    (160, 320, 1, (100, 106), (33, 35), (202, 210)),
)
ROADMAP_TUPLE_CASE = (5, 200, 0.01, 1)  # random_attack_graph(5, 200, 2/200), depth 1

# (arguments, attacks, conflict-free-set band)
CLASSIFY_GRAPHS = (
    (22, 24, (60000, 80000)),
    (23, 26, (95000, 110000)),
    (23, 26, (95000, 110000)),
    (24, 29, (120000, 150000)),
    (24, 29, (120000, 150000)),
)
ROADMAP_CLASSIFY_CASE = (2, 24, 0.05)

# (arguments, acyclic?, largest-component band); attacks = 1.3 per argument
LOCAL_GRAPHS = (
    (5000, True, None),
    (10000, True, None),
    (6000, False, (1050, 1200)),
    (8000, False, (1350, 1500)),
)
LOCAL_ATTACKS_PER_ARGUMENT = 1.3

SCAN_SEEDS_PER_VALUATION = 64
SCAN_TRIALS = 100

# Roughly how long one unit of each workload takes on the seed code, in
# op seconds at nominal machine speed (reference.py); a run holds
# round(seconds / unit) units.
UNIT_SECONDS = {"cyclic-tuples": 7, "small-classify": 7, "large-local": 9, "scan": 7}


def _write(workdir: str, name: str, g: Graph) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(g.apx())
    return path


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def plan_cyclic_tuples(seed: int, units: int, workdir: str):
    rng = _rng("cyclic-tuples", seed)
    cases = []
    for u in range(units):
        for k, (n, m, depth, largest, entries, internal) in enumerate(TUPLE_GRAPHS):
            bands = {"largest_component": largest, "component_entries": entries,
                     "component_attacks": internal, "feeding_cycle_unions": (0, 0)}
            cases.append((f"tuples{u}-{k}.apx", draw_graph(rng, n, m, bands=bands), depth))
    rseed, size, density, depth = ROADMAP_TUPLE_CASE
    cases.append(("tuples-roadmap.apx", roadmap_graph(rseed, size, density), depth))
    ops, graphs = [], []
    for name, g, depth in cases:
        path = _write(workdir, name, g)
        graphs.append(dict(size_properties(g), file=name, depth=depth))
        for command in ("value", "well-defended"):
            ops.append({"kind": "cli", "graph": path, "command": command, "model": "tuples",
                        "argv": [command, path, "--model", "tuples", "--depth", str(depth)]})
    return ops, graphs


def plan_small_classify(seed: int, units: int, workdir: str, fixtures_dir: str):
    rng = _rng("small-classify", seed)
    cases = []
    for u in range(units):
        for k, (n, m, band) in enumerate(CLASSIFY_GRAPHS):
            for _ in range(MAX_DRAWS):
                g = draw_graph(rng, n, m)
                if band[0] <= count_conflict_free(g) <= band[1]:
                    break
            else:
                raise GenerationError(f"no {n}-argument graph with {band} conflict-free sets")
            cases.append((f"classify{u}-{k}.apx", g))
    cases.append(("classify-roadmap.apx", roadmap_graph(*ROADMAP_CLASSIFY_CASE)))
    ops, graphs = [], []
    for name, g in cases:
        path = _write(workdir, name, g)
        graphs.append(dict(size_properties(g), file=name, conflict_free=count_conflict_free(g)))
        for semantics in ("preferred", "stable"):
            ops.append({"kind": "cli", "graph": path, "command": "classify", "semantics": semantics,
                        "argv": ["classify", path, "--semantics", semantics, "--format", "json"]})
            ops.append({"kind": "cli", "graph": path, "command": "solve", "semantics": semantics,
                        "argv": ["solve", path, "--semantics", semantics]})
    for fixture in sorted(os.listdir(fixtures_dir)):
        if not fixture.endswith(".apx"):
            continue
        path = os.path.join(fixtures_dir, fixture)
        for model in MODELS:
            ops.append({"kind": "cli", "graph": path, "command": "value", "model": model,
                        "argv": ["value", path, "--model", model]})
            ops.append({"kind": "cli", "graph": path, "command": "well-defended", "model": model,
                        "argv": ["well-defended", path, "--model", model]})
        for semantics in ("preferred", "stable"):
            ops.append({"kind": "cli", "graph": path, "command": "solve", "semantics": semantics,
                        "argv": ["solve", path, "--semantics", semantics]})
            ops.append({"kind": "cli", "graph": path, "command": "classify", "semantics": semantics,
                        "argv": ["classify", path, "--semantics", semantics, "--format", "json"]})
        ops.append({"kind": "cli", "graph": path, "command": "export-dot",
                    "argv": ["export-dot", path]})
    return ops, graphs


def plan_large_local(seed: int, units: int, workdir: str):
    rng = _rng("large-local", seed)
    ops, graphs = [], []
    for u, k in ((u, k) for u in range(units) for k in range(len(LOCAL_GRAPHS))):
        n, acyclic, largest = LOCAL_GRAPHS[k]
        m = round(n * LOCAL_ATTACKS_PER_ARGUMENT)
        g = draw_graph(rng, n, m, acyclic=acyclic,
                       bands={"largest_component": largest} if largest else None)
        name = f"local{u}-{k}.apx"
        path = _write(workdir, name, g)
        graphs.append(dict(size_properties(g), file=name))
        for command, model in (("value", "categoriser"), ("value", "labelling"),
                               ("well-defended", "categoriser")):
            ops.append({"kind": "cli", "graph": path, "command": command, "model": model,
                        "argv": [command, path, "--model", model]})
    return ops, graphs


def plan_scan(seed: int, units: int):
    rng = _rng("scan", seed)
    ops = []
    for _ in range(units * SCAN_SEEDS_PER_VALUATION):
        for valuation in SCAN_VALUATIONS:
            ops.append({"kind": "scan", "valuation": valuation,
                        "seed": rng.randrange(2**31), "trials": SCAN_TRIALS})
    graphs = [{"trials_per_op": SCAN_TRIALS, "size_bound": 8,
               "ops_per_valuation": units * SCAN_SEEDS_PER_VALUATION}]
    return ops, graphs


def make_plan(workload: str, seed: int, seconds: float, workdir: str, fixtures_dir: str):
    """(ops, input properties) for one run; writes the input files.

    The op set is fixed by the workload, the seed and `seconds`: it holds
    round(seconds / UNIT_SECONDS[workload]) units of freshly drawn inputs
    (at least one), plus the fixed ROADMAP cases and fixtures once.  It does not
    depend on how fast the program is, so every version of the program
    runs the same ops and the same number of latency samples.
    """
    units = max(1, round(seconds / UNIT_SECONDS[workload]))
    if workload == "cyclic-tuples":
        ops, properties = plan_cyclic_tuples(seed, units, workdir)
    elif workload == "small-classify":
        ops, properties = plan_small_classify(seed, units, workdir, fixtures_dir)
    elif workload == "large-local":
        ops, properties = plan_large_local(seed, units, workdir)
    elif workload == "scan":
        ops, properties = plan_scan(seed, units)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # Interleave the kinds of op over the run: the machine's speed drifts,
    # and a kind of op run back to back would sample one moment of it.
    _rng(workload + ":order", seed).shuffle(ops)
    return ops, properties
