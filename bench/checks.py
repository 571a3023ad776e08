"""Output checks that do not use the code under test.

Each check reads an op's captured output (CLI text or JSON, or the scan
report the child wrote) and the input file it was run on, and compares
them with oracles written here from the definitions:

- tupled values: a rooted-walk-count recurrence must match every count a
  value shows, and an infinite tail must really exist;
- categoriser: v = 1/(1 + sum of attacker values), exactly in Fraction on
  acyclic graphs, within 1e-9 on cyclic ones;
- labelling: the grounded labelling (+ in, - out, ? undecided);
- extensions: conflict-free and admissible, or attacking every outside
  argument for stable; no preferred extension contains another or can
  take one more argument; every stable extension is preferred; on small
  graphs the lists are complete; levels follow from the extensions;
- well-defendedness: recomputed from the values; a pair whose values lie
  within 1e-9 of each other, or tupled values whose branch counts are
  equal, is left undecided and either answer is accepted.

A check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations

from workloads import components

FLOAT_TOL = 1e-9
BRUTE_FORCE_LIMIT = 16  # complete extension lists are checked up to this size


class Problems(list):
    """Problems found, plus how many verdicts the oracle left undecided."""

    undecided = 0


# -- graphs -------------------------------------------------------------------


class G:
    def __init__(self, names, attacks):
        self.names = list(names)
        self.index = {a: i for i, a in enumerate(self.names)}
        seen, pairs = set(), []
        for pair in attacks:
            pair = tuple(pair)
            if pair not in seen:
                seen.add(pair)
                pairs.append(pair)
        self.attacks = pairs
        self.attackers = {a: [] for a in self.names}
        self.targets = {a: [] for a in self.names}
        for s, d in pairs:
            self.attackers[d].append(s)
            self.targets[s].append(d)

    def mcycles(self):
        """Non-trivial strongly connected components, as name sets."""
        idx = [(self.index[s], self.index[d]) for s, d in self.attacks]
        self_loops = {s for s, d in idx if s == d}
        return [{self.names[i] for i in comp} for comp in components(len(self.names), idx)
                if len(comp) > 1 or comp[0] in self_loops]

    def acyclic(self) -> bool:
        return not self.mcycles()


_ARG = re.compile(r"arg\(\s*(\w+)\s*\)\s*\.")
_ATT = re.compile(r"att\(\s*(\w+)\s*,\s*(\w+)\s*\)\s*\.")


def parse_apx(text: str) -> G:
    body = "\n".join(line.split("%", 1)[0] for line in text.splitlines())
    return G(_ARG.findall(body), _ATT.findall(body))


def load_graph(path: str) -> G:
    with open(path, encoding="utf-8") as handle:
        return parse_apx(handle.read())


def value_lines(g: G, text: str, problems) -> dict[str, str]:
    """'name value' lines, one per argument in declaration order."""
    lines = text.splitlines()
    names = [line.split(" ", 1)[0] for line in lines]
    if names != g.names:
        problems.append("value lines do not list the arguments in declaration order")
        return {}
    return {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines}


# -- tupled values -------------------------------------------------------------


def parse_component(text: str):
    """'(2,4^3,...)' -> ({2: 1, 4: 3}, infinite).  The all-zero tuple
    '(0,...)' is returned as ({0: 1}, True)."""
    inner = text.strip()[1:-1]
    parts = [p for p in inner.split(",") if p]
    infinite = bool(parts) and parts[-1] == "..."
    if infinite:
        parts = parts[:-1]
    counts: dict[int, int] = {}
    for p in parts:
        value, _, count = p.partition("^")
        counts[int(value)] = counts.get(int(value), 0) + (int(count) if count else 1)
    return counts, infinite


def parse_tupled(text: str):
    body = text.strip()
    if not (body.startswith("[(") and body.endswith(")]")):
        raise ValueError(f"not a tupled value: {text[:40]!r}")
    even, odd = body[1:-1].split("),(", 1)
    return parse_component(even + ")"), parse_component("(" + odd)


def rooted_walk_counts(g: G, bound: int) -> dict[str, list[int]]:
    """counts[a][k]: rooted walks of exactly k edges ending at a, k <= bound.

    A rooted walk starts at an unattacked argument, or inside an unattacked
    cycle union with its first step staying inside; after that it follows
    any attack.  Its length profile is the branch-length profile of the
    cycle-unfolded graph.
    """
    counts = {a: [0] * (bound + 1) for a in g.names}
    if bound < 1:
        return counts
    for a in g.names:
        if not g.attackers[a]:
            for t in g.targets[a]:
                counts[t][1] += 1
    for members in g.mcycles():
        if any(b not in members for m in members for b in g.attackers[m]):
            continue
        for m in members:
            for t in g.targets[m]:
                if t in members:
                    counts[t][1] += 1
    edges = [(counts[s], counts[d]) for s, d in g.attacks]
    for k in range(1, bound):
        for src, dst in edges:
            if src[k]:
                dst[k + 1] += src[k]
    return counts


def check_tuple_values(g: G, text: str) -> Problems:
    problems = Problems()
    values = value_lines(g, text, problems)
    if not values:
        return problems
    parsed = {}
    shown_max = 0
    for name, literal in values.items():
        try:
            parsed[name] = parse_tupled(literal)
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
            return problems
        for counts, _ in parsed[name]:
            shown_max = max([shown_max, *counts])
    bound = shown_max + 2 * len(g.names) + 2
    walks = rooted_walk_counts(g, bound)
    for name in g.names:
        (even, even_inf), (odd, odd_inf) = parsed[name]
        if not g.attackers[name]:
            if (even, even_inf, odd, odd_inf) != ({0: 1}, True, {}, False):
                problems.append(f"{name}: unattacked argument is not [(0,...),()]")
            continue
        for parity, counts, infinite in ((0, even, even_inf), (1, odd, odd_inf)):
            top = max(counts, default=0) if infinite else bound
            expected = {k: walks[name][k] for k in range(1, top + 1)
                        if k % 2 == parity and walks[name][k]}
            if counts != expected:
                wrong = sorted(set(counts) ^ set(expected)
                               | {k for k in counts if counts[k] != expected.get(k)})
                problems.append(f"{name}: branch counts differ from walk counts at lengths {wrong[:5]}")
            elif infinite and not any(walks[name][k] for k in range(top + 1, bound + 1)
                                      if k % 2 == parity):
                problems.append(f"{name}: shown as infinite but no longer walk exists")
    return problems


def _cardinality_better(v, w):
    """Strict preference of tupled value v over w from branch counts alone:
    True, False, or None when the counts are equal (a lexicographic
    stage this oracle does not decide)."""
    def count(component):
        counts, infinite = component
        return float("inf") if infinite else sum(counts.values())

    (ve, vo), (we, wo) = v, w
    vp, vi, wp, wi = count(ve), count(vo), count(we), count(wo)
    if vp == wp and vi == wi:
        return None if (ve, vo) != (we, wo) else False
    return vi <= wi and vp >= wp


# -- local values ----------------------------------------------------------------


def _number(text: str):
    if re.fullmatch(r"\d+(/\d+)?", text):
        return Fraction(text)
    return float(text)


def check_categoriser_values(g: G, text: str) -> Problems:
    problems = Problems()
    values = value_lines(g, text, problems)
    if not values:
        return problems
    try:
        nums = {a: _number(v) for a, v in values.items()}
    except ValueError as exc:
        problems.append(f"unparsable value: {exc}")
        return problems
    exact = g.acyclic()
    if exact and not all(isinstance(v, Fraction) for v in nums.values()):
        problems.append("acyclic graph but values are not exact fractions")
        return problems
    for a in g.names:
        total = sum((nums[b] for b in g.attackers[a]), Fraction(0) if exact else 0.0)
        want = 1 / (1 + total)
        if exact and nums[a] != want:
            problems.append(f"{a}: {nums[a]} != 1/(1+{total})")
        elif not exact and not (0 <= nums[a] <= 1 and abs(nums[a] - want) <= FLOAT_TOL):
            problems.append(f"{a}: {nums[a]!r} misses 1/(1+sum) = {float(want)!r}")
        if len(problems) > 5:
            break
    return problems


def grounded_labels(g: G) -> dict[str, str]:
    """Grounded labelling: + (in), - (out), ? (undecided)."""
    label: dict[str, str] = {}
    out_attackers = {a: 0 for a in g.names}
    queue = [a for a in g.names if not g.attackers[a]]
    while queue:
        a = queue.pop()
        if a in label:
            continue
        label[a] = "+"
        for t in g.targets[a]:
            if t in label:
                continue
            label[t] = "-"
            for u in g.targets[t]:
                out_attackers[u] += 1
                if u not in label and out_attackers[u] == len(g.attackers[u]):
                    queue.append(u)
    return {a: label.get(a, "?") for a in g.names}


def check_labelling_values(g: G, text: str) -> Problems:
    problems = Problems()
    values = value_lines(g, text, problems)
    if values:
        want = grounded_labels(g)
        wrong = [a for a in g.names if values[a] != want[a]]
        if wrong:
            problems.append(f"labels differ from the grounded labelling at {wrong[:5]}")
    return problems


def local_values(g: G, combine=sum) -> dict:
    """Own evaluation of v(a) = 1/(1 + combine(attacker values)): the
    categoriser with `sum`, the max-based instance with `max`.  Fractions
    in attack order on acyclic graphs, Jacobi iteration on floats
    otherwise."""
    if g.acyclic():
        values: dict = {}
        pending = {a: len(g.attackers[a]) for a in g.names}
        queue = [a for a in g.names if not pending[a]]
        while queue:
            a = queue.pop()
            attackers = [values[b] for b in g.attackers[a]]
            values[a] = 1 / (1 + Fraction(combine(attackers) if attackers else 0))
            for t in g.targets[a]:
                pending[t] -= 1
                if not pending[t]:
                    queue.append(t)
        return values
    values = {a: 1.0 for a in g.names}
    for _ in range(100000):
        nxt = {a: 1 / (1 + (combine([values[b] for b in g.attackers[a]])
                            if g.attackers[a] else 0.0)) for a in g.names}
        if max(abs(nxt[a] - values[a]) for a in g.names) < 1e-14:
            return nxt
        values = nxt
    return values


_LABEL_RANK = {"-": 0, "?": 1, "+": 2}


def scalar_better(x, y):
    """Strict preference of value x over y: True/False, None when floats
    lie within FLOAT_TOL of each other."""
    if isinstance(x, str):
        return _LABEL_RANK[x] > _LABEL_RANK[y]
    if isinstance(x, float) or isinstance(y, float):
        if abs(x - y) <= FLOAT_TOL:
            return None
    return x > y


def expected_defended(g: G, better) -> dict[str, bool | None]:
    """Per argument: well-defended (True/False) or None if undecided."""
    out = {}
    for a in g.names:
        verdicts = [better(b, a) for b in g.attackers[a]]
        if any(v is True for v in verdicts):
            out[a] = False
        elif all(v is False for v in verdicts):
            out[a] = True
        else:
            out[a] = None
    return out


def compare_defended(expected, reported, what: str) -> Problems:
    problems = Problems()
    wrong = [a for a, want in expected.items() if want is not None and want != (a in reported)]
    if wrong:
        problems.append(f"{what}: well-defended set wrong at {wrong[:5]}")
    problems.undecided = sum(1 for want in expected.values() if want is None)
    return problems


def defended_oracle(g: G, model: str, value_text: str | None):
    """A `better(b, a)` test for the model, from the model's value output
    when there is one, else from this module's own evaluation.  None when
    the oracle cannot judge the model without a value output."""
    if model == "labelling":
        labels = grounded_labels(g)
        return lambda b, a: scalar_better(labels[b], labels[a])
    if model == "categoriser":
        if value_text is not None:
            values = {a: _number(v) for a, v in value_text_map(value_text).items()}
        else:
            values = local_values(g)
        return lambda b, a: scalar_better(values[b], values[a])
    if model == "tuples" and value_text is not None:
        values = {a: parse_tupled(v) for a, v in value_text_map(value_text).items()}
        return lambda b, a: _cardinality_better(values[b], values[a])
    return None


def value_text_map(text: str) -> dict[str, str]:
    return dict(line.split(" ", 1) for line in text.splitlines())


def check_well_defended(g: G, text: str, model: str, value_text: str | None) -> Problems:
    reported = text.split()
    problems = Problems()
    chosen = set(reported)
    if [a for a in g.names if a in chosen] != reported:
        problems.append("well-defended names are not arguments in declaration order")
        return problems
    oracle = defended_oracle(g, model, value_text)
    if oracle is None:
        problems.undecided = len(g.names)
        return problems
    return compare_defended(expected_defended(g, oracle), chosen, model)


# -- extensions ------------------------------------------------------------------


def _attacked_by(g: G, members) -> set:
    return {t for m in members for t in g.targets[m]}


def conflict_free(g: G, members) -> bool:
    return not any(s in members and d in members for s, d in g.attacks)


def admissible(g: G, members) -> bool:
    hit = _attacked_by(g, members)
    return conflict_free(g, members) and all(
        b in hit for m in members for b in g.attackers[m])


def stable(g: G, members) -> bool:
    hit = _attacked_by(g, members)
    return conflict_free(g, members) and all(a in members or a in hit for a in g.names)


def brute_force_extensions(g: G, semantics: str) -> set[frozenset]:
    sets = [frozenset(c) for r in range(len(g.names) + 1) for c in combinations(g.names, r)]
    if semantics == "stable":
        return {s for s in sets if stable(g, s)}
    adm = [s for s in sets if admissible(g, s)]
    return {s for s in adm if not any(s < t for t in adm)}


def check_extensions(g: G, extensions, semantics: str) -> Problems:
    problems = Problems()
    exts = [frozenset(e) for e in extensions]
    for e, raw in zip(exts, extensions):
        if len(e) != len(raw) or not e <= set(g.names):
            problems.append(f"extension {sorted(raw)} has unknown or repeated members")
            return problems
    if len(set(exts)) != len(exts):
        problems.append("an extension is listed twice")
    for e in exts:
        if semantics == "stable" and not stable(g, e):
            problems.append(f"{sorted(e)} is not stable")
        if semantics == "preferred":
            if not admissible(g, e):
                problems.append(f"{sorted(e)} is not admissible")
            elif any(admissible(g, e | {a}) for a in g.names if a not in e):
                problems.append(f"{sorted(e)} is admissible but not maximal")
    if semantics == "preferred":
        if not exts:
            problems.append("no preferred extension (the empty set is admissible)")
        if any(a < b for a in exts for b in exts):
            problems.append("a preferred extension contains another")
    if len(g.names) <= BRUTE_FORCE_LIMIT and set(exts) != brute_force_extensions(g, semantics):
        problems.append(f"{semantics} extensions are not the complete list")
    return problems


def expected_levels(g: G, extensions) -> dict[str, str]:
    sets = [set(e) for e in extensions]
    levels = {}
    for a in g.names:
        containing = sum(a in s for s in sets)
        attacker_in = any(b in s for s in sets for b in g.attackers[a])
        if sets and containing == len(sets):
            levels[a] = "uni"
        elif containing and not attacker_in:
            levels[a] = "cleanly"
        elif containing:
            levels[a] = "only-exi"
        else:
            levels[a] = "not-accepted"
    return levels


def parse_solve(text: str):
    exts = []
    for line in text.splitlines():
        if not (line.startswith("{") and line.endswith("}")):
            raise ValueError(f"not an extension: {line[:40]!r}")
        inner = line[1:-1]
        exts.append(inner.split(",") if inner else [])
    return exts


def check_solve(g: G, text: str, semantics: str) -> Problems:
    try:
        exts = parse_solve(text)
    except ValueError as exc:
        return Problems([str(exc)])
    return check_extensions(g, exts, semantics)


def check_classify(g: G, text: str, semantics: str) -> Problems:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return Problems([f"not JSON: {exc}"])
    problems = check_extensions(g, doc.get("extensions", []), semantics)
    if doc.get("levels") != expected_levels(g, doc.get("extensions", [])):
        problems.append("levels do not follow from the extensions")
    for model, names in doc.get("well_defended", {}).items():
        oracle = defended_oracle(g, model, None)
        if oracle is None:
            problems.undecided += len(g.names)
            continue
        found = compare_defended(expected_defended(g, oracle), set(names), model)
        problems.extend(found)
        problems.undecided += found.undecided
    return problems


# -- scan ------------------------------------------------------------------------

CLEAN = {"uni", "cleanly"}
_SCAN_MODEL = {"categoriser": "categoriser", "rooted_labelling": "labelling"}


def check_scan(doc: dict, op: dict) -> Problems:
    problems = Problems()
    used, trials = doc["trials_used"], op["trials"]
    found = [w for w in (doc["cleanly_not_defended"], doc["defended_not_cleanly"]) if w]
    if not 1 <= used <= trials:
        problems.append(f"trials_used {used} outside 1..{trials}")
    if any(w["trial"] > used for w in found):
        problems.append("a witness comes from a trial after the last one used")
    if len(found) == 2 and used != max(w["trial"] for w in found):
        problems.append("the scan went on after finding both witnesses")
    if len(found) < 2 and used != trials:
        problems.append("the scan stopped early without both witnesses")
    for direction in ("cleanly_not_defended", "defended_not_cleanly"):
        w = doc[direction]
        if w is None:
            continue
        g = G(w["arguments"], [tuple(a) for a in w["attacks"]])
        exts = brute_force_extensions(g, "preferred")
        clean = expected_levels(g, exts)[w["argument"]] in CLEAN
        if clean != (direction == "cleanly_not_defended"):
            problems.append(f"{direction} witness {w['argument']} has the wrong acceptance level")
        valuation = op["valuation"]
        if valuation == "max_based":
            values = local_values(g, max)
            oracle = lambda b, a: scalar_better(values[b], values[a])  # noqa: E731
        elif valuation == "tuples":
            oracle = None
        else:
            oracle = defended_oracle(g, _SCAN_MODEL[valuation], None)
        if oracle is None:
            problems.undecided += 1
            continue
        defended = expected_defended(g, oracle)[w["argument"]]
        if defended is None:
            problems.undecided += 1
        elif defended != (direction == "defended_not_cleanly"):
            problems.append(f"{direction} witness {w['argument']} has the wrong defence verdict")
    return problems


# -- dispatch --------------------------------------------------------------------


def check_op(op: dict, output: str, companions: dict) -> Problems:
    """Check one op's output; `companions` maps (graph, command, model or
    semantics) to the output of the other ops of the same pass."""
    if op["kind"] == "scan":
        return check_scan(json.loads(output), op)
    g = load_graph(op["graph"])
    command = op["command"]
    if command == "value":
        model = op["model"]
        if model == "tuples":
            return check_tuple_values(g, output)
        if model == "categoriser":
            return check_categoriser_values(g, output)
        return check_labelling_values(g, output)
    if command == "well-defended":
        value_text = companions.get((op["graph"], "value", op["model"]))
        return check_well_defended(g, output, op["model"], value_text)
    if command == "solve" or command == "classify":
        semantics = op["semantics"]
        problems = (check_solve(g, output, semantics) if command == "solve"
                    else check_classify(g, output, semantics))
        if semantics == "stable":
            preferred = companions.get((op["graph"], "solve", "preferred"))
            if preferred is not None:
                stable_exts = ({frozenset(e) for e in parse_solve(output)} if command == "solve"
                               else {frozenset(e) for e in json.loads(output)["extensions"]})
                if not stable_exts <= {frozenset(e) for e in parse_solve(preferred)}:
                    problems.append("a stable extension is not among the preferred ones")
        return problems
    if command == "export-dot":
        problems = Problems()
        edges = set(re.findall(r'"(\w+)" -> "(\w+)";', output))
        if edges != set(g.attacks) or not output.startswith("digraph"):
            problems.append("DOT output does not carry the attack relation")
        return problems
    return Problems([f"no check for command {command!r}"])


def companion_key(op: dict):
    if op["kind"] != "cli":
        return None
    return (op["graph"], op["command"], op.get("model") or op.get("semantics"))
