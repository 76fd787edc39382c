"""Workload `team`: model checking on data tables.

Two seeded teams over six variables with skewed columns and planted
functional dependencies: about 1k rows as `.csv` and 8k rows as `.dm` with
predicates.  The query pool mixes the families D, box, conditional
dependence, [learn], [ann], I and GEQ (the last two on the 1k team only)
through `checker.truth_set`, `checker.eval_formula` and
`checker.update_announce`, plus `lfd deps` (global and local) through
`cli.main` in-process.  Answers are checked at sampled rows against a row by
row reference, and `deps` output for being minimal and determining.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import gen
import oracle
from spans import standard_layers
from worker import Query

FAMILIES = ("D", "box", "conddep", "learn", "ann", "I", "GEQ")

# family -> formula texts; the same shapes for every seed, so the cost of a
# pass depends on the team sizes, not on which formulas a seed happened to draw
SMALL = {
    "D": ["D{a}c", "D{a}d", "D{b}d", "D{a,b}d", "D{c,e}f", "D{d,e}f", "D{b,e}c"],
    "box": ["box{a}D{b}d", "box{c}D{a}c", "box{e}!D{c}d", "box{b,e}D{d}f"],
    "conddep": ["D{b}d|(D{a}d)", "D{a}f|(D{a,e}f)", "D{a,e}d|(!D{a}d)"],
    "learn": ["[learn e]D{b}d", "[learn c,e]box{b}D{a}d", "[learn b]D{a}f"],
    "ann": ["[ann D{b,e}f]D{b}d", "[ann D{a}d]box{c}D{a}d",
            "[ann !D{b}c]D{e}f"],
    # conditional only: the unconditional I compares whole-team information
    # sets at every row, and its allocation churn made team throughput
    # follow the host's load instead of the code
    "I": ["I{a}{e}|{f}", "I{c}{e}|{b}", "I{b}{e}|{c}", "I{d}{e}|{a}"],
    "GEQ": ["GEQ{a}{d}{b}", "GEQ{a,b}{f}{c,e}", "GEQ{d}{c}{a}", "GEQ{e}{f}{d}"],
}
LARGE = {
    "D": ["D{a}c", "D{a}d", "D{a,b}d", "D{d,e}f"],
    "box": ["box{a}D{b}d", "box{c,e}P(f)", "box{d}(P(a) | R(c,e))",
            "box{b}!R(d,f)"],
    "conddep": ["D{b}d|(P(e))", "D{c}f|(R(c,e))", "D{a}d|(P(b))"],
    "learn": ["[learn e]D{b}d", "[learn c,e]box{b}P(d)", "[learn f]R(c,e)"],
    "ann": ["[ann P(a)]box{e}P(c)", "[ann R(c,e)]D{b}d", "[ann !P(b)]D{d,e}f"],
}
# announcements for update_announce; D atoms are kept only where they hold
# at some row, so no update empties the team
SMALL_UPDATES = [("a", "d"), ("b", "c"), ("c", "d"), ("a", "b", "d")]
LARGE_UPDATES = ["P(a)", "R(c,e)"]
SAMPLE_ROWS = 16


def prepare(seed: int, workdir: str, smoke: bool) -> None:
    rng = random.Random(seed)
    n_small, n_large = (60, 200) if smoke else (1000, 8000)
    small = gen.make_team(rng, n_small)
    large = gen.make_team(rng, n_large)
    preds = gen.make_predicates(rng, large)
    with open(os.path.join(workdir, "small.csv"), "w") as fh:
        fh.write(gen.csv_text(gen.TEAM_VARS, small))
    with open(os.path.join(workdir, "large.dm"), "w") as fh:
        fh.write(gen.dm_text(gen.TEAM_VARS, large, preds))

    def sample(n):
        return sorted(rng.sample(range(n), min(SAMPLE_ROWS, n)))

    queries = []
    for team, n, table in (("small", n_small, SMALL), ("large", n_large, LARGE)):
        for fam, texts in table.items():
            for k, text in enumerate(texts):
                # the first D query per team goes through eval_formula
                if fam == "D" and k == 0:
                    queries.append({"label": f"team/{fam}", "team": team,
                                    "kind": "eval", "text": text,
                                    "row": rng.randrange(n)})
                else:
                    queries.append({"label": f"team/{fam}", "team": team,
                                    "kind": "truth_set", "text": text,
                                    "sample": sample(n)})
    updates = [f"D{{{','.join(u[:-1])}}}{u[-1]}" for u in SMALL_UPDATES
               if gen.dep_holds_somewhere(small, gen.TEAM_VARS, u[:-1], u[-1])]
    for text in updates[:2]:
        queries.append({"label": "team/update", "team": "small",
                        "kind": "update", "text": text})
    for text in LARGE_UPDATES:
        queries.append({"label": "team/update", "team": "large",
                        "kind": "update", "text": text})
    queries.append({"label": "team/deps", "team": "small", "kind": "deps"})
    for team, rows, count in (("small", small, 2), ("large", large, 1)):
        for at in common_rows(rows, count):
            queries.append({"label": "team/deps", "team": team, "kind": "deps",
                            "row": at})
    rng.shuffle(queries)
    spec = {"teams": {"small": "small.csv", "large": "large.dm"},
            "planted": [[list(src), y] for src, y, _ in gen.PLANTED],
            "queries": queries}
    with open(os.path.join(workdir, "spec.json"), "w") as fh:
        json.dump(spec, fh)


def common_rows(rows, count):
    """The `count` rows whose free values are the most frequent ones (value
    indices are frequency ranks).  Local `deps` at a row costs one scan per
    candidate set, and how many sets pruning skips depends on the row: at
    the commonest values only the planted dependencies hold, so the cost is
    the same for every seed, where a random row can cost ten times more."""
    free = [gen.TEAM_VARS.index(x) for x in gen.TEAM_CARD]
    rank = sorted(range(len(rows)),
                  key=lambda i: tuple(int(rows[i][k][1:]) for k in free))
    return rank[:count]


def setup(workdir: str):
    from lfd import checker, cli, models, parser

    with open(os.path.join(workdir, "spec.json")) as fh:
        spec = json.load(fh)
    paths = {t: os.path.join(workdir, p) for t, p in spec["teams"].items()}
    loaded = {t: models.load_model(p) for t, p in paths.items()}
    planted = [(tuple(src), y) for src, y in spec["planted"]]
    refs = {}

    def ref(team):
        if team not in refs:
            variables, rows, interp = oracle.read_team(paths[team])
            refs[team] = (variables, rows, oracle.TeamRef(rows, interp))
        return refs[team]

    def rows_counter(m):
        def count(result, counters):
            counters["checker.truth_set.rows"] = \
                counters.get("checker.truth_set.rows", 0) + len(m.team)
        return count

    def make(q):
        team, kind = q["team"], q["kind"]
        m, path = loaded[team], paths[team]
        if kind == "deps":
            argv = ["deps", "--model", path]
            at = q.get("row")
            if at is not None:
                argv += ["--local", str(at)]

            def run():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
                return code, buf.getvalue()

            def check(summary):
                code, text = summary
                if code != 0:
                    return f"deps exit {code}"
                variables, rows, _ = ref(team)
                return oracle.check_deps_output(text, variables, rows, at,
                                                planted)

            def count(result, counters):
                sets = sum(len(ln.split(": ", 1)[1].split())
                           for ln in result[1].strip().splitlines()[1:]
                           if not ln.endswith("(none)"))
                counters["deps.sets"] = counters.get("deps.sets", 0) + sets

            return Query(q["label"], run, lambda r: r, check, count)

        f = parser.parse(q["text"])
        text = q["text"]
        if kind == "eval":
            at = q["row"]

            def check_eval(got):
                want = ref(team)[2].holds(at, f)
                return None if got == want else \
                    f"{text} at row {at}: got {got}, reference {want}"

            return Query(q["label"], lambda: checker.eval_formula(m, at, f),
                         bool, check_eval, rows_counter(m))
        if kind == "truth_set":
            sample = q["sample"]

            def check_set(summary):
                ref_team = ref(team)[2]
                for i, got in zip(sample, summary[1]):
                    want = ref_team.holds(i, f)
                    if got != want:
                        return f"{text} at row {i}: got {got}, reference {want}"
                return None

            return Query(q["label"], lambda: checker.truth_set(m, f),
                         lambda r: (len(r), tuple(i in r for i in sample)),
                         check_set, rows_counter(m))
        # update_announce: the kept rows, as indices of the original team
        index = {m.row_tuple(i): i for i in range(len(m.team))}

        def kept(result):
            return tuple(index[result.row_tuple(i)]
                         for i in range(len(result.team)))

        def check_update(got):
            ref_team = ref(team)[2]
            want = tuple(i for i in range(len(ref_team.rows))
                         if ref_team.holds(i, f))
            return None if got == want else \
                f"update_announce {text}: kept {len(got)} rows, " \
                f"reference {len(want)}"

        return Query(q["label"], lambda: checker.update_announce(m, f),
                     kept, check_update, rows_counter(m))

    return [make(q) for q in spec["queries"]]


def layers(tracer, agg, counters, cycles):
    out = standard_layers(agg, cycles)
    per_family = {fam: 0.0 for fam in FAMILIES}
    for i, (name, start, end, parent) in enumerate(tracer.spans):
        if name in ("checker.truth_set", "checker.eval_formula"):
            fam = tracer.root_of(i).split("/", 1)[1]
            if fam in per_family:
                per_family[fam] += 1000 * (end - start)
    for fam, ms in per_family.items():
        out[f"checker.truth_set.{fam}.ms"] = ms / cycles
    out["checker.truth_set.rows"] = \
        counters.get("checker.truth_set.rows", 0) / cycles
    tests = sum(agg.get(k, {}).get("calls", 0)
                for k in ("models.global_dep", "models.local_dep"))
    out["models.deps_hit_ratio"] = counters.get("deps.sets", 0) / tests \
        if tests else 0.0
    return out
