"""Command-line front end.

Exit codes: 0 command completed (boolean results are printed, not encoded),
2 parse or format error or unreadable/unwritable file, 3 semantic error
(unknown variable, cap exceeded, bad row address), 4 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import checker, decide, models, prover, relational, represent
from . import formulas as F
from . import fol, hilbert
from .parser import ParseError, parse, parse_sequent

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_model(path: str) -> models.DependenceModel:
    try:
        return models.load_model(path)
    except models.ModelError as e:
        raise CliError(str(e), EXIT_PARSE)


def _parse_formula(text: str) -> F.Formula:
    try:
        return parse(text)
    except ParseError as e:
        raise CliError(f"cannot parse formula: {e}", EXIT_PARSE)


def _varset(text: str) -> frozenset:
    return frozenset(v for v in text.strip().strip("{}").split(",") if v)


def _resolve_row(m: models.DependenceModel, at: Optional[int],
                 where: Optional[str]) -> int:
    if at is not None and where is not None:
        raise CliError("give either --at or --where, not both", EXIT_SEMANTIC)
    if at is not None:
        if not 0 <= at < len(m.team):
            raise CliError(f"row {at} out of range 0..{len(m.team) - 1}",
                           EXIT_SEMANTIC)
        return at
    if where is not None:
        pairs = []
        for chunk in where.split(","):
            if "=" not in chunk:
                raise CliError(f"bad --where clause {chunk!r}", EXIT_PARSE)
            k, _, v = chunk.partition("=")
            pairs.append((k.strip(), v.strip()))
        for k, _ in pairs:
            if k not in m.variables:
                raise CliError(f"unknown variable {k!r}", EXIT_SEMANTIC)
        hits = [i for i in range(len(m.team))
                if all(m.team[i][k] == v for k, v in pairs)]
        if len(hits) != 1:
            raise CliError(f"--where matches {len(hits)} rows, need exactly 1",
                           EXIT_SEMANTIC)
        return hits[0]
    raise CliError("a team row is required (--at or --where)", EXIT_SEMANTIC)


def _fmt_set(xs) -> str:
    return "{" + ",".join(sorted(xs)) + "}"


def _minimal_sets(m: models.DependenceModel, y: str, row: Optional[int]):
    others = [x for x in m.variables if x != y]
    found: List[frozenset] = []
    for xs in F.subsets(others):
        if any(prev <= xs for prev in found):
            continue
        if row is None:
            ok = models.global_dep(m, xs, y)
        else:
            ok = models.local_dep(m, m.team[row], xs, y)
        if ok:
            found.append(xs)
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


def cmd_check(args) -> int:
    m = _load_model(args.model)
    phi = _parse_formula(args.formula)
    i = _resolve_row(m, args.at, args.where)
    try:
        print("true" if checker.eval_formula(m, i, phi) else "false")
    except models.ModelError as e:
        raise CliError(str(e), EXIT_SEMANTIC)
    return EXIT_OK


def cmd_deps(args) -> int:
    m = _load_model(args.model)
    row = None
    if args.local is not None:
        if not 0 <= args.local < len(m.team):
            raise CliError(f"row {args.local} out of range", EXIT_SEMANTIC)
        row = args.local
    scope = "local" if row is not None else "global"
    header = f"{scope} minimal determining sets"
    if row is not None:
        header += f" at row {row}"
    print(header)
    for y in m.variables:
        sets = _minimal_sets(m, y, row)
        rendered = " ".join(_fmt_set(s) for s in sets) if sets else "(none)"
        print(f"{y}: {rendered}")
    return EXIT_OK


def _write_witness(path: Optional[str], model) -> None:
    if path and model is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(relational.dumps_relational(model))


def cmd_sat(args) -> int:
    phi = _parse_formula(args.formula)
    try:
        r = decide.sat(F.reduce_learn(phi))
    except (decide.DecideError, F.FormulaError) as e:
        raise CliError(str(e), EXIT_SEMANTIC)
    _write_witness(args.witness, r.witness)
    print(r.status)
    return EXIT_OK


def cmd_valid(args) -> int:
    phi = _parse_formula(args.formula)
    try:
        r = decide.valid(F.reduce_learn(phi))
    except (decide.DecideError, F.FormulaError) as e:
        raise CliError(str(e), EXIT_SEMANTIC)
    _write_witness(args.witness, r.countermodel)
    print(r.status)
    return EXIT_OK


def cmd_prove(args) -> int:
    try:
        left, right = parse_sequent(args.sequent)
    except ParseError as e:
        raise CliError(f"cannot parse sequent: {e}", EXIT_PARSE)
    try:
        goal = prover.sequent(left, right)
    except prover.ProofError as e:
        raise CliError(str(e), EXIT_SEMANTIC)
    tree = prover.prove(goal)
    if tree is None:
        print("refused")
        return EXIT_OK
    if args.tree:
        with open(args.tree, "w", encoding="utf-8") as fh:
            fh.write(prover.serialize_tree(tree))
    print("proved")
    return EXIT_OK


def cmd_hilbert(args) -> int:
    try:
        with open(args.proof, "r", encoding="utf-8") as fh:
            proof = hilbert.parse_proof(fh.read())
    except (hilbert.HilbertError, ParseError) as e:
        raise CliError(str(e), EXIT_PARSE)
    result = hilbert.check_hilbert(proof)
    if result.ok:
        print("ok")
    else:
        print(f"line {result.line}: {result.reason}")
    return EXIT_OK


def cmd_translate(args) -> int:
    phi = _parse_formula(args.formula)
    variables = [v for v in args.vars.split(",") if v]
    try:
        psi = fol.to_fol(phi, variables)
    except (fol.FolError, F.FormulaError) as e:
        raise CliError(str(e), EXIT_SEMANTIC)
    if args.format == "tptp":
        role = "conjecture" if not args.negate else "axiom"
        print(fol.emit_tptp(psi, args.name, role=role, negate=args.negate))
    else:
        print(_fol_text(psi))
    return EXIT_OK


def _fol_text(f: fol.FolFormula) -> str:
    if isinstance(f, fol.FPred):
        return f"{f.name}({','.join(f.args)})" if f.args else f.name
    if isinstance(f, fol.FEq):
        return f"{f.left} = {f.right}"
    if isinstance(f, fol.FNot):
        return f"!({_fol_text(f.body)})"
    if isinstance(f, fol.FAnd):
        return f"({_fol_text(f.left)} & {_fol_text(f.right)})"
    if isinstance(f, fol.FForall):
        return f"forall {','.join(f.variables)}. ({_fol_text(f.body)})"
    raise CliError("unknown first-order node", EXIT_INTERNAL)


def cmd_represent(args) -> int:
    try:
        with open(args.relation, "r", encoding="utf-8") as fh:
            rels = represent.parse_relations(fh.read())
    except represent.RelationError as e:
        raise CliError(str(e), EXIT_PARSE)
    try:
        if args.mode == "global":
            model = represent.represent_global(rels[0])
        elif args.mode == "uniform":
            model = represent.represent_uniform(rels[0])
        else:
            model = represent.represent_family(rels)
    except represent.RelationError as e:
        raise CliError(str(e), EXIT_SEMANTIC)
    text = models.dumps_native(model)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_frame(args) -> int:
    m = _load_model(args.model)
    try:
        if args.property == "cartesian":
            ok, witness = models.check_frame(m, "cartesian")
        else:
            if not args.sets or ";" not in args.sets:
                raise CliError("church-rosser needs --sets '{..};{..}'",
                               EXIT_PARSE)
            xs_text, ys_text = args.sets.split(";", 1)
            ok, witness = models.check_frame(m, "church-rosser",
                                             _varset(xs_text), _varset(ys_text))
    except models.ModelError as e:
        raise CliError(str(e), EXIT_SEMANTIC)
    if ok:
        print("holds")
    elif args.property == "cartesian":
        print("fails: missing " + " ".join(witness))
    else:
        print("fails: rows " + " ".join(str(i) for i in witness))
    return EXIT_OK


def _load_relational(path: str) -> relational.RelationalModel:
    if not path.lower().endswith(".rm"):
        return relational.rel_of(_load_model(path))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return relational.parse_relational(fh.read())
    except relational.RelationalFormatError as e:
        raise CliError(str(e), EXIT_PARSE)
    except relational.RelationalError as e:
        raise CliError(str(e), EXIT_SEMANTIC)


def cmd_filtrate(args) -> int:
    r = _load_relational(args.model)
    phi = _parse_formula(args.formula)
    try:
        out = relational.filtrate(r, phi)
    except (relational.RelationalError, F.FormulaError) as e:
        raise CliError(str(e), EXIT_SEMANTIC)
    text = relational.dumps_relational(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_convert(args) -> int:
    r = _load_relational(args.input)
    try:
        if args.input.lower().endswith(".rm"):
            text = models.dumps_native(relational.dep_of(r))
        else:
            text = relational.dumps_relational(r)
    except relational.RelationalError as e:
        raise CliError(str(e), EXIT_SEMANTIC)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="lfd", description="Reasoning tools for functional dependence")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="evaluate a formula at a team row")
    p.add_argument("--model", required=True)
    p.add_argument("--at", type=int)
    p.add_argument("--where", help="var=value[,var=value...] matching one row")
    p.add_argument("formula")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("deps", help="minimal determining sets of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--local", type=int, help="team row for local dependence")
    p.set_defaults(func=cmd_deps)

    p = sub.add_parser("sat", help="satisfiability of a formula")
    p.add_argument("formula")
    p.add_argument("--witness", help="write the relational witness here")
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser("valid", help="validity of a formula")
    p.add_argument("formula")
    p.add_argument("--witness", help="write the countermodel here")
    p.set_defaults(func=cmd_valid)

    p = sub.add_parser("prove", help="prove a sequent 'G1; G2 => D'")
    p.add_argument("sequent")
    p.add_argument("--tree", help="write the proof tree here")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("hilbert", help="check a line-based proof file")
    p.add_argument("proof")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("translate", help="first-order translation")
    p.add_argument("formula")
    p.add_argument("--vars", required=True, help="ambient variables x,y,z")
    p.add_argument("--format", choices=("text", "tptp"), default="text")
    p.add_argument("--name", default="goal")
    p.add_argument("--negate", action="store_true",
                   help="negate for refutation-style provers")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("represent", help="build a model from a relation file")
    p.add_argument("--relation", required=True)
    p.add_argument("--mode", choices=("global", "uniform", "family"),
                   default="global")
    p.add_argument("--out")
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("frame", help="check a frame property")
    p.add_argument("--model", required=True)
    p.add_argument("--property", choices=("church-rosser", "cartesian"),
                   required=True)
    p.add_argument("--sets", help="'{x};{y}' for church-rosser")
    p.set_defaults(func=cmd_frame)

    p = sub.add_parser("filtrate", help="filtrate a model by a formula")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_filtrate)

    p = sub.add_parser("convert",
                       help="convert between dependence and relational files")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_convert)

    return top


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(str(e), file=sys.stderr)
        return e.code
    except (ParseError, F.ClosureCapError, OSError, UnicodeDecodeError) as e:
        # OSError and UnicodeDecodeError: any file that cannot be read or written
        print(str(e), file=sys.stderr)
        return EXIT_SEMANTIC if isinstance(e, F.ClosureCapError) else EXIT_PARSE
    except AssertionError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
