"""Command-line front end.

Exit codes: 0 pass, 1 law/check failure, 2 input error, 3 internal fault
(two routes that must agree disagreed; one JSON line on stderr names them).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io
from .families import (
    CapExceeded,
    CarrierMismatch,
    InvariantViolation,
    NotSurjective,
    ValidationError,
)
from .functors import Selector, handle

SELECTOR_FLAGS = {"F0": Selector.F0, "F1": Selector.F1, "F": Selector.F_ALL}


def _print(doc, fmt: str) -> None:
    if fmt == "json":
        print(io.dump_json(doc))
        return
    _print_table(doc)


def _print_table(doc, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(doc, dict):
        for k, v in doc.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _print_table(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(doc, list):
        for v in doc:
            if isinstance(v, (dict, list)):
                _print_table(v, indent)
                print(f"{pad}-")
            else:
                print(f"{pad}{v}")


def _load(path: str):
    """The JSON document at path; the error of a malformed one names it."""
    try:
        return io.load_json(path)
    except ValidationError as exc:
        raise ValidationError([f"{path}: {v}" for v in exc.violations])


def cmd_validate(args) -> int:
    # one line per problem, led by the path; a bad file stops no other file
    status = 0
    for path in args.files:
        try:
            conv = io.convergence_from_doc(io.load_json(path))
        except (ValidationError, CapExceeded) as exc:
            problems = getattr(exc, "violations", [exc])
        except OSError as exc:  # its own text names the path again
            problems = [exc.strerror]
        else:
            print(f"{path}: ok ({conv.carrier.size} points)")
            continue
        status = 2
        for problem in problems:
            print(f"{path}: {problem}")
    return status


def cmd_reflect(args) -> int:
    conv = io.convergence_from_doc(_load(args.input))
    out = handle(args.functor)(conv)
    _print(io.convergence_to_doc(out), args.format)
    return 0


def cmd_classify_map(args) -> int:
    from .maps import MapContext, classification_witnesses, classify

    source = io.convergence_from_doc(_load(args.source))
    target = io.convergence_from_doc(_load(args.target))
    f = io.map_from_doc(_load(args.map), source.carrier, target.carrier)
    ctx = MapContext(f, source, target)
    if args.witness:
        report, witnesses = classification_witnesses(ctx)
        doc = {"classification": report.as_dict(), "witnesses": witnesses}
    else:
        doc = {"classification": classify(ctx).as_dict()}
    _print(doc, args.format)
    return 0


def cmd_check_compact(args) -> int:
    from .compactness import CompactnessQuery, is_compact_at

    conv = io.convergence_from_doc(_load(args.space))
    fam = io.family_from_doc(_load(args.family), conv.carrier)
    at = io.family_from_doc(_load(args.at), conv.carrier)
    sel = SELECTOR_FLAGS[args.klass]
    ok = is_compact_at(CompactnessQuery(conv, fam, at, sel))
    _print({"compact": ok, "class": args.klass}, args.format)
    return 0


def cmd_enumerate(args) -> int:
    from .enumerate import EnumerationSpec, enumerate_spaces

    spec = EnumerationSpec(args.size, args.klass, args.seed, args.count)
    stream = enumerate_spaces(spec)
    if args.count_only:
        _print({"class": args.klass, "size": args.size, "count": len(stream)},
               args.format)
        return 0
    _print([io.convergence_to_doc(c) for c in stream], args.format)
    return 0


def cmd_search(args) -> int:
    from .enumerate import SearchTask, search

    res = search(SearchTask(args.predicate, args.limit))
    doc = {"predicate": res.predicate, "examined": res.examined,
           "witness": res.witness, "exhausted": res.exhausted}
    if args.emit and res.witness is not None:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(io.dump_json(res.witness))
    _print(doc, args.format)
    return 0


def cmd_laws(args) -> int:
    from .laws import run_laws

    report = run_laws(max_size=args.size)
    _print(report.as_dict(), args.format)
    return 0 if report.ok else 1


def cmd_tables(args) -> int:
    from .laws import emit_tables

    doc = emit_tables(max_size=args.size)
    _print(doc, args.format)
    return 0 if doc["all_sweep_suites_ok"] else 1


def cmd_exemplar(args) -> int:
    if not args.check:
        print("nothing to do; pass --check", file=sys.stderr)
        return 2
    if args.which == "fan":
        from .symbolic.fan import fan_check
        report = fan_check()
    else:
        from .symbolic.prime import prime_check
        report = prime_check()
    _print(report.as_dict(), args.format)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="convlab",
        description="finite convergence spaces: reflectors, map "
                    "classification, compactness, exhaustive verification")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    sp = add_parser("validate", help="validate convergence JSON files")
    sp.add_argument("files", nargs="+")
    sp.set_defaults(fn=cmd_validate)

    sp = add_parser("reflect", help="apply a reflector or coreflector")
    sp.add_argument("--functor", required=True,
                    choices=("T", "S0", "S1", "S", "Seq", "I1", "K"))
    sp.add_argument("--input", required=True)
    sp.set_defaults(fn=cmd_reflect)

    sp = add_parser("classify-map", help="classify a surjection")
    sp.add_argument("--map", required=True)
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--witness", action="store_true")
    sp.set_defaults(fn=cmd_classify_map)

    sp = add_parser("check-compact", help="family compactness query")
    sp.add_argument("--space", required=True)
    sp.add_argument("--family", required=True)
    sp.add_argument("--at", required=True)
    sp.add_argument("--class", dest="klass", default="F",
                    choices=sorted(SELECTOR_FLAGS))
    sp.set_defaults(fn=cmd_check_compact)

    sp = add_parser("enumerate", help="enumerate spaces of a class")
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--class", dest="klass", required=True,
                    choices=("convergence", "pseudotopology", "pretopology",
                             "topology"))
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--count", type=int, default=None)
    sp.set_defaults(fn=cmd_enumerate)

    sp = add_parser("search", help="counterexample search")
    sp.add_argument("--predicate", required=True)
    sp.add_argument("--emit", default=None)
    sp.add_argument("--limit", type=int, default=None)
    sp.set_defaults(fn=cmd_search)

    sp = add_parser("laws", help="run every theorem suite")
    sp.add_argument("--size", type=int, default=3, choices=(2, 3))
    sp.set_defaults(fn=cmd_laws)

    sp = add_parser("tables", help="emit the machine-checked tables")
    sp.add_argument("--size", type=int, default=3, choices=(2, 3))
    sp.set_defaults(fn=cmd_tables)

    sp = add_parser("exemplar", help="symbolic infinite exemplars")
    sp.add_argument("which", choices=("fan", "prime"))
    sp.add_argument("--check", action="store_true")
    sp.set_defaults(fn=cmd_exemplar)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError, CarrierMismatch, NotSurjective,
            CapExceeded) as exc:
        if isinstance(exc, ValidationError):
            for v in exc.violations:
                print(f"error: {v}", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(json.dumps({"error": "internal", "message": str(exc)}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
