"""Command-line front door.

Every verb prints exactly one JSON document on stdout.  Exit codes:
0 success, 1 a residual check failed or stdout was closed early, 2 usage
or input errors.
Diagnostics go to stderr.  Output is deterministic for fixed flags and
seed: keys are sorted and term lists have a canonical order.
"""
from __future__ import annotations

import argparse
import cmath
import json
import os
import re
import sys
from functools import lru_cache, reduce

from . import serialize
from .automorphisms import (TAutElem, j_group_cocycle, taut_exp, taut_extend,
                            taut_log)
from .cyclic import duflo_series
from .derivations import (BraidGenerator, braid_embed, classify, divergence,
                          tder_extend, tn_membership)
from .graphs import enumerate_lie_graphs, enumerate_wheel_graphs
from .lie import bch_xy
from .solvers import (_AXIOM_SELECTORS, check_associator_axioms,
                      check_f_symmetries, solve_associator, solve_kv)
from .weights import angle, angle_gradient, example_weight_quadrature, \
    weight_montecarlo
from .words import Alphabet


class CheckFailed(Exception):
    """A residual that should vanish does not."""


class InputError(Exception):
    """Malformed or missing input document."""


def _emit(doc) -> None:
    # encoded before anything is written, so a NaN or inf leaves stdout empty
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")
    sys.stdout.flush()  # a closed pipe fails here, inside main


def _read_json(path: str) -> dict:
    """Every input document is a JSON object."""
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path) as fh:
                doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object, not {type(doc).__name__}")
    return doc


def _load_tder(path: str):
    doc = _read_json(path)
    if "components" not in doc:
        raise InputError("expected a derivation document with 'components'")
    return serialize.decode_tder(doc)


def _load_taut(path: str):
    doc = _read_json(path)
    for key in ("element", "f"):  # assoc-solve and kv-solve output
        if isinstance(doc.get(key), dict):
            doc = doc[key]
            break
    if "images" in doc:
        return serialize.decode_taut(doc)
    if "components" in doc:
        return taut_exp(serialize.decode_tder(doc))
    raise InputError("expected an automorphism ('images') or derivation document")


# -- verb handlers ----------------------------------------------------


def _cmd_bch(args):
    _emit(serialize.encode_series(bch_xy(args.degree)))


def _cmd_duflo(args):
    _emit(serialize.encode_series(duflo_series(args.degree)))


def _cmd_div(args):
    _emit(serialize.encode_series(divergence(_load_tder(args.input))))


def _cmd_classify(args):
    _emit(serialize.encode_flags(classify(_load_tder(args.input))))


def _cmd_extend(args):
    doc = _read_json(args.input)
    if "images" in doc:
        out = taut_extend(serialize.decode_taut(doc), args.pattern, args.arity)
        _emit(serialize.encode_taut(out))
    elif "components" in doc:
        out = tder_extend(serialize.decode_tder(doc), args.pattern, args.arity)
        _emit(serialize.encode_tder(out))
    else:
        raise InputError("expected an automorphism or derivation document")


def _cmd_braid(args):
    t = braid_embed(BraidGenerator(args.i, args.j, args.strands), args.degree)
    _emit(serialize.encode_tder(t))


def _cmd_exp(args):
    _emit(serialize.encode_taut(taut_exp(_load_tder(args.input))))


def _cmd_compose(args):
    if len(args.input) < 2:
        raise InputError("compose needs at least two --input documents")
    out = reduce(TAutElem.compose, [_load_taut(p) for p in args.input])
    _emit(serialize.encode_taut(out))


def _cmd_apply(args):
    target = serialize.decode_series(_read_json(args.target), args.kind, args.arity)
    doc = _read_json(args.input)
    op = (serialize.decode_taut(doc) if "images" in doc
          else serialize.decode_tder(doc))
    _emit(serialize.encode_series(op.apply(target)))


def _cmd_jcocycle(args):
    _emit(serialize.encode_series(j_group_cocycle(_load_taut(args.input))))


def _cmd_kv_solve(args):
    f, report = solve_kv(args.degree, args.gauge)
    _emit({"f": serialize.encode_taut(f),
           "log": serialize.encode_tder(taut_log(f)),
           "report": serialize.encode_report(report)})
    if not (report.all_zero() and report.notes.get("defining_residual_zero")):
        raise CheckFailed("transport equation residual is nonzero")


def _cmd_assoc_solve(args):
    sign = 1 if args.hexagon_sign in ("+1", "1", "+") else -1
    cand, report = solve_associator(args.degree, args.parity, sign)
    _emit({"element": serialize.encode_taut(cand.element),
           "log": serialize.encode_tder(cand.log),
           "tn_coordinates": serialize.encode_value(
               {d: [[repr(lbl), serialize.encode_fraction(c)] for lbl, c in v]
                for d, v in cand.tn_coordinates.items()}),
           "report": serialize.encode_report(report)})
    if not report.all_zero():
        raise CheckFailed("associator residual is nonzero")


def _cmd_check(args):
    if args.input and args.phi:
        raise InputError("check takes --input or --phi, not both")
    if args.what == "symmetries":
        if not args.input:
            raise InputError("check symmetries needs --input F")
        f = _load_taut(args.input)
        report = check_f_symmetries(f, args.degree)
        _emit(serialize.encode_report(report))
        if not report.all_zero():
            raise CheckFailed("a symmetry identity fails")
        return
    if args.phi == "trivial":
        degree = 4 if args.degree is None else args.degree
        element = TAutElem.identity(Alphabet(3), degree + 1)
    elif args.input:
        element = _load_taut(args.input)
    else:
        raise InputError("check needs --input or --phi trivial")
    report = check_associator_axioms(element, args.what, args.degree)
    _emit(serialize.encode_report(report))
    if not report.all_zero():
        raise CheckFailed(f"axiom residual nonzero: {args.what}")


def _cmd_graphs(args):
    if args.type == "lie":
        rows = [{"graph": serialize.encode_graph(g.graph),
                 "symbol": serialize.encode_series(symbol),
                 "multiplicity": mult,
                 "zero_symbol": g.zero_symbol}
                for g, symbol, mult in enumerate_lie_graphs(args.count)]
    else:
        rows = [{"graph": serialize.encode_graph(g.graph),
                 "symbol": serialize.encode_series(symbol),
                 "multiplicity": mult,
                 "zero_symbol": g.zero_symbol,
                 "cycle_length": g.cycle_length}
                for g, symbol, mult in enumerate_wheel_graphs(args.count)]
    _emit(rows)


def _cmd_weight(args):
    if args.mode == "example":
        est = example_weight_quadrature(args.tol)
    else:
        if not args.input:
            raise InputError("weight mc needs --input GRAPH")
        graph = serialize.decode_graph(_read_json(args.input))
        est = weight_montecarlo(graph, samples=args.samples, seed=args.seed,
                                streams=args.streams)
    _emit(serialize.encode_estimate(est))


def _parse_point(text: str) -> complex:
    try:
        point = complex(text)
    except ValueError as exc:
        raise InputError(f"cannot parse point {text!r}") from exc
    if not cmath.isfinite(point):
        raise InputError(f"point {text!r} is not finite")
    return point


def _cmd_angle(args):
    p = _parse_point(args.p)
    q = _parse_point(args.q)
    doc = {"angle": angle(p, q, args.kind)}
    if args.gradient:
        doc["gradient"] = list(angle_gradient(p, q, args.kind))
    _emit(doc)


def _cmd_membership(args):
    u = _load_tder(args.input)
    coords = tn_membership(u, args.homogeneous_degree)
    if coords is None:
        _emit({"member": False})
        raise CheckFailed("derivation outside the braid bracket span")
    _emit({"member": True,
           "coordinates": [[repr(lbl), serialize.encode_fraction(c)]
                           for lbl, c in coords]})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvlie",
        description="Exact free Lie algebra calculus: transport solvers, "
                    "graph symbols, numerical weights.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, handler, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(handler=handler)
        return p

    p = add("bch", _cmd_bch, help="Campbell-Hausdorff series log(e^x e^y)")
    p.add_argument("--degree", type=int, default=6)

    p = add("duflo", _cmd_duflo, help="Duflo density series duf(x,y)")
    p.add_argument("--degree", type=int, default=6)

    p = add("div", _cmd_div, help="divergence cocycle of a derivation")
    p.add_argument("--input", required=True)

    p = add("classify", _cmd_classify, help="special/krv flags")
    p.add_argument("--input", required=True)

    p = add("extend", _cmd_extend, help="simplicial extension by a comma pattern")
    p.add_argument("--input", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--arity", type=int, default=None)

    p = add("braid", _cmd_braid, help="infinitesimal braid generator t^{ij}")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--strands", type=int, default=3)
    p.add_argument("--degree", type=int, default=4)

    p = add("exp", _cmd_exp, help="exponential of a tangential derivation")
    p.add_argument("--input", required=True)

    p = add("compose", _cmd_compose, help="compose automorphisms left to right")
    p.add_argument("--input", action="append", required=True)

    p = add("apply", _cmd_apply, help="apply a derivation or automorphism to a series")
    p.add_argument("--input", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--kind", choices=["lie", "assoc", "cyclic"], default="lie")
    p.add_argument("--arity", type=int, default=None)

    p = add("jcocycle", _cmd_jcocycle, help="group divergence cocycle J")
    p.add_argument("--input", required=True)

    p = add("kv-solve", _cmd_kv_solve, help="solve the two transport equations")
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--gauge", choices=["symmetric", "minimal-norm"],
                   default="symmetric")

    p = add("assoc-solve", _cmd_assoc_solve, help="solve the associator axioms")
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--parity", choices=["even", "unconstrained"], default="even")
    p.add_argument("--hexagon-sign", choices=["+1", "-1", "1", "+", "-"],
                   default="+1")

    p = add("check", _cmd_check, help="verify axioms or symmetry identities")
    p.add_argument("what", choices=[*_AXIOM_SELECTORS, "symmetries"])
    p.add_argument("--input", default=None)
    p.add_argument("--phi", choices=["trivial"], default=None)
    p.add_argument("--degree", type=int, default=None)

    p = add("graphs", _cmd_graphs, help="enumerate admissible graphs with symbols")
    p.add_argument("--type", choices=["lie", "wheel"], required=True)
    p.add_argument("--count", type=int, required=True,
                   help="number of aerial vertices")

    p = add("weight", _cmd_weight, help="graph weight by quadrature or sampling")
    p.add_argument("mode", choices=["example", "mc"])
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--input", default=None)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--streams", type=int, default=1)

    p = add("angle", _cmd_angle, help="hyperbolic or euclidean angle map")
    # argparse reads a value as an option when it starts with "-" and is not
    # a plain negative number; this verb has no option of that shape, so a
    # point such as -1+0.5j after --p or --q is taken as the value
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--kind", choices=["hyperbolic", "euclidean"],
                   default="hyperbolic")
    p.add_argument("--gradient", action="store_true")

    p = add("membership", _cmd_membership,
            help="coordinates on the braid bracket basis")
    p.add_argument("--input", required=True)
    p.add_argument("--homogeneous-degree", type=int, default=None)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.handler(args)
    except BrokenPipeError:
        # stdout was closed: send what is buffered to devnull, not to a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
