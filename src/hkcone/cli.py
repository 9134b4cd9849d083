"""Command-line surface: JSON in, JSON/SVG out.

Exit codes: 0 success, 1 I/O errors, files that are not UTF-8 JSON or that
json cannot read (named in the message) and running out of memory, 2
precondition violations (including a factorization whose status is not
"ok"), 3 internal errors.
An argv that starts with a subcommand's exact name is parsed once, by that
subcommand's parser; any other argv goes through the full parser, and both
routes print the same usage, help and errors.  Before either parses, a
word of "-" or "-." and a digit after an option that takes a value (full
name, before any "--") is joined to it, "--class -4,0,1" as
"--class=-4,0,1" and "--x -.5,0" as "--x=-.5,0": argparse would read it
as an option.
Each ``_cmd_*`` handler maps the parsed arguments, and the lattice and
table that `main` loaded for it, to the document it prints: a dict for
JSON, the SVG text for render-cone.  `main` alone loads --lattice, then
--table (importing `mbm` only for the subcommands that take one), writes
the document and maps every outcome to its exit code; a factor-path report
whose status is not "ok" is written first, and then its status goes to
stderr and the call exits 2.  JSON output is the bytes of
``json.dumps(obj, indent=2)`` plus a newline, written by `_dumps` without
json's pure-Python encoder.
Diagnostics go to stderr; data goes to the declared output.  An --out
file is rewritten in place and then truncated to the new length, not
truncated first: on a delayed-allocation filesystem (ext4), closing a
file that was truncated to zero forces its writeback.  A write that
fails leaves the file empty, but the rewrite is not crash-safe: after a
crash the file can hold a new prefix and the old tail.
A handler imports what it runs: a call loads only its subcommand's modules.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import stat
import sys
from json.encoder import encode_basestring_ascii as _quote

from .errors import DocumentError, PreconditionError
from .lattice import load_lattice
from .rational import (frac_str, load_json, parse_array, parse_field, parse_frac, parse_int,
                       parse_matrix, parse_vector, vector_strs)


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    data = memoryview(text.encode("utf-8"))
    # no O_TRUNC: cut the stale tail after writing, where a file can be cut
    fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            done = 0
            while done < len(data):
                done += os.write(fd, data[done:])
        except BaseException:
            if regular:  # no new prefix in front of an old tail
                os.ftruncate(fd, 0)
            raise
        if regular:
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _dumps(obj, indent="\n") -> str:
    """``json.dumps(obj, indent=2)`` byte for byte, dict keys being str: json's
    dispatch order, its C string quoting, and json.dumps for the rarer scalars."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or obj is True or obj is False:
        return json.dumps(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return json.dumps(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is int for v in obj):
            items = map(int.__repr__, obj)
        elif all(type(v) is str for v in obj):
            items = map(_quote, obj)
        else:
            items = [_dumps(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_quote(k) + ": " + _dumps(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _option_vector(lattice, option: str, text: str):
    """Inline coordinates "a,b,c" of an option; errors name the option."""
    try:
        return lattice.check_length(parse_vector(text))
    except PreconditionError as exc:
        raise PreconditionError(f"{option}: {exc}") from exc


def _file_points(lattice, path: str, *keys) -> tuple:
    """The points under keys of the JSON object in the file at path."""
    doc = load_json(path)
    return tuple(parse_field(doc, key, lambda v: lattice.check_length(parse_array(v)), path)
                 for key in keys)


def _load_point(lattice, option: str, spec_text: str):
    """A point is either inline coordinates "a,b,c" or a JSON file path."""
    if "," in spec_text:
        return _option_vector(lattice, option, spec_text)
    return _file_points(lattice, spec_text, "point")[0]


def _named_classes(lattice, path: str | None) -> dict:
    names = {name: tuple(int(i == j) for j in range(lattice.rank))
             for i, name in enumerate(lattice.basis_names)}
    if path is not None:
        doc = load_json(path)
        if not isinstance(doc, dict):
            raise PreconditionError(f"{path}: expected an object of named classes")
        for key in doc:
            names[key] = parse_field(
                doc, key, lambda v: lattice.check_length(parse_array(v, parse_int)), path)
    return names


def _cmd_classify(args, lattice, table) -> dict:
    from . import mbm
    sig = mbm.classify(lattice, table, _option_vector(lattice, "--class", getattr(args, "class")))
    if sig is None:
        return {"orbit": None}
    return {
        "orbit": sig.name,
        **sig.report_fields(),
    }


def _cmd_dual_solve(args, lattice) -> dict:
    from . import mbm
    names = _named_classes(lattice, args.classes)
    constraints = []
    for pair in args.pair:
        key, _, value = pair.partition("=")
        key = key.strip()
        if not value:
            raise PreconditionError(f"constraint {pair!r} is not of the form NAME=VALUE")
        if key in names:
            cls = names[key]
        elif "," in key:
            cls = tuple(map(parse_int, _option_vector(lattice, "--pair", key)))
        else:
            raise PreconditionError(f"unknown class name {key!r}")
        constraints.append((cls, parse_frac(value.strip())))
    x = mbm.dual_solve(lattice, constraints)
    primitive, scale = mbm.primitive_rescale(x)
    return {
        "vector": vector_strs(x),
        "primitive": list(primitive),
        "scale": frac_str(scale),
    }


def _cmd_enumerate(args, lattice, table) -> dict:
    from . import cone
    base = _option_vector(lattice, "--base", args.base)
    walls = cone.enumerate_wall_classes(lattice, table, base, parse_frac(args.bound))
    return {
        "walls": [
            {
                "class": list(x),
                **sig.report_fields(),
                "orbit": sig.name,
            }
            for x, sig in walls
        ]
    }


def _cmd_factor_path(args, lattice, table) -> dict:
    from . import cone
    a = _load_point(lattice, "--from", getattr(args, "from"))
    b = _load_point(lattice, "--to", args.to)
    result = cone.factor_path(lattice, table, a, b, parse_frac(args.bound))
    return cone.factorization_report(result)


def _cmd_render(args, lattice, table) -> str:
    from . import render
    base = _option_vector(lattice, "--base", args.base)
    path = None if args.path is None else _file_points(lattice, args.path, "a", "b")
    markers = []
    for mark in args.mark or ():
        coords_text, _, label = mark.partition(":")
        markers.append((_option_vector(lattice, "--mark", coords_text), label or coords_text))
    cusps = [_option_vector(lattice, "--cusp", c) for c in args.cusp or ()]
    scene = render.build_scene(lattice, table, base, parse_frac(args.bound),
                               markers=markers, cusps=cusps, path=path)
    return render.render_svg(scene)


def _cmd_mukai_flop(args) -> dict:
    from . import mukai
    u = parse_vector(args.u)
    phi = parse_vector(args.phi)
    if args.k is not None and args.k < 1:
        raise PreconditionError(f"--k must be at least 1 (T*P^k for k >= 1), got {args.k}")
    if args.k is not None and len(u) != args.k + 1:
        raise PreconditionError(f"u must have k+1 = {args.k + 1} entries")
    point = mukai.make_point(u, phi)
    image = mukai.flop(point)
    return {
        "phi": vector_strs(image.phi),
        "Astar": [vector_strs(row) for row in image.b],
    }


def _cmd_symp_rank(args) -> dict:
    def matrix(path, key):
        return parse_field(load_json(path), key, parse_matrix, path)

    from . import symplectic
    space = symplectic.symplectic_space(matrix(args.omega, "omega"))
    w = symplectic.subspace(matrix(args.basis, "basis"))
    return {
        "rank": symplectic.restriction_rank(space, w),
        "isotropic": symplectic.is_isotropic(space, w),
        "coisotropic": symplectic.is_coisotropic(space, w),
    }


_IRRATIONAL = {"sqrt2": math.sqrt(2), "sqrt3": math.sqrt(3), "sqrt5": math.sqrt(5)}


def _tokens(text: str) -> list[str]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise PreconditionError(f"torus points have two coordinates: {text!r}")
    return parts


def _torus_point(text: str, real: bool) -> torus.TorusPoint:
    from . import torus
    parts = _tokens(text)
    if not real:
        return torus.exact_point(parse_frac(parts[0]), parse_frac(parts[1]))
    return torus.real_point(*(_IRRATIONAL[p] if p in _IRRATIONAL else parse_frac(p) for p in parts))


def _cmd_sigma_orbit(args) -> dict:
    from . import torus
    if args.grid is not None and not args.real:
        raise PreconditionError("--grid sets the covering-radius grid of --real; exact mode has none")
    marks = (args.e0, args.e1, args.e2)
    fiber = torus.MarkedFiber(*(_torus_point(t, args.real) for t in marks))
    x = _torus_point(args.x, args.real)
    gens = torus.generators(fiber)
    if args.real:
        grid = 32 if args.grid is None else args.grid
        size, radius = torus.orbit_density(fiber, x, args.depth, grid)
        # a generator coordinate t_j - t_i is irrational iff the tokens differ and one
        # is a root: 1, sqrt2, sqrt3 and sqrt5 are linearly independent over Q
        tokens = [_tokens(t) for t in marks]
        finite = False if any(ti != tj and (ti in _IRRATIONAL or tj in _IRRATIONAL)
                              for mi, mj in itertools.combinations(tokens, 2)
                              for ti, tj in zip(mi, mj)) else None
    else:
        size, finite = torus.orbit_size(fiber, x, args.depth), True
    doc = {
        "size": size,
        "finite": finite,
        "generators": [
            [repr(float(g.x)), repr(float(g.y))] if args.real else [frac_str(g.x), frac_str(g.y)]
            for g in gens
        ],
    }
    if args.real:
        doc["covering_radius"] = radius
    return doc


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing never changes it.  Its
    ``commands`` map each subcommand's name to that subcommand's parser,
    and ``valued`` holds every name of an option that takes a value.
    Each holds its handler by name, and ``main`` looks the name up when it
    calls it, so a handler replaced after the first build still runs."""
    parser = argparse.ArgumentParser(
        prog="hkcone",
        description="Exact wall-and-chamber computations on a Picard lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler.__name__)
        p.add_argument("--out", help="output file (default: stdout)")
        return p

    p = add("classify", _cmd_classify, help="match a class against an orbit table")
    p.add_argument("--lattice", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--class", required=True, help='integer coordinates "a,b,c"')

    p = add("dual-solve", _cmd_dual_solve, help="solve for a class from intersection numbers")
    p.add_argument("--lattice", required=True)
    p.add_argument("--classes", help="JSON file of named classes")
    p.add_argument("--pair", action="append", required=True,
                   help='constraint "NAME=value"; repeatable')

    p = add("enumerate-walls", _cmd_enumerate, help="list wall classes near a base point")
    p.add_argument("--lattice", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--bound", required=True)

    p = add("factor-path", _cmd_factor_path, help="factor a segment into wall crossings")
    p.add_argument("--lattice", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--from", required=True, help='point file or inline "a,b,c"')
    p.add_argument("--to", required=True)
    p.add_argument("--bound", required=True)

    p = add("render-cone", _cmd_render, help="render the wall arrangement as SVG")
    p.add_argument("--lattice", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--bound", required=True)
    p.add_argument("--path", help="factor-path report JSON to overlay")
    p.add_argument("--mark", action="append", help='marker "a,b,c:LABEL"; repeatable')
    p.add_argument("--cusp", action="append", help='boundary class "a,b,c"; repeatable')

    p = add("mukai-flop", _cmd_mukai_flop, help="flop a point of the local model")
    p.add_argument("--k", type=int)
    p.add_argument("--u", required=True)
    p.add_argument("--phi", required=True)

    p = add("symp-rank", _cmd_symp_rank, help="rank of a symplectic form on a subspace")
    p.add_argument("--omega", required=True)
    p.add_argument("--basis", required=True)

    p = add("sigma-orbit", _cmd_sigma_orbit, help="orbit of the fiber correspondence")
    p.add_argument("--e0", required=True)
    p.add_argument("--e1", required=True)
    p.add_argument("--e2", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--depth", type=int, default=10,
                   help="orbit depth of --real; exact mode only checks it is at least 1")
    p.add_argument("--real", action="store_true")
    p.add_argument("--grid", type=int)  # real mode only; 32 there when not given

    parser.commands = sub.choices
    parser.valued = {s for p in sub.choices.values() for a in p._actions if a.nargs != 0
                     for s in a.option_strings}
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    # "--opt -4,0,1" is read as "--opt=-4,0,1" where --opt takes a value, up to a "--":
    # argparse takes "-" and a digit, or "-." and a digit, for an option unless the token is a
    # plain number; a bare "-" is left alone
    end = argv.index("--") if "--" in argv else len(argv)
    for i in range(end - 1, 0, -1):  # from the right, so a join moves nothing still to read
        if argv[i][:1] == "-" and argv[i][1:].removeprefix(".")[:1].isdigit() \
                and argv[i - 1] in parser.valued:
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    if argv and argv[0] in parser.commands:
        # what the full parser does with it, without scanning argv twice
        args, extra = parser.commands[argv[0]].parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    else:
        args = parser.parse_args(argv)
    try:
        docs = [load_lattice(args.lattice)] if "lattice" in args else []
        if "table" in args:
            from . import mbm
            docs.append(mbm.load_table(args.table))
        doc = globals()[args.handler](args, *docs)
        _emit(doc if isinstance(doc, str) else _dumps(doc) + "\n", args.out)
        # a factorization whose status is not "ok": its report is written, then exit 2
        if not isinstance(doc, str) and doc.get("status", "ok") != "ok":
            print(f"factorization status: {doc['status']}", file=sys.stderr)
            return 2
        return 0
    except (PreconditionError, OSError, DocumentError) as exc:
        print(f"hkcone: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, PreconditionError) else 1
    except MemoryError:  # a resource fault, like an I/O error
        print("hkcone: out of memory", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug, never a fault in the input
        print(f"hkcone: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
