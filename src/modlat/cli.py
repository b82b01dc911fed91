"""Command line front end.

Subcommands chain through JSON files: `enumerate` writes row sets,
which no command reads back; `rebuild` reads a poset and lines and
writes the lattice of their closed order ideals; `analyze`, `bol`,
`localize`, `rstar` and `witness-triangle` consume lattice files; and
`verify` runs the verdict suite over the stock corpus.  Exit status is
0 for success, 1 for a verification failure, 2 for usage or input
errors.  Every file is read and written as UTF-8, whatever the locale,
and each `--out` file holds the bytes of `json.dumps(data, indent=2)`,
so a non-ASCII character is written as an escape (see `_write_json`).

Every command runs in a fresh process, so what the module imports is paid
on every run.  It imports only `lattice` at load, and each `cmd_*`
imports the modules it runs at the top of its own body:
`subgroup-lattice` loads `algebra` alone, `enumerate` loads `wildcard`,
and `bol` loads `bol` and `pls`.  The error bases that `main` catches
live in `lattice` for the same reason.
"""

from __future__ import annotations

import argparse
import json
import sys

from .lattice import (
    BOLS_CAP,
    CapExceeded,
    LatticeError,
    NotAClosureSystem,
    PlsError,
    WildcardError,
    bits,
    ji_elements,
    lattice_from_json,
    lattice_to_dot,
    lattice_to_json,
)


def _load(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:  # the decoder recurses once per nesting level
            raise ValueError(f"{path}: JSON nested too deeply") from None


# the types that `json`'s C encoder writes as one token each
_SCALARS = {str, int, float, bool, type(None)}


def _write_json(path, data):
    """Write `data` to `path` as the bytes of `json.dumps(data, indent=2)`
    and a newline, in UTF-8.

    `indent` sends `json.dumps` down its pure-Python encoder, which does
    Python work per scalar; this writer does it per container.  A list of
    scalars is one call to the C encoder, with a newline and the indent
    as its item separator.  A list of int lists of one length, such as a
    lattice's covers, is one `%d` template.  A dict, and any other list,
    recurses.  Values are dict, list, tuple, str, int, float, bool and
    None, and keys are str; anything else raises TypeError.
    """
    out = []
    put = out.append
    encoders = {}

    def encoder(pad):
        if pad not in encoders:
            encoders[pad] = json.JSONEncoder(separators=(",\n" + pad, ": ")).encode
        return encoders[pad]

    def walk(x, pad):
        inner = pad + "  "
        if isinstance(x, dict):
            if not x:
                return put("{}")
            key = encoder(inner)
            sep = "{\n" + inner
            for k, v in x.items():
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                put(sep + key(k) + ": ")
                sep = ",\n" + inner
                walk(v, inner)
            return put("\n" + pad + "}")
        if not isinstance(x, (list, tuple)):
            return put(encoder(pad)(x))
        if not x:
            return put("[]")
        types = set(map(type, x))
        if types <= _SCALARS:
            return put("[\n" + inner + encoder(inner)(x)[1:-1] + "\n" + pad + "]")
        lengths = set(map(len, x)) if types <= {list, tuple} else ()
        flat = [v for xs in x for v in xs] if len(lengths) == 1 else ()
        if flat and set(map(type, flat)) == {int}:  # not bool: %d prints True as 1
            deep = inner + "  "
            one = "[\n" + deep + (",\n" + deep).join(["%d"] * len(x[0])) + "\n" + inner + "]"
            return put("[\n" + inner + (",\n" + inner).join([one] * len(x)) % tuple(flat)
                       + "\n" + pad + "]")
        sep = "[\n" + inner
        for v in x:
            put(sep)
            sep = ",\n" + inner
            walk(v, inner)
        put("\n" + pad + "]")

    walk(data, "")
    put("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(out))


def _resolve_elem(L, token):
    if L.names and token in L.names:
        return L.names.index(token)
    try:
        x = int(token)
    except ValueError:
        raise ValueError(f"no element named {token!r}") from None
    if not 0 <= x < L.n:
        raise ValueError(f"element index {x} out of range 0..{L.n - 1}")
    return x


def _line_names(L, m):
    return "{" + ", ".join(L.name(p) for p in bits(m)) + "}"


def _params_table(rep):
    lines = [
        f"j (join-irreducibles) {rep.j}",
        f"delta (height)        {rep.delta}",
        f"s (components)        {rep.s}",
        f"i (line intervals)    {rep.i}",
        f"o (max n-1)           {rep.o}",
        f"mu (sum of n)         {rep.mu}",
        f"r* (canonical base)   {rep.rstar_canonical}",
        f"acyclic               {'yes' if rep.acyclic else 'no'}",
        "locally acyclic       "
        + ("yes" if rep.locally_acyclic else "no"),
    ]
    lines.extend(str(v) for v in rep.verdicts)
    return "\n".join(lines)


# -- subcommands --------------------------------------------------------


def cmd_enumerate(args):
    from .wildcard import (
        enumerate_ideals,
        lines_from_json,
        poset_from_json,
        rowset_bitstrings,
        rowset_to_json,
        rowset_to_text,
        total_count,
    )

    poset = poset_from_json(_load(args.poset))
    lines = lines_from_json(_load(args.lines), poset) if args.lines else []
    rows = enumerate_ideals(poset, lines)
    if args.stats:
        print(json.dumps(rows.stats._asdict()), file=sys.stderr)
    if args.out:
        _write_json(args.out, rowset_to_json(rows))
    if args.count:
        print(total_count(rows))
    elif args.expand:
        for bits in sorted(rowset_bitstrings(rows)):
            print("".join(str(b) for b in bits))
    else:
        print(rowset_to_text(rows))
    return 0


def cmd_rebuild(args):
    from .bol import line_intervals
    from .rebuild import ideals_lattice, roundtrip_check
    from .wildcard import lines_from_json, poset_from_json

    poset = poset_from_json(_load(args.poset))
    lines = lines_from_json(_load(args.lines), poset) if args.lines else []
    L = ideals_lattice(poset, lines)
    ok = roundtrip_check(L)
    if args.out:
        _write_json(args.out, lattice_to_json(L))
    if args.dot:
        print(lattice_to_dot(L))
    else:
        print(
            f"{L.n} elements, {len(ji_elements(L))} join-irreducibles, "
            f"{len(line_intervals(L))} line intervals, "
            f"roundtrip {'ok' if ok else 'FAILED'}"
        )
    return 0 if ok else 1


def cmd_analyze(args):
    from .analysis import params

    L = lattice_from_json(_load(args.lattice))
    rep = params(L)
    print(_params_table(rep))
    if args.out:
        report = {**rep._asdict(), "verdicts": [v._asdict() for v in rep.verdicts]}
        _write_json(args.out, report)
    return 0 if rep.ok else 1


def cmd_verify(args):
    from .analysis import verdict_suite
    from .corpus import standard_corpus

    results = [(name, verdict_suite(L)) for name, L in standard_corpus()]
    failures = 0
    for name, verdicts in results:
        bad = [v for v in verdicts if not v.passed]
        failures += len(bad)
        print(f"{'FAIL' if bad else 'ok':4s} {name} ({len(verdicts)} checks)")
        for v in bad:
            print(f"     {v}")
    print(f"{len(results)} lattices, {failures} failing checks")
    return 1 if failures else 0


def cmd_bol(args):
    from .bol import all_bols, bol_to_json, canonical_bol, line_intervals, witness_masks
    from .pls import mask_components

    if args.cap < 0:
        raise ValueError(f"--cap must be at least 0, not {args.cap}")
    L = lattice_from_json(_load(args.lattice))
    if args.all_bols:
        count, rs, note = 0, set(), ""
        try:  # counted as they come: memory does not grow with the cap
            for count, m in enumerate(all_bols(witness_masks(L, line_intervals(L)), args.cap), 1):
                rs.add(mask_components(m, L.ji_mask)[1])
        except CapExceeded:
            note = " (truncated)"
        print(f"{count} bases{note}; r* values {sorted(rs)}")
        return 0
    ivs, masks = canonical_bol(L)
    if args.out:
        _write_json(args.out, bol_to_json(L, ivs, masks))
    for m, iv in zip(masks, ivs):
        print(f"{_line_names(L, m)} top {L.name(iv.top)}")
    print(f"{L.ji_mask.bit_count()} points, {len(masks)} lines, "
          f"{len(mask_components(masks, L.ji_mask)[0])} components")
    return 0


def cmd_localize(args):
    from .bol import canonical_bol, localize, masks_to_json
    from .pls import mask_components

    L = lattice_from_json(_load(args.lattice))
    a = _resolve_elem(L, args.a)
    b = _resolve_elem(L, args.b)
    pts, trimmed = localize(L, *canonical_bol(L), a, b)
    if args.out:
        _write_json(args.out, masks_to_json(pts, trimmed))
    for m in trimmed:
        print(_line_names(L, m))
    comps, r = mask_components(trimmed, pts)
    print(
        f"{pts.bit_count()} points, {len(trimmed)} lines, {len(comps)} components, "
        + ("cyclic" if r else "acyclic")
    )
    return 0


def cmd_subgroup_lattice(args):
    from .algebra import parse_group, subgroup_lattice

    G = parse_group(args.group)
    L = subgroup_lattice(G)
    if args.out:
        _write_json(args.out, lattice_to_json(L))
    if args.count:
        print(L.n)
        return 0
    if args.dot:
        print(lattice_to_dot(L))
        return 0
    print(f"{G}: {L.n} subgroups")
    if args.analyze:
        from .analysis import params

        print(_params_table(params(L)))
    return 0


def cmd_distributive(args):
    from .algebra import distributive_ji, distributive_lattice, parse_set_system

    with open(args.sets, encoding="utf-8") as fh:
        system = parse_set_system(fh.read())
    L = distributive_lattice(system)
    if args.out:
        _write_json(args.out, lattice_to_json(L))
    if args.count:
        print(L.n)
        return 0
    if args.dot:
        print(lattice_to_dot(L))
        return 0
    gens = distributive_ji(system)
    print(
        f"{len(system.sets)} generators, {len(gens)} join-irreducibles, "
        f"{L.n} elements"
    )
    return 0


def cmd_rstar(args):
    from .bol import canonical_bol
    from .pls import mask_components, pls_from_json, rstar

    if bool(args.lattice) == bool(args.structure):
        print("rstar needs --lattice or a point-line JSON file, not both", file=sys.stderr)
        return 2
    if args.lattice:
        L = lattice_from_json(_load(args.lattice))
        print(mask_components(canonical_bol(L)[1], L.ji_mask)[1])
    else:
        print(rstar(pls_from_json(_load(args.structure))))
    return 0


def cmd_witness_triangle(args):
    from .analysis import (
        cyclic_localization_witness,
        triangle_configuration_count,
        triangle_configurations,
    )
    from .bol import canonical_bol

    L = lattice_from_json(_load(args.lattice))
    ivs, masks = canonical_bol(L)
    if args.count:
        print(triangle_configuration_count(masks))
        return 0
    cfg = next(triangle_configurations(masks), None)
    if cfg is None:
        print("no triangle configurations")
        return 0
    a, b = cyclic_localization_witness(L, ivs, masks, cfg)
    print("triangle lines:")
    for m in (cfg.l1, cfg.l2, cfg.l3, cfg.l4):
        print(f"  {_line_names(L, m)}")
    print(
        "corners "
        + ", ".join(L.name(p) for p in (cfg.s, cfg.p1, cfg.p2))
        + "; contacts "
        + ", ".join(L.name(p) for p in (cfg.q, cfg.r, cfg.p3))
    )
    print(f"cyclic localization at covering ({L.name(a)}, {L.name(b)})")
    return 0


# -- parser -------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(
        prog="modlat",
        description="modular lattices, bases of lines, wildcard enumeration",
    )
    sub = p.add_subparsers(dest="command", required=True)

    e = sub.add_parser("enumerate", help="closed order ideals as wildcard rows")
    e.add_argument("--poset", required=True, help="ground poset JSON")
    e.add_argument("--lines", help="line sets JSON")
    e.add_argument("--count", action="store_true", help="print only the total")
    e.add_argument("--expand", action="store_true", help="print every bitstring")
    e.add_argument("--out", help="write the row set as JSON")
    e.add_argument("--stats", action="store_true", help="print work counts as JSON on stderr")
    e.set_defaults(func=cmd_enumerate)

    r = sub.add_parser("rebuild", help="lattice of the closed order ideals")
    r.add_argument("--poset", required=True)
    r.add_argument("--lines")
    r.add_argument("--dot", action="store_true", help="print DOT instead of a summary")
    r.add_argument("--out", help="write the lattice as JSON")
    r.set_defaults(func=cmd_rebuild)

    a = sub.add_parser("analyze", help="parameter profile and verdicts")
    a.add_argument("--lattice", required=True, help="lattice JSON")
    a.add_argument("--out", help="write the report as JSON")
    a.set_defaults(func=cmd_analyze)

    v = sub.add_parser("verify", help="run every check over the stock corpus")
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bol", help="canonical base of lines")
    b.add_argument("--lattice", required=True)
    b.add_argument("--all-bols", action="store_true", help="count bases, up to --cap")
    b.add_argument("--cap", type=int, default=BOLS_CAP, help="bound on the bases of lines sampled")
    b.add_argument("--out", help="write the base as JSON")
    b.set_defaults(func=cmd_bol)

    lo = sub.add_parser("localize", help="restrict the base to a covering")
    lo.add_argument("--lattice", required=True)
    lo.add_argument("a", help="lower element (name or index)")
    lo.add_argument("b", help="upper element (name or index)")
    lo.add_argument("--out", help="write the point-line structure as JSON")
    lo.set_defaults(func=cmd_localize)

    g = sub.add_parser("subgroup-lattice", help="subgroups of a finite abelian group")
    g.add_argument("--group", required=True, help="moduli, e.g. 2,2,2 or 4,4")
    g.add_argument("--count", action="store_true")
    g.add_argument("--analyze", action="store_true")
    g.add_argument("--dot", action="store_true")
    g.add_argument("--out")
    g.set_defaults(func=cmd_subgroup_lattice)

    d = sub.add_parser("distributive", help="lattice generated by a set system")
    d.add_argument("--sets", required=True, help="0/1 matrix text file")
    d.add_argument("--count", action="store_true")
    d.add_argument("--dot", action="store_true")
    d.add_argument("--out")
    d.set_defaults(func=cmd_distributive)

    s = sub.add_parser("rstar", help="splittings needed to acyclify")
    s.add_argument("structure", nargs="?", help="point-line JSON file")
    s.add_argument("--lattice", help="use the canonical base of this lattice")
    s.set_defaults(func=cmd_rstar)

    w = sub.add_parser("witness-triangle", help="covering with a cyclic localization")
    w.add_argument("--lattice", required=True)
    w.add_argument("--count", action="store_true", help="print configuration count")
    w.set_defaults(func=cmd_witness_triangle)

    return p


# built once per process, at import, and shared by every `main` call
PARSER = _build_parser()


def main(argv=None):
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(exc, file=sys.stderr)
        return 2
    except (LatticeError, PlsError, WildcardError, NotAClosureSystem, ValueError, KeyError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
