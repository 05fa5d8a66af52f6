"""Command-line frontend.

Every number prints as an exact fraction (``num/den``, the ``/den``
omitted for integers), output is deterministic byte-for-byte for a fixed
invocation, and ``--format json`` switches every command to a
machine-readable payload.  Exit codes: 0 success, 1 domain error, 2
usage error.
"""

import argparse
import os
import sys

from . import __version__

# Each command imports what it runs, so that parsing the command line,
# help and usage errors load no computational module.  The parser's two
# values from those modules are written out; the tests pin each to its owner.
_DEFAULT_MAX_WEIGHT = 18  # matroid.DEFAULT_MAX_WEIGHT
_TRIPLE_TYPES = [1, 2, 3, 4, 5, 6, 7, 8]  # sorted(decomposition.GENERATOR_TRIPLES)

# `tau --d`, `evaluate --degree`, `expand --order` and `tau-check --max-d`
# cost grows at least quadratically with the degree; at 500 the slowest
# route, a weight-18 label such as `evaluate --insertions 6,4,2`, takes
# about 0.75 s cold on a 2-vCPU Xeon VM
_MAX_DEGREE = 500
# `matroid` and `conjecture-check` list every partition of each weight up to
# --max-weight; a cold weight-26 matrix and its rank take about 1.7 s on a
# 2-vCPU Xeon VM
_MAX_WEIGHT_CEILING = 26


def _check_degree(d: int, flag: str, least: int = 0) -> None:
    """Refuse a degree flag below ``least`` or above the cap, naming the flag."""
    if d < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{flag} must be {bound}, got {d}")
    if d > _MAX_DEGREE:
        raise ValueError(f"{flag} {d} above the degree cap {_MAX_DEGREE}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")


def _parse_label(text: str) -> tuple[int, ...]:
    """The label ``--insertions`` names, refused above the weight cap.

    Every label is solved from its partition sums up to base(k), about
    (k + 6)²/48, so the cost climbs steeply with the weight; at the matroid
    weight cap the slowest command still takes only seconds.
    """
    from .descendents import as_label, weight

    label = as_label(_parse_int_list(text))
    k = weight(label)
    if k > _DEFAULT_MAX_WEIGHT:
        raise ValueError(f"label weight {k} above the weight cap {_DEFAULT_MAX_WEIGHT}")
    return label


def _emit(args, text_lines, payload):
    if args.format == "json":
        import json

        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _fail(args, exc) -> int:
    if args is not None and getattr(args, "format", "text") == "json":
        import json

        message = json.dumps(
            {"error": {"type": type(exc).__name__, "message": str(exc)}}
        )
    else:
        message = f"error: {exc}"
    print(message, file=sys.stderr)
    return 1


# -- subcommands --------------------------------------------------------------


def _cmd_evaluate(args) -> int:
    from .descendents import gw_invariant
    from .qseries import fraction_str

    _check_degree(args.degree, "--degree")
    label = _parse_label(args.insertions)
    value = gw_invariant(label, args.degree)
    _emit(
        args,
        [fraction_str(value)],
        {"insertions": list(label), "degree": args.degree, "value": fraction_str(value)},
    )
    return 0


def _cmd_expand(args) -> int:
    from .descendents import bracket_series, weight
    from .quasimodular import base_order

    order = args.order
    if order is not None:
        _check_degree(order, "--order")
    label = _parse_label(args.insertions)
    if order is None:
        # An odd-weight series is identically 0; it takes the order of
        # the even weight below.
        k = weight(label)
        order = base_order(k - k % 2)
    series = bracket_series(label, order)
    _emit(args, [str(series)], series.to_json())
    return 0


def _cmd_eisenstein(args) -> int:
    from .descendents import to_eisenstein
    from .qseries import fraction_str

    label = _parse_label(args.insertions)
    expansion = to_eisenstein(label)
    body = ", ".join(
        f"{mono.weight_tuple()}: {fraction_str(coeff)}"
        for mono, coeff in expansion.items()
    )
    payload = [
        {"monomial": [mono.a, mono.b, mono.c], "coeff": fraction_str(coeff)}
        for mono, coeff in expansion.items()
    ]
    _emit(args, ["{" + body + "}"], payload)
    return 0


def _format_matrix(rows) -> list[str]:
    from .qseries import fraction_str

    cells = [[fraction_str(x) for x in row] for row in rows]
    widths = [max(len(cells[i][j]) for i in range(len(cells))) for j in range(len(cells[0]))]
    return [
        "[" + " ".join(cell.rjust(w) for cell, w in zip(row, widths)) + "]"
        for row in cells
    ]


def _label_list_str(labels) -> str:
    return "[" + ", ".join("[" + ", ".join(str(k) for k in lab) + "]" for lab in labels) + "]"


def _cmd_matroid(args) -> int:
    from .matroid import check_weight, descendent_labels, descendent_matrix
    from .qseries import fraction_str
    from .quasimodular import eisenstein_monomials

    k = args.weight
    check_weight(k, args.max_weight)
    if args.action == "groundset":
        labels = descendent_labels(k, positive=args.positive)
        _emit(args, [_label_list_str(labels)], [list(lab) for lab in labels])
        return 0
    m = descendent_matrix(k, positive=args.positive, max_weight=args.max_weight)
    if args.action == "matrix":
        rows = m.matrix()
        payload = {
            "weight": k,
            "positive": args.positive,
            "monomials": [[mono.a, mono.b, mono.c] for mono in eisenstein_monomials(k)],
            "groundset": [list(lab) for lab in m.labels],
            "matrix": [[fraction_str(x) for x in row] for row in rows],
        }
        _emit(args, _format_matrix(rows), payload)
    elif args.action == "rank":
        _emit(args, [str(m.rank())], {"weight": k, "positive": args.positive, "rank": m.rank()})
    elif args.action == "count":
        count = m.bases_count()
        _emit(args, [str(count)], {"weight": k, "positive": args.positive, "count": count})
    elif args.action == "bases":
        if args.format == "json":
            import json

            print(json.dumps([[list(lab) for lab in basis] for basis in m.bases()]))
        else:
            for basis in m.bases():
                print(_label_list_str(basis))
    elif args.action == "tutte":
        t = m.tutte()
        payload = {
            "weight": k,
            "positive": args.positive,
            "terms": [{"x": i, "y": j, "coeff": c} for i, j, c in t.sorted_terms()],
        }
        _emit(args, [str(t)], payload)
    return 0


def _decomposition_payload(key, dec) -> dict:
    from .qseries import fraction_str

    return {
        "key": key,
        "labels": [list(lab) for lab in dec.basis],
        "coefficients": [fraction_str(c) for c in dec.coefficients],
        "scale": dec.scale,
        "scaled_coefficients": list(dec.scaled_coefficients),
    }


def _decomposition_lines(key, dec) -> list[str]:
    from .qseries import fraction_str

    lines = [f"{key} scale {dec.scale}"]
    for lab, coeff in zip(dec.basis, dec.coefficients):
        lines.append(f"  [{', '.join(str(x) for x in lab)}]: {fraction_str(coeff)}")
    return lines


def _solve_delta(basis: str, positive: bool):
    """The parsed 1-based ``basis`` indices and Δ over those ground-set labels."""
    from .decomposition import solve_linear
    from .matroid import descendent_labels
    from .qseries import discriminant
    from .quasimodular import base_order

    indices = _parse_int_list(basis)
    ground = descendent_labels(12, positive=positive)
    if len(set(indices)) != len(indices):
        raise ValueError("basis indices must be distinct")
    if any(i < 1 or i > len(ground) for i in indices):
        raise ValueError(
            f"basis indices must lie in 1..{len(ground)} for this ground set"
        )
    target = discriminant(base_order(12))
    return indices, solve_linear([ground[i - 1] for i in indices], target, 12)


def _cmd_delta(args) -> int:
    from .decomposition import basis_key

    if args.weight != 12:
        raise ValueError("the discriminant form has weight 12; use --weight 12")
    indices, dec = _solve_delta(args.basis, args.positive)
    key = basis_key(indices)
    _emit(args, _decomposition_lines(key, dec), _decomposition_payload(key, dec))
    return 0


def _cmd_delta_all(args) -> int:
    from .decomposition import all_positive_decompositions

    rows = all_positive_decompositions()
    payload = [_decomposition_payload(key, dec) for key, dec in rows]
    lines = [
        f"{key} scale={dec.scale} coeffs="
        + ",".join(str(c) for c in dec.scaled_coefficients)
        for key, dec in rows
    ]
    _emit(args, lines, payload)
    return 0


def _cmd_delta_poly(args) -> int:
    from .decomposition import poly_basis_expand
    from .qseries import discriminant, fraction_str
    from .quasimodular import base_order

    pd = poly_basis_expand(args.type, discriminant(base_order(12)), 12)
    factors = pd.factor_form()
    body = ", ".join(
        f"{tuple(tuple(lab) for lab in labs)}: {fraction_str(coeff)}"
        for labs, coeff in factors
    )
    payload = {
        "type": pd.triple_type,
        "weight": 12,
        "generators": [list(g) for g in pd.generators],
        "terms": [
            {
                "exponents": list(exps),
                "factors": [list(lab) for lab in labs],
                "coeff": fraction_str(coeff),
            }
            for (exps, coeff), (labs, _) in zip(pd.terms, factors)
        ],
    }
    _emit(args, ["{" + body + "}"], payload)
    return 0


def _cmd_tau(args) -> int:
    from .decomposition import tau_direct, tau_niebur, tau_pentagonal

    _check_degree(args.d, "--d", 1)
    if args.method == "niebur":
        value = tau_niebur(args.d)
    elif args.method == "direct":
        value = tau_direct(args.d)
    else:
        _, dec = _solve_delta("1,2,3,4,5,6,7" if args.basis is None else args.basis, True)
        value = tau_pentagonal(args.d, dec)
    _emit(args, [str(value)], {"d": args.d, "method": args.method, "value": value})
    return 0


def _cmd_tau_check(args) -> int:
    from .decomposition import tau_relation_report

    _check_degree(args.max_d, "--max-d", 2)
    report = tau_relation_report(args.max_d)
    lines = []
    for check in report.checks:
        if check.ok:
            lines.append(f"{check.name}: OK ({check.cases} cases)")
        else:
            lines.append(f"{check.name}: FAIL ({len(check.violations)} violations)")
            lines.extend(f"  {v}" for v in check.violations)
    lines.append(
        ("all checks passed" if report.ok else "violations found") + f" for d <= {report.max_d}"
    )
    payload = {
        "max_d": report.max_d,
        "ok": report.ok,
        "checks": [
            {"name": c.name, "cases": c.cases, "violations": list(c.violations)}
            for c in report.checks
        ],
    }
    _emit(args, lines, payload)
    return 0


def _cmd_conjecture_check(args) -> int:
    from .matroid import descendent_matrix, named_restriction
    from .quasimodular import qm_dimension

    if args.max_weight < 4:
        raise ValueError(
            f"conjecture-check starts at weight 4; got --max-weight {args.max_weight}"
        )
    lines = []
    ranks = []
    for k in range(4, args.max_weight + 1, 2):
        m = descendent_matrix(k, max_weight=args.max_weight)
        r, dim = m.rank(), qm_dimension(k)
        ranks.append({"weight": k, "rank": r, "dimension": dim, "match": r == dim})
        lines.append(
            f"weight {k}: rank {r} {'==' if r == dim else '!='} dim {dim}"
        )
    restrictions = []
    for k in (14, 16, 18):
        if k > args.max_weight:
            continue
        uniform = named_restriction(k).is_uniform()
        restrictions.append(
            {"weight": k, "uniform": list(uniform) if uniform else None}
        )
        lines.append(
            f"weight {k} restriction: "
            + (f"uniform U({uniform[0]}, {uniform[1]})" if uniform else "not uniform")
        )
    ok = all(r["match"] for r in ranks) and all(r["uniform"] for r in restrictions)
    lines.append("all conjecture checks passed" if ok else "conjecture checks FAILED")
    payload = {
        "max_weight": args.max_weight,
        "ok": ok,
        "ranks": ranks,
        "restrictions": restrictions,
    }
    _emit(args, lines, payload)
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    # Accepted and ignored so that existing invocations keep working; every
    # run builds its coordinate matrices afresh.
    ignored = argparse.ArgumentParser(add_help=False)
    ignored.add_argument("--cache-dir", help=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="descmat",
        description="Exact computations with stationary descendent series, "
        "descendent matroids, and discriminant decompositions.",
    )
    parser.add_argument("--version", action="version", version=f"descmat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", parents=[common], help="one descendent invariant")
    p.add_argument("--insertions", required=True, help="comma-separated orders, e.g. 2,2")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("expand", parents=[common], help="q-expansion of a descendent series")
    p.add_argument("--insertions", required=True)
    p.add_argument(
        "--order", type=int, default=None, help="series order (default: the label's base order)"
    )
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser(
        "eisenstein", parents=[common], help="Eisenstein-basis expansion of a descendent series"
    )
    p.add_argument("--insertions", required=True)
    p.set_defaults(func=_cmd_eisenstein)

    p = sub.add_parser(
        "matroid", parents=[common, ignored], help="descendent matroid computations"
    )
    p.add_argument(
        "action", choices=("matrix", "rank", "groundset", "bases", "count", "tutte")
    )
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--positive", action="store_true", help="restrict to positive insertions")
    p.add_argument(
        "--max-weight", type=int, default=_DEFAULT_MAX_WEIGHT, help="raise the weight cap"
    )
    p.set_defaults(func=_cmd_matroid)

    p = sub.add_parser(
        "delta", parents=[common], help="discriminant over a chosen descendent basis"
    )
    p.add_argument("--weight", type=int, default=12)
    p.add_argument("--basis", required=True, help="1-based ground-set indices, e.g. 1,2,3,4,5,6,7")
    p.add_argument("--positive", action="store_true")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser(
        "delta-all", parents=[common], help="discriminant over every positive basis"
    )
    p.set_defaults(func=_cmd_delta_all)

    p = sub.add_parser(
        "delta-poly", parents=[common], help="discriminant in one generator-triple basis"
    )
    p.add_argument("--type", type=int, required=True, choices=_TRIPLE_TYPES)
    p.set_defaults(func=_cmd_delta_poly)

    p = sub.add_parser("tau", parents=[common], help="a tau value by one of three routes")
    p.add_argument("--d", type=int, required=True)
    p.add_argument(
        "--method", choices=("pentagonal", "niebur", "direct"), default="pentagonal"
    )
    p.add_argument("--basis", default=None, help="pentagonal method: ground-set indices")
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("tau-check", parents=[common], help="sweep the classical tau relations")
    p.add_argument("--max-d", type=int, default=30)
    p.set_defaults(func=_cmd_tau_check)

    p = sub.add_parser(
        "conjecture-check",
        parents=[common, ignored],
        help="rank-vs-dimension sweep and the curated uniform restrictions",
    )
    p.add_argument("--max-weight", type=int, default=_DEFAULT_MAX_WEIGHT)
    p.set_defaults(func=_cmd_conjecture_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "tau" and args.method != "pentagonal" and args.basis is not None:
        parser.error("--basis only applies to --method pentagonal")
    try:
        if getattr(args, "max_weight", 0) > _MAX_WEIGHT_CEILING:
            raise ValueError(f"--max-weight {args.max_weight} above the ceiling {_MAX_WEIGHT_CEILING}")
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        return _fail(args, exc)
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): send the unflushed
        # rest to devnull so the exit-time flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
