"""Command line front end.

One process runs one subcommand:

    freeprob nc enumerate 4
    freeprob nc mobius 4 --pi "1 4|2 3"
    freeprob nc mobius 4 --sigma "1 2|3 4"
    freeprob transform m2c --in moments.json --out cumulants.json
    freeprob model free_poisson --rate 1 --jump 1 --order 6 --out fp.json
    freeprob limit poisson --spec spec.json --schedule 10,100,1000 --order 4
    freeprob infdiv check --in law.json --degree 2
    freeprob fock verify --in law.json --order 3
    freeprob approx --target cumulants.json --j 1,10,100
    freeprob run session.fp

Exit status: 0 on success, 1 when the mathematics rejects the request
(validation, domain, capacity), 2 when input cannot be read or parsed.
``--json`` switches any report to canonical JSON on stdout; output bytes
are deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .errors import FreeprobError, ParseError, ValidationError
from .jsonio import (
    dumps_canonical,
    functional_from_dict,
    functional_to_dict,
    read_functional,
    read_json,
    write_functional,
)
from .partitions import (
    NcPartition,
    _check_listing,
    catalan_number,
    enumerate_nc,
    full,
    interval,
    mobius,
    singletons,
)


def _rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a rational: %r" % text)


def _int_list(text):
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("not a comma-separated int list: %r" % text)


def _name_list(text):
    names = [x.strip() for x in text.split(",") if x.strip()]
    if not names:
        raise argparse.ArgumentTypeError("empty name list")
    return names


def _matrix(text):
    try:
        return [
            [Fraction(x) for x in row.split(",")]
            for row in text.split(";")
            if row.strip()
        ]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "not a matrix (rows ';', entries ','): %r" % text
        )


def _partition(text):
    blocks = []
    for chunk in text.split("|"):
        items = chunk.replace(",", " ").split()
        if not items:
            raise ParseError("empty block in partition %r" % text)
        try:
            blocks.append(tuple(int(x) for x in items))
        except ValueError:
            raise ParseError("non-integer element in partition %r" % text)
    return blocks


def _emit(text):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(payload):
    sys.stdout.write(dumps_canonical(payload))


def _print_functional(table):
    from .functionals import CumulantFunctional

    kind = "kappa" if isinstance(table, CumulantFunctional) else "phi"
    lines = [
        "functional on %s, order %d"
        % (", ".join(table.alphabet), table.order)
    ]
    for w, v in table.items():
        lines.append("  %s(%s) = %s" % (kind, table.word_name(w), v))
    _emit("\n".join(lines))


def _deliver_functional(table, args):
    if args.out:
        write_functional(args.out, table)
    if args.json:
        _emit_json(functional_to_dict(table))
    elif args.out:
        _emit("wrote %d entries to %s" % (sum(1 for _ in table.words()), args.out))
    else:
        _print_functional(table)


# -- nc ---------------------------------------------------------------------


def _cmd_nc_enumerate(args):
    if args.count_only:  # the checks of the listing, without the listing
        _check_listing(args.n)
        parts = []
    else:
        parts = enumerate_nc(args.n)
    count = catalan_number(args.n)
    if args.json:
        payload = {"n": args.n, "count": count}
        if not args.count_only:
            payload["partitions"] = [str(p) for p in parts]
        _emit_json(payload)
        return 0
    for p in parts:
        _emit(str(p))
    _emit("NC(%d): %d partitions (Catalan number %d)" % (args.n, count, count))
    return 0


def _cmd_nc_mobius(args):
    n = args.n
    if args.pi is None:  # the table: the checks of the listing, before full(n)
        _check_listing(n)
    pi = None if args.pi is None else NcPartition(n, _partition(args.pi))
    sigma = full(n) if args.sigma is None else NcPartition(n, _partition(args.sigma))
    if pi is not None:
        value = mobius(pi, sigma)
        if args.json:
            _emit_json(
                {"n": n, "pi": str(pi), "sigma": str(sigma), "mobius": value}
            )
        else:
            _emit("mobius(%s, %s) = %d" % (pi, sigma, value))
        return 0
    rows = [(str(p), mobius(p, sigma)) for p in interval(singletons(n), sigma)]
    if args.json:
        _emit_json(
            {
                "n": n,
                "sigma": str(sigma),
                "values": [{"partition": s, "mobius": v} for s, v in rows],
            }
        )
        return 0
    width = max(len(s) for s, _ in rows)
    for s, v in rows:
        _emit("%-*s  %d" % (width, s, v))
    return 0


# -- transform --------------------------------------------------------------


def _cmd_transform(args):
    from .functionals import (
        CumulantFunctional,
        MomentFunctional,
        cumulants_to_moments,
        moments_to_cumulants,
    )

    table = read_functional(args.infile)
    if args.direction == "m2c":
        if not isinstance(table, MomentFunctional):
            raise ParseError("m2c needs a file of kind 'moments'")
        result = moments_to_cumulants(table)
    else:
        if not isinstance(table, CumulantFunctional):
            raise ParseError("c2m needs a file of kind 'cumulants'")
        result = cumulants_to_moments(table)
    _deliver_functional(result, args)
    return 0


# -- model ------------------------------------------------------------------


def _cmd_model(args):
    from .functionals import MomentFunctional
    from .models import (
        bernoulli,
        compound_free_poisson,
        free_poisson,
        projection_functional,
        semicircle,
        semicircle_family,
    )

    ctor = args.ctor
    if ctor == "semicircle":
        table = semicircle(args.radius, args.order, name=args.name or "s")
    elif ctor == "semicircle_family":
        table = semicircle_family(args.cov, args.order, names=args.names)
    elif ctor == "free_poisson":
        table = free_poisson(args.rate, args.jump, args.order, name=args.name or "x")
    elif ctor == "compound_free_poisson":
        base = read_functional(args.base)
        if not isinstance(base, MomentFunctional):
            raise ParseError("--base must be a file of kind 'moments'")
        table = compound_free_poisson(args.rate, base, args.order)
    elif ctor == "projection":
        table = projection_functional(args.trace, args.order, name=args.name or "p")
    elif ctor == "bernoulli":
        table = bernoulli(
            args.trace, args.up, args.down, args.order, name=args.name or "b"
        )
    else:
        raise ParseError("unknown constructor %r" % ctor)
    _deliver_functional(table, args)
    return 0


# -- limit ------------------------------------------------------------------


def _spec_scalar(spec, key, default=None):
    if key not in spec:
        if default is None:
            raise ParseError("limit spec is missing %r" % key)
        return default
    value = spec[key]
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ParseError("%r in the limit spec must be a rational string" % key)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ParseError("%r in the limit spec is not a rational" % key)


def _spec_list(spec, key, required=True):
    if key not in spec:
        if required:
            raise ParseError("limit spec is missing %r" % key)
        return None
    value = spec[key]
    if not isinstance(value, list) or not value:
        raise ParseError("%r in the limit spec must be a non-empty list" % key)
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (str, int)):
            raise ParseError("%r entries must be rational strings" % key)
        try:
            out.append(Fraction(item))
        except (ValueError, ZeroDivisionError):
            raise ParseError("%r entry %r is not a rational" % (key, item))
    return out


def _cmd_limit(args):
    from .functionals import MomentFunctional
    from .limits import (
        compound_limit_check,
        multi_poisson_limit_check,
        poisson_limit_check,
    )
    from .models import PoissonSpec

    spec = read_json(args.spec)
    if not isinstance(spec, dict):
        raise ParseError("limit spec must be a JSON object")
    if args.kind == "poisson":
        report = poisson_limit_check(
            _spec_scalar(spec, "rate", Fraction(1)),
            _spec_scalar(spec, "jump", Fraction(1)),
            args.schedule,
            args.order,
        )
    elif args.kind == "multi":
        ps = PoissonSpec.of(
            _spec_list(spec, "rates"), _spec_list(spec, "jumps", required=False)
        )
        model = spec.get("model")
        if not isinstance(model, str):
            raise ParseError("limit spec is missing the coupling 'model'")
        report = multi_poisson_limit_check(ps, model, args.schedule, args.order)
    else:
        model = spec.get("model")
        if not isinstance(model, str):
            raise ParseError("limit spec is missing the coupling 'model'")
        if "base" not in spec:
            raise ParseError("limit spec is missing the 'base' functional")
        base = functional_from_dict(spec["base"])
        if not isinstance(base, MomentFunctional):
            raise ParseError("'base' must have kind 'moments'")
        rates = _spec_list(spec, "rates")
        ps = PoissonSpec.of(rates)
        report = compound_limit_check(base, ps, model, args.schedule, args.order)
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        _emit(report.to_text())
    return 0


# -- infdiv -----------------------------------------------------------------


def _infdiv_text(v):
    lines = [
        "%s at degree %d (dimension %d, rank %d)"
        % (v.verdict, v.degree, v.dimension, v.rank)
    ]
    for word, pivot in v.pivot_trace:
        lines.append("  pivot [%s] = %s" % (word, pivot))
    if v.witness is not None:
        combo = " + ".join("(%s)*[%s]" % (c, w) for w, c in v.witness)
        lines.append("  witness %s" % combo)
        lines.append("  form value %s < 0: not divisible at this degree" % v.witness_value)
    else:
        lines.append("  no obstruction up to this degree (evidence, not proof)")
    return "\n".join(lines)


def _cmd_infdiv(args):
    from .infdiv import check_infdiv

    table = read_functional(args.infile)
    verdict = check_infdiv(
        table, k=args.vars, degree=args.degree, tolerance=args.tolerance
    )
    if args.json:
        _emit_json(verdict.to_json_dict())
    else:
        _emit(_infdiv_text(verdict))
    return 0


# -- fock -------------------------------------------------------------------


def _read_cumulants(path):
    from .functionals import MomentFunctional, moments_to_cumulants

    table = read_functional(path)
    if isinstance(table, MomentFunctional):
        return moments_to_cumulants(table)
    return table


def _cmd_fock(args):
    from .fock import build_fock_model, levy_n_max, verify_levy_axioms

    if args.order < 1:
        raise ValidationError("order must be >= 1, got %d" % args.order)
    cf = _read_cumulants(args.infile)
    need = 2 * args.order + 1
    if cf.order < need:
        raise ValidationError(
            "verifying at order %d needs a table of order >= %d, file has %d"
            % (args.order, need, cf.order)
        )
    model = build_fock_model(cf, args.order, levy_n_max(args.order))
    report = verify_levy_axioms(model, args.order)
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        _emit(report.to_text())
    return 0


# -- approx -----------------------------------------------------------------


def _cmd_approx(args):
    from .limits import poisson_approximation

    cf = _read_cumulants(args.target)
    result = poisson_approximation(cf, args.j, order=args.order)
    if args.json:
        _emit_json(result.to_json_dict())
    else:
        lines = [result.report.to_text()]
        flagged = [
            str(j)
            for j, ok in zip(result.schedule, result.base_gram_psd)
            if not ok
        ]
        if flagged:
            lines.append(
                "note: base law not positive at j = %s" % ", ".join(flagged)
            )
        _emit("\n".join(lines))
    return 0


# -- run --------------------------------------------------------------------


def _cmd_run(args):
    from .dsl import Session, run_source

    if args.script == "-":
        source = sys.stdin.read()
    else:
        try:
            with open(args.script, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            raise ParseError("cannot read %s: %s" % (args.script, exc)) from None
    session = Session(order=args.order)
    results = run_source(source, session)
    if args.json:
        _emit_json([r.to_json_dict() for r in results])
        return 0
    shown = [r for r in results if r.kind not in ("let", "free")] or results
    for r in shown:
        _emit(r.text)
    return 0


# -- wiring -----------------------------------------------------------------


def _add_output_flags(p, out=True):
    p.add_argument("--json", action="store_true", help="canonical JSON on stdout")
    if out:
        p.add_argument("--out", metavar="FILE", help="write the functional here")


def build_parser():
    root = argparse.ArgumentParser(
        prog="freeprob",
        description="Exact moment/cumulant computations on the non-crossing lattice.",
    )
    sub = root.add_subparsers(dest="command", required=True)

    nc = sub.add_parser("nc", help="the non-crossing partition lattice")
    ncsub = nc.add_subparsers(dest="nc_command", required=True)
    p = ncsub.add_parser("enumerate", help="list NC(n)")
    p.add_argument("n", type=int)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_nc_enumerate)
    p = ncsub.add_parser("mobius", help="Mobius function values")
    p.add_argument("n", type=int)
    p.add_argument("--pi", help="partition, blocks '|'-separated, e.g. '1 4|2 3'")
    p.add_argument("--sigma", help="upper partition; defaults to the one-block top")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_nc_mobius)

    p = sub.add_parser("transform", help="moment/cumulant transforms on files")
    p.add_argument("direction", choices=("m2c", "c2m"))
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_transform)

    model = sub.add_parser("model", help="build a standard law")
    msub = model.add_subparsers(dest="ctor", required=True)

    p = msub.add_parser("semicircle")
    p.add_argument("--radius", type=_rational, default=Fraction(2))
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--name")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_model)

    p = msub.add_parser("semicircle_family")
    p.add_argument(
        "--cov", type=_matrix, required=True, help="rows ';', entries ','"
    )
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--names", type=_name_list)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_model)

    p = msub.add_parser("free_poisson")
    p.add_argument("--rate", type=_rational, default=Fraction(1))
    p.add_argument("--jump", type=_rational, default=Fraction(1))
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--name")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_model)

    p = msub.add_parser("compound_free_poisson")
    p.add_argument("--rate", type=_rational, default=Fraction(1))
    p.add_argument("--base", required=True, metavar="FILE")
    p.add_argument("--order", type=int, default=None)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_model)

    p = msub.add_parser("projection")
    p.add_argument("--trace", type=_rational, default=Fraction(1, 2))
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--name")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_model)

    p = msub.add_parser("bernoulli")
    p.add_argument("--trace", type=_rational, default=Fraction(1, 2))
    p.add_argument("--up", type=_rational, default=Fraction(1))
    p.add_argument("--down", type=_rational, default=Fraction(-1))
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--name")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_model)

    p = sub.add_parser("limit", help="finite-size laws against their limits")
    p.add_argument("kind", choices=("poisson", "multi", "compound"))
    p.add_argument("--spec", required=True, metavar="FILE")
    p.add_argument("--schedule", type=_int_list, default=[10, 100, 1000])
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_limit)

    infdiv = sub.add_parser("infdiv", help="divisibility certificates")
    isub = infdiv.add_subparsers(dest="infdiv_command", required=True)
    p = isub.add_parser("check")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--vars", type=int, default=None)
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--tolerance", type=_rational, default=Fraction(0))
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_infdiv)

    fock = sub.add_parser("fock", help="process realization checks")
    fsub = fock.add_subparsers(dest="fock_command", required=True)
    p = fsub.add_parser("verify")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_fock)

    p = sub.add_parser("approx", help="compound Poisson approximants")
    p.add_argument("--target", required=True, metavar="FILE")
    p.add_argument("--j", dest="j", type=_int_list, default=[1, 10, 100])
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_approx)

    p = sub.add_parser("run", help="run a session script ('-' for stdin)")
    p.add_argument("script")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_run)

    return root


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except FreeprobError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
