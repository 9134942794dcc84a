"""Command-line front end.

Every operation is exposed as a subcommand; run configuration comes
from flags, falling back to OSCULANT_* environment variables, then to
defaults.  Exit codes: 0 success, 1 domain error (the message carries
the violated constraint id), 2 usage error, 3 internal consistency
failure (including any verify-paper criterion failure).
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .catalog import (
    enumerate_exceptional,
    negative_curve_catalog,
    validate_char_p,
)
from .errors import DomainError, InternalCheckFailure
from .expr import format as format_class
from .expr import parse as parse_class
from .families import (
    census,
    census_csv,
    census_json,
    construction_kit,
    generate_nef_types,
    generate_non_nef_types,
)
from .lattice import K_TILDE, DivisorClass, arithmetic_genus
from .nef import (
    LambdaSpec,
    decompose_type,
    lambda_class,
    linear_system_dims,
    moduli_dimension,
    nef_check,
    verify_minimizer_claim,
    z_divisor,
)
from .verify import run_all

_ENV_PREFIX = "OSCULANT_"


@dataclass(frozen=True)
class RunConfig:
    char_p: int | None = None
    pair_reading: str = "factored"
    output: str = "json"
    seed: int = 0

    @classmethod
    def resolve(cls, args) -> "RunConfig":
        def pick(name: str, default, conv):
            value = getattr(args, name, None)
            if value is not None:
                return value
            raw = os.environ.get(_ENV_PREFIX + name.upper())
            if raw is None:
                return default
            try:
                return conv(raw)
            except ValueError:
                raise DomainError(
                    f"environment {_ENV_PREFIX}{name.upper()} = {raw!r} "
                    f"is not valid", constraint="run-config")

        char_p = validate_char_p(pick("char_p", None, int))
        reading = pick("pair_reading", "factored", str)
        if reading not in ("factored", "literal"):
            raise DomainError(f"unknown pair reading {reading!r}",
                              constraint="pair-reading")
        output = pick("output", "json", str)
        if output not in ("json", "csv", "text"):
            raise DomainError(f"unknown output format {output!r}",
                              constraint="output-format")
        seed = pick("seed", 0, int)
        return cls(char_p, reading, output, seed)


def _vec_arg(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"expected four comma-separated integers, got {text!r}")
    try:
        return tuple(int(x) for x in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected four comma-separated integers, got {text!r}")


def _div_json(dclass: DivisorClass) -> dict:
    return {"c": dclass.c, "f": dclass.f, "s": list(dclass.s),
            "r": list(dclass.r), "expr": format_class(dclass)}


# ---------------------------------------------------------------------------
# rendering


def _render(payload, output: str) -> str:
    if output == "json":
        return json.dumps(payload, indent=2, sort_keys=True)
    if output == "csv":
        return _render_csv(payload)
    return _render_text(payload)


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return ";".join(_scalar(v) for v in value)
    if isinstance(value, dict):
        return ";".join(f"{k}={_scalar(v)}" for k, v in value.items())
    return str(value)


def _render_csv(payload) -> str:
    if isinstance(payload, list):
        if not payload:
            return ""
        keys = list(payload[0].keys())
        lines = [",".join(keys)]
        lines += [",".join(_scalar(row[k]) for k in keys) for row in payload]
        return "\n".join(lines)
    return "\n".join(f"{k},{_scalar(v)}" for k, v in payload.items())


def _render_text(payload) -> str:
    if isinstance(payload, list):
        return "\n".join(json.dumps(row, sort_keys=True) for row in payload)
    return "\n".join(f"{k}: {json.dumps(v, sort_keys=True)}"
                     for k, v in payload.items())


# ---------------------------------------------------------------------------
# handlers (each returns rendered output and an exit code)


def _cmd_intersect(args, cfg):
    a, b = parse_class(args.left), parse_class(args.right)
    payload = {"left": format_class(a), "right": format_class(b),
               "value": a.dot(b)}
    return _render(payload, cfg.output), 0


def _cmd_genus(args, cfg):
    dclass = parse_class(args.expr)
    payload = {"class": format_class(dclass),
               "self_intersection": dclass.self_intersection(),
               "value": arithmetic_genus(dclass)}
    return _render(payload, cfg.output), 0


def _cmd_lambda(args, cfg):
    spec = LambdaSpec(args.n, args.d, args.gamma, rho=args.rho)
    qc = lambda_class(spec, cfg.char_p)
    payload = {
        "n": spec.n, "d": spec.d, "rho": spec.rho,
        "gamma": list(spec.gamma),
        "pullback": _div_json(qc.pullback),
        "self_intersection": qc.self_intersection(),
        "k_degree": qc.dot(K_TILDE),
        "genus": qc.genus(),
    }
    return _render(payload, cfg.output), 0


def _cmd_decompose(args, cfg):
    dec = decompose_type(args.gamma, args.d)
    payload = {
        "gamma": list(args.gamma), "d": args.d,
        "mu": list(dec.mu), "eps": list(dec.eps),
        "nat_mu": list(dec.nat_mu),
        "flat_mu_set": [list(v) for v in dec.flat_mu_set],
    }
    return _render(payload, cfg.output), 0


def _cmd_nef(args, cfg):
    spec = LambdaSpec(args.n, args.d, args.gamma)
    report = nef_check(spec, mode=args.mode, p=cfg.char_p,
                       pair_reading=cfg.pair_reading)
    return _render(report.to_dict(), cfg.output), 0


def _cmd_minimizer(args, cfg):
    spec = LambdaSpec(args.n, args.d, args.gamma)
    report = verify_minimizer_claim(spec, p=cfg.char_p)
    return _render(report.to_dict(), cfg.output), 0


def _cmd_zdiv(args, cfg):
    spec = LambdaSpec(args.n, args.d, args.gamma)
    contact = z_divisor(spec, p=cfg.char_p)
    return _render(contact.to_dict(), cfg.output), 0


def _cmd_dims(args, cfg):
    spec = LambdaSpec(args.n, args.d, args.gamma)
    report = nef_check(spec, mode="brute", p=cfg.char_p)
    dim_l, dim_lc = linear_system_dims(spec, p=cfg.char_p, report=report)
    payload = {"dim_lambda": dim_l, "dim_lambda_minus_co": dim_lc,
               "dim_moduli": moduli_dimension(spec, p=cfg.char_p,
                                              report=report)}
    return _render(payload, cfg.output), 0


def _cmd_exceptional(args, cfg):
    rows = []
    for es in enumerate_exceptional(args.max_sq, cfg.char_p):
        rows.append({"alpha": list(es.alpha), "a": es.a, "k": es.k,
                     "pullback": _div_json(es.pullback())})
    return _render(rows, cfg.output), 0


def _cmd_catalog(args, cfg):
    rows = [{"name": name, "pullback": _div_json(qc.pullback), "self": si}
            for name, qc, si in negative_curve_catalog(cfg.char_p)]
    return _render(rows, cfg.output), 0


def _cmd_family_nef(args, cfg):
    rows = [{"n": n, "gamma": list(g), "eps": list(e)}
            for n, g, e in generate_nef_types(args.d, args.k, args.mu,
                                              cfg.char_p)]
    return _render(rows, cfg.output), 0


def _cmd_family_nonnef(args, cfg):
    rows = [{"n": n, "gamma": list(g), "eps": list(e)}
            for n, g, e in generate_non_nef_types(args.d, args.mu,
                                                  args.bound, cfg.char_p)]
    return _render(rows, cfg.output), 0


def _cmd_kit(args, cfg):
    kit = construction_kit(args.d, args.mu)
    payload = {
        "d": kit.d, "mu": list(kit.mu), "gamma": list(kit.gamma),
        "n": kit.n, "genus": kit.genus,
        "divisors": [{"name": name, "class": _div_json(dc)}
                     for name, dc in kit.named_divisors()],
        "identities": {
            "d0_equals_d1": kit.d0 == kit.d1,
            "f_all_equal_g": all(fj == kit.g for fj in kit.f),
            "g_equals_lambda_pullback": kit.g == kit.lambda_pullback,
        },
    }
    return _render(payload, cfg.output), 0


def _cmd_census(args, cfg):
    records = census(range(1, args.n_max + 1), range(1, args.d_max + 1),
                     args.gamma_max, p=cfg.char_p,
                     pair_reading=cfg.pair_reading,
                     partitions=args.partitions)
    if cfg.output == "json":
        return json.dumps(census_json(records), indent=2, sort_keys=True), 0
    return census_csv(records).rstrip("\n"), 0


def _cmd_verify_paper(args, cfg):
    results = run_all(seed=cfg.seed, pair_reading=cfg.pair_reading)
    failures = sum(not r.passed for r in results)
    if cfg.output == "json":
        payload = [{"key": r.key, "passed": r.passed, "detail": r.detail}
                   for r in results]
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        lines = [r.line() for r in results]
        lines.append(f"{len(results) - failures}/{len(results)} "
                     f"criteria passed")
        text = "\n".join(lines)
    return text, (0 if failures == 0 else 3)


# ---------------------------------------------------------------------------
# parser assembly


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    add = common.add_argument
    add("--char-p", dest="char_p", type=int, default=argparse.SUPPRESS,
        metavar="P", help="odd prime characteristic (default: none)")
    add("--search-radius", dest="search_radius", default=argparse.SUPPRESS,
        metavar="R", help="ignored: the exact minimizer has no search box; "
        "accepted until the next release")
    add("--pair-reading", dest="pair_reading",
        choices=("factored", "literal"), default=argparse.SUPPRESS,
        help="reading of the pairwise closed nef condition")
    add("--output", dest="output", choices=("json", "csv", "text"),
        default=argparse.SUPPRESS, help="output format (default json)")
    add("--seed", dest="seed", type=int, default=argparse.SUPPRESS,
        metavar="N", help="seed for randomized sweeps")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="osculant", parents=[common],
        description="Exact divisor-class calculus on the blown-up ruled "
                    "surface and its quotient.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="<command>")

    def cmd(name, handler, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=handler)
        return p

    p = cmd("intersect", _cmd_intersect,
            "intersection number of two divisor expressions")
    p.add_argument("left")
    p.add_argument("right")

    p = cmd("genus", _cmd_genus, "arithmetic genus of a divisor expression")
    p.add_argument("expr")

    p = cmd("lambda", _cmd_lambda, "the distinguished class of a cover spec")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("rho", type=int)
    p.add_argument("gamma", type=_vec_arg, metavar="g0,g1,g2,g3")

    p = cmd("decompose", _cmd_decompose,
            "split a type vector as (2d-1)*mu + 2*eps")
    p.add_argument("gamma", type=_vec_arg, metavar="g0,g1,g2,g3")
    p.add_argument("d", type=int)

    for name, handler, help_text in (
            ("nef", _cmd_nef, "nef verdict for the class of a spec"),
            ("minimizer", _cmd_minimizer,
             "where the minimal exceptional pairing is attained"),
            ("zdiv", _cmd_zdiv, "exceptional contacts of a nef spec"),
            ("dims", _cmd_dims, "linear-system and moduli dimensions")):
        p = cmd(name, handler, help_text)
        p.add_argument("n", type=int)
        p.add_argument("d", type=int)
        p.add_argument("gamma", type=_vec_arg, metavar="g0,g1,g2,g3")
        if name == "nef":
            p.add_argument("--mode", choices=("closed", "brute", "both"),
                           default="both")

    p = cmd("exceptional", _cmd_exceptional,
            "enumerate exceptional classes by square sum")
    p.add_argument("--max-sq", dest="max_sq", type=int, required=True)

    cmd("catalog", _cmd_catalog, "the fixed negative-curve catalog")

    p = cmd("family-nef", _cmd_family_nef, "generate nef family types")
    p.add_argument("d", type=int)
    p.add_argument("k", type=int)
    p.add_argument("mu", type=_vec_arg, metavar="m0,m1,m2,m3")

    p = cmd("family-nonnef", _cmd_family_nonnef,
            "generate non-nef family types")
    p.add_argument("d", type=int)
    p.add_argument("mu", type=_vec_arg, metavar="m0,m1,m2,m3")
    p.add_argument("--bound", type=int, required=True)

    p = cmd("kit", _cmd_kit, "construction-kit divisors for (d, mu)")
    p.add_argument("d", type=int)
    p.add_argument("mu", type=_vec_arg, metavar="m0,m1,m2,m3")

    p = cmd("census", _cmd_census, "sweep a grid of specs")
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--d-max", dest="d_max", type=int, required=True)
    p.add_argument("--gamma-max", dest="gamma_max", type=int, required=True)
    p.add_argument("--partitions", type=int, default=1)

    cmd("verify-paper", _cmd_verify_paper,
        "run the full acceptance battery")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = RunConfig.resolve(args)
        text, code = args.func(args, cfg)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckFailure as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    if text:
        print(text)
    return code


def run() -> None:
    raise SystemExit(main())
