"""Command-line front end.

Every operation is exposed as a subcommand; run configuration comes
from flags, falling back to OSCULANT_* environment variables, then to
defaults.  Exit codes: 0 success, 1 domain error (the message carries
the violated constraint id), 2 usage error, 3 internal consistency
failure (including any verify-paper criterion failure), 141 when the
reader closes stdout before the output is written.  A handler returns
its data, or its own text, and main() alone renders it (_render).

A command runs with the cyclic garbage collector paused.  osculant's
values form no reference cycles (tests/test_collector.py), so the
collector's passes during a sweep find nothing to free; main() restores
the collector's state on every way out.  Library calls leave it alone.
"""

import argparse
import contextlib
import gc
import os
import re
import sys
from typing import NamedTuple

# modules, not names: the package loads each submodule on first use, so a
# handler's lookups load only what its subcommand needs
from . import catalog, expr, families, lattice, nef, verify
from .errors import DomainError, InternalCheckFailure

_ENV_PREFIX = "OSCULANT_"
# the flags' and the environment's choices; nef._PAIR_NOTES's readings
_PAIR_READINGS = ("factored", "literal")
# nef --mode's choices; nef._MODES
_MODES = ("closed", "brute", "both")
_OUTPUTS = ("json", "csv", "text")


class RunConfig(NamedTuple):
    char_p: int | None = None
    pair_reading: str = "factored"
    output: str = "json"
    seed: int = 0

    @classmethod
    def resolve(cls, args) -> "RunConfig":
        def pick(name: str, conv):
            value = getattr(args, name, None)
            if value is not None:
                return value
            raw = os.environ.get(_ENV_PREFIX + name.upper())
            if raw is None:
                return cls._field_defaults[name]
            try:
                return conv(raw)
            except ValueError:
                raise DomainError(
                    f"environment {_ENV_PREFIX}{name.upper()} = {raw!r} "
                    f"is not valid", constraint="run-config")

        char_p = catalog.validate_char_p(pick("char_p", int))
        reading = pick("pair_reading", str)
        if reading not in _PAIR_READINGS:
            raise DomainError(f"unknown pair reading {reading!r}",
                              constraint="pair-reading")
        output = pick("output", str)
        if output not in _OUTPUTS:
            raise DomainError(f"unknown output format {output!r}",
                              constraint="output-format")
        return cls(char_p, reading, output, pick("seed", int))


def _vec_arg(text: str) -> tuple:
    """text split on commas, each piece an int where int() reads it: the
    vector rule is vectors.vec4's, so a bad vector fails as in the library"""
    parts = text.split(",")
    for i, piece in enumerate(parts):
        try:
            parts[i] = int(piece)
        except ValueError:
            pass
    return tuple(parts)


# argparse reads '-3,2,2,2' as an option: its negative-number pattern takes
# only '-3' or '-.5'.  No subcommand option starts with '-' and a digit, so
# each argument that does is a value
_NEGATIVE = re.compile(r"-\.?\d")


def _div_json(dclass: "lattice.DivisorClass") -> dict:
    return {"c": dclass.c, "f": dclass.f, "s": list(dclass.s),
            "r": list(dclass.r), "expr": expr.format(dclass)}


# ---------------------------------------------------------------------------
# rendering


def _render(payload, output: str) -> str:
    """A command's result as text: a str as it is, data in the format"""
    if isinstance(payload, str):
        return payload
    if output == "json":
        import json  # here and in _render_text only: a CSV run never loads it
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
    import json
    if isinstance(payload, list):
        return "\n".join(json.dumps(row, sort_keys=True) for row in payload)
    return "\n".join(f"{k}: {json.dumps(v, sort_keys=True)}"
                     for k, v in payload.items())


# ---------------------------------------------------------------------------
# handlers (each returns its data or its own text, and an exit code)


def _spec(args) -> "nef.LambdaSpec":
    return nef.LambdaSpec(args.n, args.d, args.gamma)


def _family_rows(triples) -> list:
    return [{"n": n, "gamma": list(g), "eps": list(e)} for n, g, e in triples]


def _cmd_intersect(args, cfg):
    a, b = expr.parse(args.left), expr.parse(args.right)
    return {"left": expr.format(a), "right": expr.format(b),
            "value": a.dot(b)}, 0


def _cmd_genus(args, cfg):
    dclass = expr.parse(args.expr)
    return {"class": expr.format(dclass),
            "self_intersection": dclass.self_intersection(),
            "value": lattice.arithmetic_genus(dclass)}, 0


def _cmd_lambda(args, cfg):
    spec = nef.LambdaSpec(args.n, args.d, args.gamma, rho=args.rho)
    qc = nef.lambda_class(spec, cfg.char_p)
    return {
        "n": spec.n, "d": spec.d, "rho": spec.rho,
        "gamma": list(spec.gamma),
        "pullback": _div_json(qc.pullback),
        "self_intersection": qc.self_intersection(),
        "k_degree": qc.dot(lattice.K_TILDE),
        "genus": qc.genus(),
    }, 0


def _cmd_decompose(args, cfg):
    dec = nef.decompose_type(args.gamma, args.d)
    return {
        "gamma": list(args.gamma), "d": args.d,
        "mu": list(dec.mu), "eps": list(dec.eps),
        "nat_mu": list(dec.nat_mu),
        "flat_mu_set": [list(v) for v in dec.flat_mu_set],
    }, 0


def _cmd_nef(args, cfg):
    return nef.nef_check(_spec(args), mode=args.mode, p=cfg.char_p,
                         pair_reading=cfg.pair_reading).to_dict(), 0


def _cmd_minimizer(args, cfg):
    return nef.verify_minimizer_claim(_spec(args), p=cfg.char_p).to_dict(), 0


def _cmd_zdiv(args, cfg):
    return nef.z_divisor(_spec(args), p=cfg.char_p).to_dict(), 0


def _cmd_dims(args, cfg):
    # one admitted brute report, read by the two kernels; _dims raises
    # AnticanonicalDegreeTooSmall and NotNef first, so _moduli is d-1
    report = nef.nef_check(_spec(args), mode="brute", p=cfg.char_p)
    dim_l, dim_lc = nef._dims(report)
    return {"dim_lambda": dim_l, "dim_lambda_minus_co": dim_lc,
            "dim_moduli": nef._moduli(report)}, 0


def _cmd_exceptional(args, cfg):
    specs = catalog.enumerate_exceptional(args.max_sq, cfg.char_p)
    return [{"alpha": list(es.alpha), "a": es.a, "k": es.k,
             "pullback": _div_json(es.pullback())} for es in specs], 0


def _cmd_catalog(args, cfg):
    return [{"name": name, "pullback": _div_json(qc.pullback), "self": si}
            for name, qc, si in catalog.negative_curve_catalog(cfg.char_p)], 0


def _cmd_family_nef(args, cfg):
    return _family_rows(families.generate_nef_types(
        args.d, args.k, args.mu, cfg.char_p)), 0


def _cmd_family_nonnef(args, cfg):
    return _family_rows(families.generate_non_nef_types(
        args.d, args.mu, args.bound, cfg.char_p)), 0


def _cmd_kit(args, cfg):
    kit = families.construction_kit(args.d, args.mu)
    return {
        "d": kit.d, "mu": list(kit.mu), "gamma": list(kit.gamma),
        "n": kit.n, "genus": kit.genus,
        "divisors": [{"name": name, "class": _div_json(dc)}
                     for name, dc in kit.named_divisors()],
        "identities": {
            "d0_equals_d1": kit.d0 == kit.d1,
            "f_all_equal_g": all(fj == kit.g for fj in kit.f),
            "g_equals_lambda_pullback": kit.g == kit.lambda_pullback,
        },
    }, 0


def _cmd_census(args, cfg):
    records = families.census(range(1, args.n_max + 1),
                              range(1, args.d_max + 1), args.gamma_max,
                              p=cfg.char_p, pair_reading=cfg.pair_reading,
                              partitions=args.partitions)
    if cfg.output == "json":
        return families.census_json(records), 0
    return families.census_csv(records).rstrip("\n"), 0


def _cmd_verify_paper(args, cfg):
    results = verify.run_all(seed=cfg.seed, pair_reading=cfg.pair_reading)
    failures = sum(not r.passed for r in results)
    code = 3 if failures else 0
    if cfg.output == "json":
        return [{"key": r.key, "passed": r.passed, "detail": r.detail}
                for r in results], code
    lines = [r.line() for r in results]
    lines.append(f"{len(results) - failures}/{len(results)} criteria passed")
    return "\n".join(lines), code


# ---------------------------------------------------------------------------
# parser assembly


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    add = common.add_argument
    add("--char-p", dest="char_p", type=int, default=argparse.SUPPRESS,
        metavar="P", help="odd prime characteristic (default: none)")
    add("--pair-reading", dest="pair_reading",
        choices=_PAIR_READINGS, default=argparse.SUPPRESS,
        help="reading of the pairwise closed nef condition")
    add("--output", dest="output", choices=_OUTPUTS,
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
        p._negative_number_matcher = _NEGATIVE
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
            p.add_argument("--mode", choices=_MODES, default="both")

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


@contextlib.contextmanager
def collector_paused():
    """Run the block with the cyclic garbage collector off, then give
    back the state it found, however the block ends.  For code that owns
    its process, such as a command; a library call leaves it alone."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        with collector_paused():
            cfg = RunConfig.resolve(args)
            result, code = args.func(args, cfg)
            text = _render(result, cfg.output)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckFailure as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    if text:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # reader gone: quiet the final flush, exit as SIGPIPE would
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
    return code


def run() -> None:
    raise SystemExit(main())
