"""Layer tracing for the benchmark's traced runs, with no edit to osculant.

install() wraps each layer's public functions at every module attribute
they are bound under (``osculant.nef.nef_check``,
``osculant.families.nef_check``, ``osculant.nef_check``, ...) and the
class methods named in SPAN_METHODS and COUNTED.  Span functions record
(name, start, end, parent) into flat arrays that stay in memory until
the run ends; counted functions only bump a counter, because timing
hundreds of thousands of tiny lattice calls would distort them.
"""

import inspect
import sys
import time
from array import array

# span name -> (module, function); the criterion keys come from verify-paper
SPAN_FUNCTIONS = {
    "cli.main": ("osculant.cli", "main"),
    "cli.build_parser": ("osculant.cli", "build_parser"),
    "verify.build_sweep": ("osculant.verify", "build_sweep"),
    "families.census": ("osculant.families", "census"),
    "families.census_csv": ("osculant.families", "census_csv"),
    "families.construction_kit": ("osculant.families", "construction_kit"),
    "families.generate_nef_types": ("osculant.families", "generate_nef_types"),
    "nef.nef_check": ("osculant.nef", "nef_check"),
    "nef.scan_box": ("osculant.nef", "scan_box"),
    "nef.decompose_type": ("osculant.nef", "decompose_type"),
    "nef.verify_minimizer_claim": ("osculant.nef", "verify_minimizer_claim"),
    "nef.z_divisor": ("osculant.nef", "z_divisor"),
    "nef.linear_system_dims": ("osculant.nef", "linear_system_dims"),
    "catalog.negative_curve_catalog": ("osculant.catalog",
                                       "negative_curve_catalog"),
    "catalog.validate_char_p": ("osculant.catalog", "validate_char_p"),
    "catalog.enumerate_exceptional": ("osculant.catalog",
                                      "enumerate_exceptional"),
    "covers.genus_tilde": ("osculant.covers", "genus_tilde"),
    "covers.perp_genus_identity": ("osculant.covers", "perp_genus_identity"),
    "expr.parse": ("osculant.expr", "parse"),
    "expr.format": ("osculant.expr", "format"),
}

CRITERIA = {
    "exceptional-catalog": "criterion_exceptional_catalog",
    "negative-curve-catalog": "criterion_negative_curve_catalog",
    "pairing-closed-form": "criterion_pairing_closed_form",
    "nef-criterion-agreement": "criterion_nef_agreement",
    "family-generators": "criterion_family_generators",
    "adjunction-consistency": "criterion_adjunction",
    "dimension-formulas": "criterion_dimensions",
    "minimizer-claim": "criterion_minimizer",
    "contact-uniqueness": "criterion_contacts",
    "construction-kit": "criterion_construction_kit",
    "decomposition-uniqueness": "criterion_decomposition",
    "expression-round-trip": "criterion_expression_round_trip",
    "census-determinism": "criterion_census_determinism",
}
for _key, _fn in CRITERIA.items():
    SPAN_FUNCTIONS[f"verify.criterion.{_key}"] = ("osculant.verify", _fn)

# span name -> (module, class, method)
SPAN_METHODS = {
    "nef.lambda_spec": ("osculant.nef", "LambdaSpec", "__post_init__"),
}

# counter name -> (module, function) or (module, class, method)
COUNTED = {
    "lattice.divisor_class": ("osculant.lattice", "DivisorClass",
                              "__post_init__"),
    "lattice.dot": ("osculant.lattice", "DivisorClass", "dot"),
    "lattice.quotient_dot": ("osculant.lattice", "QuotientClass", "dot"),
    "vectors.vec4": ("osculant.vectors", "vec4"),
}

# spans whose argument repeats are counted
REPEATS = ("nef.nef_check", "nef.scan_box", "catalog.negative_curve_catalog")

# the per-layer metrics a traced run reports, in BENCHMARK.json order
SPAN_STATS = {
    "verify.build_sweep": ("s",),
    **{f"verify.criterion.{key}": ("s",) for key in CRITERIA},
    "families.census": ("s",),
    "families.census_csv": ("s",),
    "families.construction_kit": ("s",),
    "families.generate_nef_types": ("s",),
    "nef.nef_check": ("count", "s", "repeat_ratio"),
    "nef.scan_box": ("count", "s", "repeat_ratio"),
    "nef.lambda_spec": ("count", "s"),
    "nef.decompose_type": ("s",),
    "nef.verify_minimizer_claim": ("s",),
    "nef.z_divisor": ("s",),
    "nef.linear_system_dims": ("s",),
    "catalog.negative_curve_catalog": ("count", "s", "repeat_ratio"),
    "catalog.validate_char_p": ("count", "s"),
    "catalog.enumerate_exceptional": ("s",),
    "covers.genus_tilde": ("s",),
    "covers.perp_genus_identity": ("s",),
    "expr.parse": ("count", "s"),
    "expr.format": ("s",),
    "cli.build_parser": ("s",),
    "cli.main": ("s",),
}
UNITS = {"count": "count", "s": "s", "repeat_ratio": "ratio"}


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _osculant_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "osculant"
                                  or name.startswith("osculant."))]


def _rebind(original, wrapper) -> int:
    """Replace every module-level binding of original; returns how many."""
    hits = 0
    for module in _osculant_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                hits += 1
    return hits


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counters: dict[str, list[int]] = {}
        self.repeats: dict[str, list] = {}

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        repeat = None
        if name in REPEATS:
            seen: set = set()
            tally = [0]
            self.repeats[name] = [seen, tally]
            signature = inspect.signature(fn)

            def repeat(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = _freeze(tuple(bound.arguments.values()))
                if key in seen:
                    tally[0] += 1
                else:
                    seen.add(key)

        def wrapper(*args, **kwargs):
            if repeat is not None:
                repeat(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        tally = self.counters.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            tally[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for name, (module, attr) in SPAN_FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            if not _rebind(original, self.span(name, original)):
                raise RuntimeError(f"{module}.{attr} is bound nowhere")
        for name, (module, cls, attr) in SPAN_METHODS.items():
            klass = getattr(sys.modules[module], cls)
            setattr(klass, attr, self.span(name, getattr(klass, attr)))
        for name, target in COUNTED.items():
            owner = getattr(sys.modules[target[0]], target[1]) \
                if len(target) == 3 else None
            if owner is None:
                original = getattr(sys.modules[target[0]], target[1])
                _rebind(original, self.counter(name, original))
            else:
                setattr(owner, target[2],
                        self.counter(name, getattr(owner, target[2])))

    # -- results ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_start)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """(value, unit) of every metric in SPAN_STATS and COUNTED: count,
        self seconds and repeat ratio per span name, and the counters."""
        nspan = len(self.names)
        count = [0] * nspan
        total = [0.0] * nspan
        child = [0.0] * nspan
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(len(starts)):
            dur = ends[i] - starts[i]
            nid = names[i]
            count[nid] += 1
            total[nid] += dur
            par = parents[i]
            if par >= 0:
                child[names[par]] += dur
        by_name: dict[str, list] = {}
        for nid, name in enumerate(self.names):
            agg = by_name.setdefault(name, [0, 0.0])
            agg[0] += count[nid]
            agg[1] += total[nid] - child[nid]
        out: dict[str, tuple[float, str]] = {}
        for name, stats in SPAN_STATS.items():
            calls, self_s = by_name.get(name, (0, 0.0))
            for stat in stats:
                if stat == "count":
                    value = calls
                elif stat == "s":
                    value = self_s
                else:
                    value = self.repeats[name][1][0] / calls if calls else 0.0
                out[f"{name}.{stat}"] = (value, UNITS[stat])
        for name in COUNTED:
            out[f"{name}.count"] = (self.counters[name][0], "count")
        return out

    def write_spans(self, path: str) -> None:
        """Spans as four native-order arrays after a one-line name table:
        name id (int32), parent index (int32), start and end (float64)."""
        with open(path, "wb") as fh:
            fh.write(("\t".join(self.names) + "\n").encode())
            for arr in (self.span_name, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(fh)
