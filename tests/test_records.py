"""Records: the behaviour callers see, and the rule for how a record is
declared.

A record that neither validates its fields in ``__post_init__`` nor
carries a field outside its equality is a ``typing.NamedTuple``: it is
as immutable, hashable and readable as a frozen dataclass, and much
cheaper to build, since a generated frozen ``__init__`` writes every
field through ``object.__setattr__``.  The repr strings below were taken
from the frozen-dataclass declarations these records replaced.  The
frozen dataclasses that remain keep their fields in slots, which the
``__init__`` generated by ``vectors.record`` writes through the slot
descriptors; they must behave as the dataclass-generated classes did."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import osculant
from osculant import (
    C,
    Check,
    CoverInvariants,
    DegreeTooSmall,
    DivisorClass,
    DomainError,
    ExceptionalSpec,
    LambdaSpec,
    QuotientClass,
    census,
    closed_conditions,
    construction_kit,
    decompose_type,
    enumerate_exceptional,
    factorization_relations,
    gamma_perp_class,
    generate_nef_types,
    generate_non_nef_types,
    genus_tilde,
    lambda_dot_exceptional_closed,
    max_genus_dominated,
    n_for_type,
    nef_check,
    osculating_bound,
    perp_genus_identity,
    scan_box,
    thresholds,
    validate_cover,
    validate_type,
    verify_minimizer_claim,
    z_divisor,
)
from osculant.cli import RunConfig
from osculant.vectors import record
from osculant.verify import CriterionResult, build_sweep

REF = LambdaSpec(4, 2, (3, 2, 2, 2))
GAMMA_REF = (3, 2, 2, 2)


class _Index:
    """An integer-like value that is not an int."""

    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v


def _records() -> dict:
    """One instance of each NamedTuple record, built by the library."""
    report = nef_check(REF, mode="both", p=7)
    return {
        "Check": report.conditions[2],
        "Decomposition": report.decomposition,
        "BoxScan": report.scan,
        "MinimizerReport": verify_minimizer_claim(REF),
        "CensusRecord": census(range(4, 5), range(2, 3), 3)[0],
        "ExceptionalSpec": ExceptionalSpec.from_alpha((2, 1, 0, 2)),
        "ContactDivisor": z_divisor(REF),
        "CoverReport": validate_cover(
            CoverInvariants(4, 2, 4, 0, 1, 1, (3, 2, 2, 2))),
        "KitDivisors": construction_kit(2, (1, 0, 0, 0)),
        "RunConfig": RunConfig(7, "literal", "csv", 3),
        "CriterionResult": CriterionResult("k", True, "ok"),
    }


def _dc(c, f, s, r):
    return f"DivisorClass(c={c}, f={f}, s={s}, r={r})"


_LAMBDA = _dc(4, 3, "(-1, 0, 0, 0)", "(-3, -2, -2, -2)")
_D0 = _dc(4, 2, "(0, 0, 0, 0)", "(-2, -2, -2, -2)")
_ZSECOND = _dc(1, 1, "(0, -1, 0, 0)", "(-1, 0, -1, -1)")


def _check(id_, lhs, rhs, note="", informational=False):
    return (f"Check(id={id_!r}, passed=True, lhs={lhs}, rhs={rhs}, "
            f"note={note!r}, informational={informational})")


REPRS = {
    "Check": _check("eps-pair", 6, 6, "factored reading"),
    "Decomposition": (
        "Decomposition(mu=(1, 0, 0, 0), eps=(0, 1, 1, 1), "
        "nat_mu=(2, 1, 1, 1), flat_mu_set=((1, 0, 1, 1), (1, 1, 0, 1), "
        "(1, 1, 1, 0)))"),
    "BoxScan": (
        "BoxScan(min_k0=12, argmin_k0=((0, 1, 1, 1), (1, 0, 0, 0), "
        "(2, 1, 1, 1)), min_other=6, argmin_other=((1, 0, 1, 1), "
        "(1, 1, 0, 1), (1, 1, 1, 0)))"),
    "MinimizerReport": (
        "MinimizerReport(holds=True, min_value=Fraction(0, 1), "
        "argmins=((0, 1, 1, 1), (1, 0, 0, 0), (1, 0, 1, 1), (1, 1, 0, 1), "
        "(1, 1, 1, 0), (2, 1, 1, 1)), candidates=(('mu', (1, 0, 0, 0), "
        "Fraction(0, 1)), ('nat_mu', (2, 1, 1, 1), Fraction(0, 1)), "
        "('flat_mu[0]', (1, 0, 1, 1), Fraction(0, 1)), ('flat_mu[1]', "
        "(1, 1, 0, 1), Fraction(0, 1)), ('flat_mu[2]', (1, 1, 1, 0), "
        "Fraction(0, 1))), counterexamples=())"),
    "CensusRecord": (
        "CensusRecord(n=4, d=2, gamma=(3, 2, 2, 2), mu=(1, 0, 0, 0), "
        "eps=(0, 1, 1, 1), nef_closed=True, nef_brute=True, agreement=True, "
        "dim_moduli=1, genus_g=4, genus_tilde=0)"),
    "ExceptionalSpec": "ExceptionalSpec(alpha=(2, 1, 0, 2), a=4, k=1)",
    "ContactDivisor": (
        "ContactDivisor(components=(ExceptionalSpec(alpha=(1, 0, 1, 1), "
        "a=1, k=1), ExceptionalSpec(alpha=(1, 1, 0, 1), a=1, k=2), "
        "ExceptionalSpec(alpha=(1, 1, 1, 0), a=1, k=3)), anomalies=())"),
    "CoverReport": (
        "CoverReport(checks=(" + ", ".join([
            _check("rho-odd", 1, 1), _check("rho-range", 1, 3),
            _check("m-divides", 1, 0), _check("type-parity", 0, 0),
            _check("genus-le-type-sum", 9, 9), _check("quotient-genus", 0, 0),
            _check("type-norm-bound", 21, 21), _check("genus-square", 81, 81),
            _check("genus-square-weak", 81, 105,
                   "weak chain member, reported only", True),
            _check("unramified-m", 1, 1),
            _check("unramified-genus-square", 81, 81),
            _check("max-genus", 8, 14)]) + "), minimal=True)"),
    "KitDivisors": (
        "KitDivisors(d=2, mu=(1, 0, 0, 0), gamma=(3, 2, 2, 2), n=4, "
        "genus=4, "
        f"zbar={_dc(3, 1, '(-1, 0, 0, 0)', '(-2, -1, -1, -1)')}, "
        f"zunder={_dc(1, 1, '(-1, 0, 0, 0)', '(0, -1, -1, -1)')}, "
        f"zprime={_dc(3, 1, '(0, -1, 0, 0)', '(-1, -2, -1, -1)')}, "
        f"zsecond={_ZSECOND}, "
        f"z={_dc(0, 1, '(-1, 0, 0, 0)', '(-1, 0, 0, 0)')}, "
        f"zk=({_ZSECOND}, "
        f"{_dc(1, 1, '(0, 0, -1, 0)', '(-1, -1, 0, -1)')}, "
        f"{_dc(1, 1, '(0, 0, 0, -1)', '(-1, -1, -1, 0)')}), "
        f"d0={_D0}, d1={_D0}, f=({_LAMBDA},), g={_LAMBDA}, "
        f"lambda_pullback={_LAMBDA})"),
    "RunConfig": ("RunConfig(char_p=7, pair_reading='literal', "
                  "output='csv', seed=3)"),
    "CriterionResult": "CriterionResult(key='k', passed=True, detail='ok')",
}


@pytest.mark.parametrize("name", sorted(REPRS))
def test_record_repr_unchanged(name):
    rec = _records()[name]
    assert type(rec).__name__ == name
    assert repr(rec) == REPRS[name]


@pytest.mark.parametrize("name", sorted(REPRS))
def test_record_equal_hash_and_immutable(name):
    rec, again = _records()[name], _records()[name]
    assert rec == again and rec is not again
    assert hash(rec) == hash(again)
    field = type(rec)._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.extra = None
    assert getattr(rec, field) == getattr(again, field)


def test_record_defaults():
    assert Check("x", True, 1, 2) == Check("x", True, 1, 2, note="",
                                           informational=False)
    assert repr(RunConfig()) == ("RunConfig(char_p=None, "
                                 "pair_reading='factored', output='json', "
                                 "seed=0)")


def test_validated_fields_stored_as_plain_ints():
    spec = LambdaSpec(_Index(4), _Index(2), [3, 2, 2, 2], rho=_Index(1))
    assert spec == REF and hash(spec) == hash(REF)
    assert all(type(x) is int for x in (spec.n, spec.d, spec.rho))
    assert type(spec.gamma) is tuple
    assert all(type(x) is int for x in spec.gamma)
    spec = LambdaSpec(4, 2, (_Index(3), 2, 2, 2))
    assert spec == REF and all(type(x) is int for x in spec.gamma)

    cls = DivisorClass(_Index(2), _Index(-1), [1, 0, 0, _Index(0)],
                       (0, 0, 0, 0))
    assert cls == DivisorClass(2, -1, (1, 0, 0, 0))
    assert type(cls.c) is int and type(cls.f) is int
    assert type(cls.s) is tuple and type(cls.r) is tuple
    assert all(type(x) is int for x in cls.s + cls.r)
    # a valid int tuple is kept as the very object passed
    gamma = (3, 2, 2, 2)
    assert LambdaSpec(4, 2, gamma).gamma is gamma


# frozen dataclasses that neither validate in __post_init__ nor carry a
# field outside equality, each with the reason it is not a NamedTuple
ALLOWED = {
    "osculant.lattice.QuotientClass":
        "a lattice value with its own +, - and *; as a tuple it would "
        "also iterate, have a len and equal the 1-tuple of its pullback",
}


def _package_classes():
    for info in pkgutil.iter_modules(osculant.__path__):
        module = importlib.import_module(f"osculant.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield cls


def test_frozen_dataclasses_follow_the_record_rule():
    frozen = [cls for cls in _package_classes()
              if dataclasses.is_dataclass(cls)
              and cls.__dataclass_params__.frozen]
    assert frozen
    names = {f"{cls.__module__}.{cls.__qualname__}" for cls in frozen}
    stray = []
    for cls in frozen:
        # every one keeps its fields in slots and has the __init__ that
        # vectors.record generates, which writes them through the slot
        # descriptors
        assert "__slots__" in vars(cls), cls
        assert not cls.__dataclass_params__.init, cls
        name = f"{cls.__module__}.{cls.__qualname__}"
        if "__post_init__" in vars(cls) or name in ALLOWED:
            continue
        if any(not f.compare for f in dataclasses.fields(cls)):
            continue
        stray.append(name)
    assert not stray, (
        f"{stray}: a record with no __post_init__ and no compare=False "
        "field is a typing.NamedTuple")
    assert set(ALLOWED) <= names
    assert names == set(SLOTTED)


# ---------------------------------------------------------------------------
# the slotted frozen dataclasses behave as the generated ones did

SLOTTED = {
    "osculant.nef.LambdaSpec": (
        REF, {"n": 0}, DegreeTooSmall,
        "LambdaSpec(n=4, d=2, gamma=(3, 2, 2, 2), rho=1)"),
    "osculant.lattice.DivisorClass": (
        DivisorClass(4, 3, (-1, 0, 0, 0), (-3, -2, -2, -2)), {"c": True},
        DomainError, _LAMBDA),
    "osculant.lattice.QuotientClass": (
        QuotientClass(C), {"pullback": DivisorClass(c=2)}, None,
        f"QuotientClass(pullback={_dc(1, 0, '(0, 0, 0, 0)', '(0, 0, 0, 0)')})"),
    "osculant.covers.CoverInvariants": (
        CoverInvariants(4, 2, 4, 0, 1, 1, GAMMA_REF), {"g": 4.0}, DomainError,
        "CoverInvariants(n=4, d=2, g=4, g_tilde=0, rho=1, m=1, "
        "gamma=(3, 2, 2, 2))"),
    "osculant.nef.NefReport": (
        nef_check(REF, p=7), {"agreement": False}, None,
        "NefReport(verdict='nef', mode='both', failing_constraint=None, "
        "witness=None, boundary_contacts=((0, 1, 1, 1), (1, 0, 0, 0), "
        "(1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0), (2, 1, 1, 1)), "
        "agreement=True, conditions=(" + ", ".join([
            _check("eps-norm", 3, 3), _check("eps-sum", 9, 9),
            _check("eps-pair", 6, 6, "factored reading")]) + "))"),
}


@pytest.mark.parametrize("name", sorted(SLOTTED))
def test_slotted_record_is_a_frozen_value(name):
    obj, change, error, text = SLOTTED[name]
    assert f"{type(obj).__module__}.{type(obj).__qualname__}" == name
    assert not hasattr(obj, "__dict__")
    field = dataclasses.fields(obj)[0].name
    for attr in (field, "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, attr, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, attr)
    assert repr(obj) == text
    for again in (pickle.loads(pickle.dumps(obj)), copy.copy(obj),
                  copy.deepcopy(obj)):
        assert type(again) is type(obj) and again == obj
        assert hash(again) == hash(obj) and repr(again) == text
    # replace goes through __init__, so it validates again
    if error is None:
        changed = dataclasses.replace(obj, **change)
        assert all(getattr(changed, key) == value
                   for key, value in change.items())
        assert changed != obj
    else:
        with pytest.raises(error):
            dataclasses.replace(obj, **change)
    assert dataclasses.replace(obj) == obj


@pytest.mark.parametrize("name", sorted(
    name for name, (obj, *_) in SLOTTED.items()
    if "__post_init__" in vars(type(obj))))
def test_slotted_record_runs_the_class_post_init(name, monkeypatch):
    # construction looks __post_init__ up on the class at call time, so
    # a wrapper put there (as benchmarks/tracer.py does) sees every one
    obj = SLOTTED[name][0]
    cls = type(obj)
    calls = []
    original = cls.__post_init__

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    again = cls(*(getattr(obj, f.name) for f in dataclasses.fields(cls)))
    assert again == obj and calls == [again]
    dataclasses.replace(obj)
    assert len(calls) == 2


# the signatures the hand-written constructors had, which positional
# construction and dataclasses.replace rely on
SIGNATURES = {
    "osculant.nef.LambdaSpec": "(n, d, gamma, rho=1)",
    "osculant.lattice.DivisorClass": "(c=0, f=0, s=(0, 0, 0, 0), "
                                     "r=(0, 0, 0, 0))",
    "osculant.lattice.QuotientClass": "(pullback)",
    "osculant.covers.CoverInvariants": "(n, d, g, g_tilde, rho, m, gamma)",
    "osculant.nef.NefReport": (
        "(verdict, mode, failing_constraint, witness, boundary_contacts, "
        "agreement, conditions=(), spec=None, p=None, decomposition=None, "
        "scan=None, lam=None)"),
}


@pytest.mark.parametrize("name", sorted(SLOTTED))
def test_record_init_takes_the_fields_in_field_order(name):
    cls = type(SLOTTED[name][0])
    sig = inspect.signature(cls)
    assert str(sig) == SIGNATURES[name]
    assert [(p.name, p.default, p.kind)
            for p in sig.parameters.values()] == [
        (f.name,
         inspect.Parameter.empty if f.default is dataclasses.MISSING
         else f.default, inspect.Parameter.POSITIONAL_OR_KEYWORD)
        for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("name", sorted(SLOTTED))
def test_record_init_makes_no_setattr_call(name):
    # a census row makes 0 object.__setattr__ writes: the generated
    # __init__ writes the slots through their descriptors
    cls = type(SLOTTED[name][0])
    assert "__setattr__" not in cls.__init__.__code__.co_names
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


def test_record_refuses_a_hand_written_init():
    class Own:
        a: int

        def __init__(self, a):
            pass

    with pytest.raises(TypeError, match="generated from its fields"):
        record(Own)
    assert "__slots__" not in vars(Own)


def test_cover_invariants_write_back_only_what_they_coerce():
    # plain ints and an int 4-tuple are kept as the very objects passed
    gamma = (3, 2, 2, 2)
    values = (10 ** 30, 2, 10 ** 30 + 1, 0, 1, 1, gamma)
    inv = CoverInvariants(*values)
    assert all(getattr(inv, f.name) is value
               for f, value in zip(dataclasses.fields(inv), values))
    inv = CoverInvariants(_Index(4), _Index(2), _Index(4), _Index(0),
                          _Index(1), _Index(1), [_Index(3), 2, 2, 2])
    assert inv == CoverInvariants(4, 2, 4, 0, 1, 1, gamma)
    assert all(type(getattr(inv, f.name)) is int
               for f in dataclasses.fields(inv)[:6])
    assert type(inv.gamma) is tuple
    assert all(type(x) is int for x in inv.gamma)


# ---------------------------------------------------------------------------
# rows built positionally (vectors.new_row) are the rows the generated
# __new__ builds: tuple.__new__ checks neither the field count nor the
# order, so each must equal its keyword rebuild.  That catches a missing
# or extra field; swapped fields rebuild alike, and are left to the
# tests of their values.

def _same_as_rebuilt(row) -> bool:
    again = type(row)(**row._asdict())
    return (type(again) is type(row) and again == row
            and hash(again) == hash(row) and repr(again) == repr(row))


@pytest.mark.parametrize("reading", ["factored", "literal"])
def test_sweep_rows_equal_their_keyword_rebuild(reading):
    reports = build_sweep((1, 4, 3), reading)
    assert len(reports) == 10143
    for report in reports:
        assert report.conditions[2].note == f"{reading} reading"
        for row in (*report.conditions, report.decomposition, report.scan):
            assert _same_as_rebuilt(row), (report.spec, row)


def test_census_rows_equal_their_keyword_rebuild():
    rows = census(range(1, 7), range(1, 4), 15)
    assert rows
    for row in rows:
        assert _same_as_rebuilt(row), row
        report = nef_check(LambdaSpec(row.n, row.d, row.gamma))
        for part in (*report.conditions, report.decomposition, report.scan):
            assert _same_as_rebuilt(part), (row, part)


# ---------------------------------------------------------------------------
# scalar integers at the public entry points

GAMMA = (3, 2, 2, 2)
MU = (1, 0, 0, 0)
DEC = decompose_type(GAMMA, 2)

# entry point and argument -> (call with that argument as x, a valid x)
SCALARS = {
    "decompose_type-d": (lambda x: decompose_type(GAMMA, x), 2),
    "scan_box-d": (lambda x: scan_box(GAMMA, x), 2),
    "thresholds-d": (lambda x: thresholds(x), 2),
    "lambda_dot_exceptional_closed-d": (
        lambda x: lambda_dot_exceptional_closed(x, GAMMA, MU), 2),
    "closed_conditions-d": (lambda x: closed_conditions(DEC, x), 2),
    "n_for_type-d": (lambda x: n_for_type(x, GAMMA), 2),
    "genus_tilde-n": (lambda x: genus_tilde(x, 2, 1, 1, GAMMA), 4),
    "genus_tilde-d": (lambda x: genus_tilde(4, x, 1, 1, GAMMA), 2),
    "genus_tilde-rho": (lambda x: genus_tilde(4, 2, x, 1, GAMMA), 1),
    "genus_tilde-m": (lambda x: genus_tilde(4, 2, 1, x, GAMMA), 1),
    "census-gamma_bound": (lambda x: census(range(1, 4), range(1, 3), x),
                           6),
    "census-partitions": (
        lambda x: census(range(1, 4), range(1, 3), 6, partitions=x), 2),
    "enumerate_exceptional-max_sq": (lambda x: enumerate_exceptional(x), 9),
    "construction_kit-d": (lambda x: construction_kit(x, MU), 2),
    "generate_nef_types-d": (lambda x: generate_nef_types(x, 0, MU), 2),
    "generate_nef_types-k": (lambda x: generate_nef_types(2, x, MU), 1),
    "generate_non_nef_types-d": (
        lambda x: generate_non_nef_types(x, (0, 1, 1, 1), 2), 3),
    "generate_non_nef_types-bound": (
        lambda x: generate_non_nef_types(3, (0, 1, 1, 1), x), 2),
    "factorization_relations-d": (lambda x: factorization_relations(x, 1, 3),
                                  2),
    "factorization_relations-g": (lambda x: factorization_relations(2, x, 3),
                                  1),
    "factorization_relations-m": (lambda x: factorization_relations(5, 4, x),
                                  3),
    "osculating_bound-n": (lambda x: osculating_bound(x, 3), 3),
    "osculating_bound-g": (lambda x: osculating_bound(3, x), 3),
    "max_genus_dominated-n": (lambda x: max_genus_dominated(x, 1), 4),
    "max_genus_dominated-rho": (lambda x: max_genus_dominated(4, x), 3),
    "validate_type-n": (lambda x: validate_type(x, GAMMA), 4),
    "CoverInvariants-n": (
        lambda x: CoverInvariants(x, 2, 4, 0, 1, 1, GAMMA), 4),
    "CoverInvariants-d": (
        lambda x: CoverInvariants(4, x, 4, 0, 1, 1, GAMMA), 2),
    "CoverInvariants-g": (
        lambda x: CoverInvariants(4, 2, x, 0, 1, 1, GAMMA), 4),
    "CoverInvariants-g_tilde": (
        lambda x: CoverInvariants(4, 2, 4, x, 1, 1, GAMMA), 0),
    "CoverInvariants-rho": (
        lambda x: CoverInvariants(4, 2, 4, 0, x, 1, GAMMA), 1),
    "CoverInvariants-m": (
        lambda x: CoverInvariants(4, 2, 4, 0, 1, x, GAMMA), 1),
}


@pytest.mark.parametrize("bad", [2.0, True, "2"], ids=repr)
@pytest.mark.parametrize("entry", sorted(SCALARS))
def test_scalar_arguments_follow_the_coordinate_rule(entry, bad):
    call, _ = SCALARS[entry]
    with pytest.raises(DomainError) as info:
        call(bad)
    assert info.value.constraint == "vec-integer"


@pytest.mark.parametrize("entry", sorted(SCALARS))
def test_scalar_arguments_take_index_integers(entry):
    call, good = SCALARS[entry]
    assert call(_Index(good)) == call(good)


@pytest.mark.parametrize("d", [0, -1])
def test_n_for_type_needs_a_degree(d):
    with pytest.raises(DomainError) as info:
        n_for_type(d, GAMMA)
    assert info.value.constraint == "degree-min"


# scan_box and thresholds minimize over, and threshold, a degree d >= 1;
# at d <= 0 they returned "minimizers" outside the orthant alpha >= 0.
# The pairing, the closed rows, the base of a factorization and the
# genus bound returned meaningless values; the last takes n >= 1.
# Every lower bound on a degree has one owner (vectors.at_least), so it
# is a DegreeTooSmall wherever it is raised.  Each entry point checks d
# before its gamma, so a d = 0 is degree-min even when gamma is negative
# too.
KIT_MU = (0, 1, 1, 1)


@pytest.mark.parametrize("call", [
    lambda d, g: scan_box(g, d), lambda d, g: thresholds(d),
    lambda d, g: decompose_type(g, d),
    lambda d, g: lambda_dot_exceptional_closed(d, g, MU),
    lambda d, g: closed_conditions(DEC, d),
    lambda d, g: factorization_relations(d, 0, 1),
    lambda d, g: max_genus_dominated(d, 1),
    lambda d, g: n_for_type(d, g),
    lambda d, g: LambdaSpec(4, d, g),
    lambda d, g: gamma_perp_class(4, d, 1, g),
    lambda d, g: perp_genus_identity(4, d, 1, g),
    lambda d, g: generate_nef_types(d, 0, KIT_MU),
    lambda d, g: generate_non_nef_types(d, KIT_MU, 1),
    lambda d, g: construction_kit(d, KIT_MU),
    lambda d, g: census(range(1, 3), [d], 5)],
    ids=["scan_box", "thresholds", "decompose_type",
         "lambda_dot_exceptional_closed", "closed_conditions",
         "factorization_relations", "max_genus_dominated", "n_for_type",
         "LambdaSpec", "gamma_perp_class", "perp_genus_identity",
         "generate_nef_types", "generate_non_nef_types",
         "construction_kit", "census"])
@pytest.mark.parametrize("d,gamma", [
    pytest.param(0, GAMMA, id="0"), pytest.param(-1, GAMMA, id="-1"),
    pytest.param(0, (-1, 0, 0, 0), id="0-negative-gamma")])
def test_degree_entry_points_need_a_degree(call, d, gamma):
    with pytest.raises(DegreeTooSmall) as info:
        call(d, gamma)
    assert info.value.constraint == "degree-min"
