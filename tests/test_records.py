"""The package's eleven records behave as frozen dataclasses did: built by
position or name, immutable, equal and hash equal field by field within one
class only, `Name(field=value, ...)` as repr, validated on construction and
with each cached property computed once."""

from fractions import Fraction as F
from functools import cached_property
from itertools import combinations

import pytest

from timesb._record import record
from timesb.bounds import BoundReport, GrowthRow, bound_report, stabilization_growth_check
from timesb.cantor import (
    CountReport,
    DigitSet,
    ExpansionInfo,
    SIntegerCertificate,
    count_report,
    enumerate_s_integers,
    expand,
)
from timesb.errors import PreconditionError
from timesb.numtheory import factorize
from timesb.orbit import OrbitDecomposition, OrbitInfo, decompose, orbit
from timesb.orders import (
    DenominatorSplit,
    OrderProfile,
    PrimeOrderStats,
    build_profile,
    split_denominator,
)

# each record as the package builds it; PrimeOrderStats from build_profile
# carries its hidden p_minus_1
SAMPLES = {
    PrimeOrderStats: lambda: build_profile(2, [3]).records[0][1],
    OrderProfile: lambda: build_profile(2, [3, 5]),
    DenominatorSplit: lambda: split_denominator(build_profile(2, [3]), 27),
    OrbitInfo: lambda: orbit(2, F(5, 27)),
    OrbitDecomposition: lambda: decompose(build_profile(2, [3]), F(1, 9)),
    DigitSet: lambda: DigitSet(3, (2, 0)),
    ExpansionInfo: lambda: expand(3, F(1, 4)),
    SIntegerCertificate: lambda: enumerate_s_integers(
        DigitSet(3, (0, 2)), build_profile(3, [2, 5])
    ),
    CountReport: lambda: count_report(DigitSet(3, (0, 2)), 50),
    BoundReport: lambda: bound_report(3, F(1, 6), F(1, 40)),
    GrowthRow: lambda: stabilization_growth_check(build_profile(2, [3, 5]))[1][0],
}
HIDDEN = {PrimeOrderStats: ("p_minus_1",)}


def fields(r) -> dict:
    return {f: getattr(r, f) for f in r.__match_args__}


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_record_is_a_frozen_value(cls):
    one, two = SAMPLES[cls](), SAMPLES[cls]()
    assert type(one) is cls and one is not two
    assert cls.__match_args__ == tuple(cls.__annotations__)
    values = fields(one)

    for name, value in [*values.items(), ("extra", 1)]:
        with pytest.raises(AttributeError):
            setattr(one, name, value)
        with pytest.raises(AttributeError):
            delattr(one, name)
    assert fields(one) == values and "extra" not in vars(one)

    assert one == two and not one != two
    # a certificate's member rows hold lists, so it hashes no more than they do
    try:
        want = hash(tuple(v for f, v in values.items() if f not in HIDDEN.get(cls, ())))
    except TypeError:
        with pytest.raises(TypeError):
            hash(one)
    else:
        assert hash(one) == hash(two) == want
    assert one != tuple(values.values())

    assert cls(*values.values()) == one == cls(**values)
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values.values(), 0)
    with pytest.raises(TypeError):
        cls(*values.values(), **{cls.__match_args__[0]: values[cls.__match_args__[0]]})
    with pytest.raises(TypeError):
        cls(**values, extra=1)

    shown = ", ".join(
        f"{f}={v!r}" for f, v in values.items() if f not in HIDDEN.get(cls, ())
    )
    assert repr(one) == f"{cls.__name__}({shown})"


def test_records_of_other_classes_never_equal():
    records = [make() for make in SAMPLES.values()]
    for a, b in combinations(records, 2):
        assert a != b and b != a and not a == b
    # same name, fields and values, another class: still unequal
    fields_only = {"__annotations__": {"d": int, "d0": int, "d1": int}}
    twin = record(type("DenominatorSplit", (), fields_only))
    split = DenominatorSplit(12, 4, 3)
    assert split == DenominatorSplit(d=12, d0=4, d1=3)
    assert repr(twin(12, 4, 3)) == repr(split) and twin(12, 4, 3) != split


def test_p_minus_1_is_hidden_from_eq_hash_and_repr():
    stats = build_profile(2, [3]).records[0][1]
    assert stats.p_minus_1 == factorize(2)
    bare = PrimeOrderStats(stats.stable_exp, stats.cap_exp, stats.order_at_stable)
    assert bare.p_minus_1 is None
    assert bare == stats and hash(bare) == hash(stats) and repr(bare) == repr(stats)
    assert repr(bare) == "PrimeOrderStats(stable_exp=1, cap_exp=1, order_at_stable=2)"


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: PrimeOrderStats(2, 1, 1), "need 1 <= n <= N"),
        (lambda: PrimeOrderStats(1, 1, 0), "order must be positive"),
        (lambda: OrderProfile(1, ()), "base must be >= 2"),
        (lambda: OrderProfile(2, ()), "prime set must be non-empty"),
        (lambda: DenominatorSplit(12, 5, 2), "invalid split"),
        (lambda: DigitSet(3, (0, 3)), "outside range 0..2"),
        (lambda: DigitSet(3, ()), "must be non-empty"),
        (lambda: DigitSet(1, (0,)), "base must be >= 2"),
        (lambda: ExpansionInfo(10, (), ()), "period must be non-empty"),
        (lambda: ExpansionInfo(3, (3,), (0,)), "digit 3 outside base 3"),
    ],
)
def test_post_init_rejects_bad_input(make, match):
    with pytest.raises(PreconditionError, match=match):
        make()


def test_digit_set_normalises_its_digits():
    ds = DigitSet(3, [2, 0, 2])
    assert ds.digits == (0, 2) and type(ds.digits) is tuple
    assert ds == DigitSet(base=3, digits=(0, 2)) and hash(ds) == hash(DigitSet(3, (2, 0)))
    assert repr(ds) == "DigitSet(base=3, digits=(0, 2))"


def test_cached_properties_are_computed_once(monkeypatch):
    seen = []
    for cls in SAMPLES:
        for name, prop in vars(cls).items():
            if isinstance(prop, cached_property):
                calls = []
                monkeypatch.setattr(
                    prop, "func", lambda self, f=prop.func, c=calls: c.append(1) or f(self)
                )
                r = SAMPLES[cls]()
                first = getattr(r, name)
                assert getattr(r, name) is first and vars(r)[name] is first
                assert len(calls) == 1
                seen.append(f"{cls.__name__}.{name}")
    assert sorted(seen) == [
        "BoundReport.den_cells",
        "BoundReport.json_row",
        "DigitSet._good",
        "DigitSet._widest_gap",
        "DigitSet.epsilon_exact",
    ]
