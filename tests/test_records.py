"""The value records keep what frozen dataclasses gave them.

`Scalar`, `PolarizationPair`, `IdentityReport` and sampling's `RngStream`,
`SampleStats` and `MomentVerdict` are `__slots__` records: fields in
order, value equality, the hash of the tuple of fields, the dataclass repr
text, no assignment, a dataclass's constructor where the base class
writes it, and their own constructors' validation.  The command line's
option checks exit 2.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from ghkernel import IdentityReport, PolarizationPair, Scalar, exact, flt, sampling
from ghkernel.cli import main
from ghkernel.identities import make_report


def test_scalar_equality_hash_and_repr():
    s = exact(Fraction(1, 2), -3)
    assert s == Scalar("exact", Fraction(1, 2), Fraction(-3))
    assert s != exact(Fraction(1, 2), 3)
    assert s != flt(0.5, -3.0)
    assert s != ("exact", Fraction(1, 2), Fraction(-3))
    assert hash(s) == hash(("exact", Fraction(1, 2), Fraction(-3)))
    assert repr(s) == "Scalar(mode='exact', re=Fraction(1, 2), im=Fraction(-3, 1))"
    assert repr(flt(-0.0, 2.5)) == "Scalar(mode='float', re=-0.0, im=2.5)"
    assert {s: 1}[exact(Fraction(2, 4), -3)] == 1


def test_scalar_is_immutable_and_validates_its_mode():
    s = exact(1, 2)
    for name in ("mode", "re", "im", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, Fraction(2))
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert s == exact(1, 2)
    with pytest.raises(ValueError, match="bogus"):
        Scalar("bogus", Fraction(1), Fraction(0))


def test_records_copy_and_pickle_by_value():
    report = make_report("rotation", {"m": "2"}, exact(1), exact(1))
    for value in (exact(Fraction(1, 3), 2), PolarizationPair(exact(5), exact(-1)), report):
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value


def test_report_and_pair_are_not_tuples_and_not_assignable():
    pair = PolarizationPair(exact(5), exact(-1))
    report = make_report("graczyk", {"M": "1"}, exact(2), exact(3))
    assert report == IdentityReport(
        "graczyk", {"M": "1"}, exact(2), exact(3), exact(-1), "exact", "fail"
    )
    assert pair == PolarizationPair(exact(5), exact(-1))
    assert pair.mode == "exact"
    for record, field in ((pair, "x"), (report, "verdict")):
        assert not isinstance(record, tuple)
        with pytest.raises(TypeError):
            len(record)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert repr(pair) == (
        "PolarizationPair(x=Scalar(mode='exact', re=Fraction(5, 1), im=Fraction(0, 1)), "
        "y=Scalar(mode='exact', re=Fraction(-1, 1), im=Fraction(0, 1)))"
    )
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)  # its params are a dict, as with the frozen dataclass


def test_sampling_records_keep_field_order():
    assert sampling.RngStream(7) == sampling.RngStream(7, 0)
    assert repr(sampling.RngStream(7, 1)) == "RngStream(seed=7, stream_id=1)"
    stats = sampling.SampleStats(10, (1.0,), (0.5,))
    assert stats.order() == 1
    verdict = sampling.MomentVerdict(1, 1.0, 1.5, -0.5, 1.0, None, True)
    assert (verdict.order, verdict.difference, verdict.z_score, verdict.passed) == (
        1, -0.5, None, True
    )
    for record in (sampling.RngStream(7), stats, verdict):
        with pytest.raises(AttributeError):
            setattr(record, "count", 3)


# Each record whose constructor the base class writes, with one value per field.
GENERATED = [
    (PolarizationPair, (exact(5), exact(-1))),
    (IdentityReport, ("graczyk", {"M": "1"}, exact(2), exact(3), exact(-1), "exact", "fail")),
    (sampling.SampleStats, (10, (1.0, 2.0), (0.5, 0.25))),
    (sampling.MomentVerdict, (1, 1.0, 1.5, -0.5, 1.0, None, True)),
]


@pytest.mark.parametrize("cls, values", GENERATED, ids=[cls.__name__ for cls, _ in GENERATED])
def test_generated_constructor_takes_fields_by_position_or_keyword(cls, values):
    assert "__init__" in vars(cls)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(cls.__slots__, values)))
    assert by_position == by_keyword
    assert tuple(getattr(by_keyword, name) for name in cls.__slots__) == values
    mixed = cls(values[0], **dict(zip(cls.__slots__[1:], values[1:])))
    assert mixed == by_position


@pytest.mark.parametrize("cls, values", GENERATED, ids=[cls.__name__ for cls, _ in GENERATED])
def test_generated_constructor_rejects_missing_extra_and_unknown_fields(cls, values):
    fields = dict(zip(cls.__slots__, values))
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(**dict(list(fields.items())[1:]))
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values[1:], **{cls.__slots__[0]: values[0]})
    with pytest.raises(TypeError):
        cls(**fields, bogus=1)


def test_hand_written_constructors_take_keywords_and_keep_their_checks():
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        Scalar(mode="bogus", re=Fraction(1), im=Fraction(0))
    assert Scalar(re=Fraction(1), im=Fraction(0), mode="exact") == exact(1)
    assert sampling.RngStream(seed=3) == sampling.RngStream(3, 0)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "matrix", "--tolerance", "1e-9"), "exact mode has no tolerance"),
        (("verify", "matrix", "--mode", "float", "--tolerance", "0"), "finite positive tolerance"),
        (("sample", "chi-merge", "--z", "inf"), "the z threshold must be finite"),
        (("sample", "chi-merge", "--count", "1"), "--count must be at least 2"),
        (("sample", "chi-merge", "--order", "0"), "--order must be at least 1"),
        (("sample", "chi-merge", "--seed", "-1"), "--seed must be a natural number"),
    ],
)
def test_each_run_config_check_exits_2(capsys, argv, message):
    assert main(list(argv)) == 2
    assert message in capsys.readouterr().err
