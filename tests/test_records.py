"""Laws of the record classes built on `expr.Record`: construction by
position, keyword and default; equality by class and field; hashing;
refused assignment; the dataclass `repr` format; argument errors; the
`__post_init__` validators; and fresh per-instance memos.  A fresh
interpreter also checks that the command line imports neither
`dataclasses` nor `inspect`."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffeokit.autgroups import OrbitClass
from diffeokit.bundles import PseudoBundle, build_bundle
from diffeokit.calculus import PlotForm
from diffeokit.domains import Domain, Interval
from diffeokit.expr import ExprError, ExprVec, Record
from diffeokit.fixtures import ConnectionFixture, FixtureRegistry, FormFixture
from diffeokit.linalg import AffineParts, AffineSolution
from diffeokit.spaces import (
    ConstantCert,
    EuclideanCarrier,
    GeneratorCert,
    Obstruction,
    Plot,
    SmoothMap,
    Verdict,
    euclidean_space,
    plot,
)

_property = settings(max_examples=60)

_texts = st.text(alphabet="abxy-:", max_size=4)
_points = st.none() | st.tuples(*[st.integers(-3, 3)] * 2)


@st.composite
def obstruction_args(draw):
    return {
        "kind": draw(_texts),
        "component": draw(_texts),
        "point": draw(_points),
        "detail": draw(_texts),
    }


def _by_keyword(cls, args, order):
    """cls built from keywords in the given order, leaving out those equal
    to the class default."""
    kwargs = {}
    for name in order:
        if getattr(cls, name, object()) != args[name]:
            kwargs[name] = args[name]
    return cls(**kwargs)


class TestConstruction:
    @_property
    @given(obstruction_args(), st.permutations(["kind", "component", "point", "detail"]))
    def test_position_keyword_and_default_agree(self, args, order):
        positional = Obstruction(*args.values())
        keyword = _by_keyword(Obstruction, args, order)
        assert positional == keyword
        assert hash(positional) == hash(keyword)
        assert (positional.kind, positional.component, positional.point,
                positional.detail) == tuple(args.values())

    @_property
    @given(st.sampled_from(["yes", "no", "unknown"]), obstruction_args(), _texts,
           st.permutations(["status", "certificate", "obstruction", "detail"]))
    def test_verdicts_agree_with_their_constructors(self, status, args, detail, order):
        obstruction = Obstruction(**args) if status == "no" else None
        certificate = GeneratorCert(0) if status == "yes" else None
        fields = {"status": status, "certificate": certificate,
                  "obstruction": obstruction, "detail": detail}
        built = {"yes": lambda: Verdict.yes(certificate, detail),
                 "no": lambda: Verdict.no(obstruction, detail),
                 "unknown": lambda: Verdict.unknown(detail)}[status]()
        for other in (Verdict(*fields.values()), _by_keyword(Verdict, fields, order)):
            assert other == built
            assert hash(other) == hash(built)

    def test_defaults_are_filled(self):
        assert Obstruction("k") == Obstruction("k", "", None, "")
        assert Plot(Domain.full(1), ExprVec.parse(["x0"], 1)).component == ""

    def test_a_record_hashes_as_the_tuple_of_its_fields(self):
        # set and dict order over records follow these hashes
        assert hash(GeneratorCert(3)) == hash((3,))
        assert hash(ConstantCert("a", (1,))) == hash(("a", (1,)))
        assert hash(Obstruction("k", point=(1, 2))) == hash(("k", "", (1, 2), ""))


class TestEquality:
    @_property
    @given(st.integers(-5, 5))
    def test_two_classes_with_equal_fields_differ(self, n):
        assert EuclideanCarrier(n) != GeneratorCert(n)
        assert GeneratorCert(n) != EuclideanCarrier(n)
        assert FormFixture(n) != ConnectionFixture(n)
        assert GeneratorCert(n) == GeneratorCert(n)
        assert GeneratorCert(n) != (n,)

    @_property
    @given(obstruction_args(), obstruction_args())
    def test_equality_is_field_by_field(self, a, b):
        assert (Obstruction(**a) == Obstruction(**b)) is (a == b)


class TestFrozen:
    def test_frozen_records_refuse_assignment_and_deletion(self):
        for record in (Obstruction("k"), Verdict.unknown("d"), Interval(Fraction(0), None),
                       GeneratorCert(1)):
            with pytest.raises(AttributeError):
                record.detail = "changed"
            with pytest.raises(AttributeError):
                del record.detail
            with pytest.raises(AttributeError):
                record.new_name = 1
        assert Obstruction("k").detail == ""

    def test_mutable_records_assign_and_do_not_hash(self):
        parts = AffineParts([[1]], [0])
        parts.offset = [2]
        assert parts == AffineParts([[1]], [2])
        for record in (parts, AffineSolution([], []), FixtureRegistry()):
            with pytest.raises(TypeError):
                hash(record)

    def test_mutable_defaults_are_fresh_for_each_instance(self):
        a, b = FixtureRegistry(), FixtureRegistry()
        a.spaces["x"] = None
        assert b.spaces == {}
        assert a != b
        assert not hasattr(FixtureRegistry, "spaces")

    def test_bundles_do_not_share_memos(self):
        a = build_bundle("line", euclidean_space(2, "line-E"), euclidean_space(1, "line-X"),
                         add=["x0", "x1 + x3"], scale=["x1", "x0*x2"], zero=["x0", "0"])
        b = PseudoBundle(a.name, a.total, a.base, a.base_dim, a.projection, a.add, a.scale,
                         a.zero, a.pairs)
        assert a._validated and a._charts
        assert b._validated == {} and b._morphisms == {} and b._charts == {}
        assert a._morphisms is not b._morphisms and a._charts is not b._charts
        b._morphisms["planted"] = None
        b._charts["planted"] = None
        assert "planted" not in a._morphisms and "planted" not in a._charts
        # memos take no part in equality, hashing or repr, and stay out of
        # the instance dict
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b)
        for memo in ("_morphisms", "_validated", "_charts"):
            assert memo not in repr(a) and memo not in vars(a)


class TestRepr:
    def test_repr_is_the_dataclass_format(self):
        assert repr(Obstruction("shape", point=(Fraction(1, 2),), detail="x")) == (
            "Obstruction(kind='shape', component='', point=(Fraction(1, 2),), detail='x')"
        )
        assert repr(Verdict.yes(GeneratorCert(2), "via 'g'")) == (
            "Verdict(status='yes', certificate=GeneratorCert(index=2), obstruction=None, "
            "detail=\"via 'g'\")"
        )
        assert repr(Interval(Fraction(-1), None)) == "Interval(lo=Fraction(-1, 1), hi=None)"
        assert repr(OrbitClass((0,), (), 1)) == (
            "OrbitClass(representative=(0,), members=(), fiber_dim=1)"
        )


class TestArgumentErrors:
    def test_missing_unknown_and_repeated_arguments(self):
        domain, vec = Domain.full(1), ExprVec.parse(["x0"], 1)
        for build in (
            lambda: Obstruction(),
            lambda: Plot(domain),
            lambda: Plot(map=vec, component="a"),
            lambda: Obstruction("k", colour="red"),
            lambda: Obstruction("k", kind="k"),
            lambda: Plot(domain, vec, "", "extra"),
            lambda: Interval(Fraction(0), hi=None, lo=None),
        ):
            with pytest.raises(TypeError):
                build()


class TestValidators:
    def test_post_init_validators_still_raise(self):
        with pytest.raises(ValueError, match="empty interval"):
            Interval(Fraction(1), Fraction(0))
        with pytest.raises(ExprError, match="arity"):
            Plot(Domain.full(2), ExprVec.parse(["x0"], 1))
        r1, r2 = euclidean_space(1), euclidean_space(2)
        with pytest.raises(ExprError, match="takes 1 variable"):
            SmoothMap(r1, r2, (("", "", ExprVec.parse(["x0"], 1)),))
        p = plot(Domain.full(1), ["x0"])
        with pytest.raises(ValueError, match="does not have degree"):
            PlotForm(1, 1, ((p, (((0, 1), ExprVec.parse(["x0"], 1)),)),))


class TestSubclassing:
    def test_fields_follow_annotations_and_parents(self):
        class Base(Record):
            a: int
            b: str = "b"

        class Child(Base):
            c: tuple = ()

        assert Child(1) == Child(a=1, b="b", c=())
        assert repr(Child(1, "x", (2,))) == f"{Child.__qualname__}(a=1, b='x', c=(2,))"
        assert Child(1) != Base(1)


def test_the_command_line_builds_no_dataclass():
    # dataclasses pulls in inspect, and each decorated class generated
    # and compiled its own methods: both were paid on every start
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, diffeokit.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
        "print(sorted(f'{n}.{k}' for n, m in list(sys.modules.items())\n"
        "             if n.startswith('diffeokit') for k, v in vars(m).items()\n"
        "             if isinstance(v, type) and hasattr(v, '__dataclass_fields__')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["[]", "[]"]
