"""The library's immutable records: what a cold import costs, and the value
semantics (fields, equality, hashing, immutability) every caller relies on.
"""

import re
import subprocess
import sys

import pytest

from levibridge.canon import CanonicalForm, canonical_form
from levibridge.construction import (BridgeSpec, CensusClass, MarkedEdges, Residue,
                                     f_residue)
from levibridge.cuts import CutCertificate
from levibridge.graphs import Bipartition, Graph, build, petersen
from levibridge.incidence import Configuration, configuration, fano
from levibridge.twofactors import TwoFactorReport


def test_cold_cli_import_loads_neither_dataclasses_nor_inspect():
    """Every cold command pays for what `import levibridge.cli` loads;
    `dataclasses` alone would add `inspect`, `ast`, `dis` and `tokenize`."""
    code = ("import sys, levibridge.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_labels_take_no_part_in_equality_or_hashing():
    g = build(3, [(0, 1), (1, 2)], {0: "a", 1: "b", 2: "c"})
    h = Graph(3, ((0, 1), (1, 2)))
    assert h.labels is None
    assert g == h and hash(g) == hash(h)
    assert g != Graph(3, ((0, 1),)) and g != Graph(4, ((0, 1), (1, 2)))
    c = configuration(7, fano().lines, point_labels="abcdefg", line_labels="ABCDEFG")
    d = Configuration(7, fano().lines)
    assert (d.point_labels, d.line_labels) == (None, None)
    assert c == d and hash(c) == hash(d)
    assert c != Configuration(7, fano().lines[::-1])


def test_canonical_forms_differing_only_in_automorphisms_are_equal():
    cf = canonical_form(petersen())
    other = CanonicalForm(cf.certificate, cf.order, cf.color_sizes, automorphisms=(), base=())
    assert other == cf and hash(other) == hash(cf)
    assert CanonicalForm(cf.certificate, cf.order, (5, 5), cf.automorphisms, cf.base) != cf


def test_bridge_spec_keeps_its_value_semantics():
    spec = BridgeSpec.from_strings("2013", "3102")
    assert spec == BridgeSpec(alpha=(2, 0, 1, 3), beta=(3, 1, 0, 2))
    assert hash(spec) == hash(BridgeSpec((2, 0, 1, 3), (3, 1, 0, 2)))
    assert spec != BridgeSpec((2, 0, 1, 3), (3, 1, 2, 0))
    assert (spec.rank, str(spec)) == (24 * 12 + 20, "2013 3102")
    message = "beta must be a permutation of 0..3, got (0, 1, 2, 2)"
    with pytest.raises(ValueError, match=re.escape(message)):
        BridgeSpec((0, 1, 2, 3), (0, 1, 2, 2))


def test_residue_compares_by_its_fields():
    r = f_residue()
    copy = Residue(r.base, r.removed, r.open_points, r.open_lines)
    assert copy == r and hash(copy) == hash(r)
    # The slot order is a field: the same open points in reverse differ.
    assert Residue(r.base, r.removed, r.open_points[::-1], r.open_lines) != r


def _spec():
    return BridgeSpec((0, 1, 2, 3), (0, 1, 2, 3))


# Each maker returns fresh field objects, so equal records share none.
VALUE_RECORDS = [
    (Bipartition, lambda: dict(side_a=frozenset({0, 2}), side_b=frozenset({1, 3}))),
    (CutCertificate, lambda: dict(cut=((0, 1), (2, 3)), side_a=frozenset({0, 2}),
                                  side_b=frozenset({1, 3}))),
    (TwoFactorReport, lambda: dict(histogram=((1, 6), (2, 4)))),
    (CensusClass, lambda: dict(certificate=b"]???", aut_order=144, specs=(_spec(),))),
    (MarkedEdges, lambda: dict(e=(0, 1), f=((1, 2), (2, 3)), m=((3, 4),))),
]


@pytest.mark.parametrize("cls, fields", VALUE_RECORDS,
                         ids=[cls.__name__ for cls, _ in VALUE_RECORDS])
def test_value_records_compare_equal_when_their_fields_are_equal(cls, fields):
    a, b = cls(**fields()), cls(*fields().values())
    assert {name: getattr(a, name) for name in fields()} == fields()
    assert a == b and hash(a) == hash(b)
    last = list(fields())[-1]
    assert cls(**{**fields(), last: None}) != a


@pytest.mark.parametrize("record, name", [
    (Graph(2, ((0, 1),)), "n"),
    (Graph(2, ((0, 1),)), "labels"),
    (Graph(2, ((0, 1),)), "unknown"),
    (_spec(), "alpha"),
    (fano(), "lines"),
    (fano(), "point_labels"),
    (canonical_form(petersen()), "certificate"),
    (f_residue(), "base"),
    (Bipartition(frozenset({0}), frozenset({1})), "side_a"),
    (TwoFactorReport(((1, 6),)), "histogram"),
])
def test_records_are_immutable(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    if hasattr(record, name):
        with pytest.raises(AttributeError):
            delattr(record, name)
