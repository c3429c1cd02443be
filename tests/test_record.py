"""The record contract every value type of the package keeps.

Records are built by position or keyword, compare and hash by their
fields (only against the same class), cannot be changed, and print in
the ``Name(field=value, ...)`` format.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import seifert
import specbuild
from seifert import (AbelianGroupStructure, ExtendedProductActionSpec, FiniteGroup, GluingMatrix,
                     GroupMap, NormalizedSymbol, Orientability, Presentation,
                     ProjectedActionDescriptor, SeifertPair, SeifertSymbol, StructureReport,
                     TauReport, TorusMapData, ValidationReport, cyclic_group)
from seifert._record import Record

F = Fraction
O1, N2 = Orientability.O1, Orientability.N2
Z2, Z3 = cyclic_group(2), cyclic_group(3)


def _field_values(record, fields):
    return tuple(getattr(record, name) for name in fields)


SPEC_FIELDS = ("symbol", "group", "theta1", "alpha", "beta", "theta2")
DESCRIPTOR_FIELDS = ("base", "group", "epsilon", "beta_bar", "theta2_bar")
REPORT_FIELDS = ("ok", "law", "witness", "message")
TAU_FIELDS = ("ok", "condition", "witness", "message")

# class -> (field names in order, field values, other field values)
EXAMPLES = {
    SeifertPair: (("q", "p"), (2, 1), (3, 1)),
    SeifertSymbol: (("genus", "orientability", "pairs"),
                    (0, O1, (SeifertPair(2, 1),)), (1, N2, ())),
    NormalizedSymbol: (("genus", "orientability", "exceptional", "b"),
                       (0, O1, (SeifertPair(2, 1),), 0), (0, O1, (), 1)),
    Presentation: (("generators", "relators"), (("a",), (((0, 2),),)), (("a", "b"), ())),
    AbelianGroupStructure: (("free_rank", "torsion"), (1, (2,)), (0, ())),
    FiniteGroup: (("table",), (Z2.table,), (Z3.table,)),
    GroupMap: (("source", "target", "images"), (Z2, Z2, (0, 1)), (Z2, Z2, (0, 0))),
    GluingMatrix: (("x", "y", "pair"), (0, -1, SeifertPair(3, 1)), (1, 2, SeifertPair(5, 2))),
    TorusMapData: (("longitude", "meridian", "sign"), (F(1, 2), F(0), 1), (F(0), F(1, 3), -1)),
    ValidationReport: (REPORT_FIELDS, (True, None, None, "ok"),
                       (False, "alpha", (1, 1), "alpha(0) != alpha(1)*alpha(1)")),
    TauReport: (TAU_FIELDS, (True, None, None, "ok"),
                (False, "half-rotation", (1,), "theta1(1) = 1/3 is not 0 or 1/2")),
    StructureReport: (("route", "rotation_order", "alpha_image_order", "shadow_order",
                       "factors", "embedding_ok"),
                      ("fiber-rotation", 2, 1, 1, "Z2 x H", True),
                      ("covering-translation", 1, 1, 2, "Z2 x H", False)),
    ExtendedProductActionSpec: (SPEC_FIELDS, _field_values(specbuild.z2_swap_spec(), SPEC_FIELDS),
                                _field_values(specbuild.z4_swap_spec(), SPEC_FIELDS)),
    ProjectedActionDescriptor: (DESCRIPTOR_FIELDS,
                                _field_values(specbuild.z2_lens_descriptor(), DESCRIPTOR_FIELDS),
                                _field_values(specbuild.z2z3_descriptor(), DESCRIPTOR_FIELDS)),
}

EXPORTED = sorted((value for value in vars(seifert).values()
                   if isinstance(value, type) and issubclass(value, Record)),
                  key=lambda cls: cls.__name__)


def test_every_value_type_is_a_record():
    assert set(EXPORTED) == set(EXAMPLES)


@pytest.mark.parametrize("cls", EXPORTED, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    fields, values, other = EXAMPLES[cls]
    record = cls(*values)
    # by position or keyword, fields stored as given
    assert cls(**dict(zip(fields, values))) == record
    assert all(getattr(record, name) is value for name, value in zip(fields, values))
    # a wrong or missing field
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError):
        cls(**dict(zip(fields, values)), unknown=None)
    # equality and hash by the fields, only within the class
    same = cls(*values)
    assert same is not record and same == record and not same != record
    assert hash(same) == hash(record)
    assert cls(*other) != record and not cls(*other) == record
    assert record != values and record.__eq__(values) is NotImplemented
    assert len({record, same, cls(*other)}) == 2
    # frozen
    with pytest.raises(AttributeError):
        setattr(record, fields[0], other[0])
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    with pytest.raises(AttributeError):
        record.unknown = None
    assert getattr(record, fields[0]) is values[0] and not hasattr(record, "unknown")
    # the dataclass repr format
    body = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(record) == f"{cls.__name__}({body})"


def test_records_of_different_classes_never_compare_equal():
    assert SeifertPair(2, 1) != (2, 1) and not SeifertPair(2, 1) == (2, 1)
    assert TauReport(True, None, None, "ok") != ValidationReport(True, None, None, "ok")


def test_pairs_sort_by_q_then_p():
    pairs = [SeifertPair(3, 1), SeifertPair(2, 1), SeifertPair(2, -1), SeifertPair(1, 5)]
    assert sorted(pairs) == [SeifertPair(1, 5), SeifertPair(2, -1), SeifertPair(2, 1),
                             SeifertPair(3, 1)]
    a, b = SeifertPair(2, 1), SeifertPair(3, -7)
    assert a < b and a <= b and b > a and b >= a and a <= SeifertPair(2, 1) >= a
    assert not (b < a or b <= a or a > b or a >= b)
    with pytest.raises(TypeError):
        a < (3, 1)
    # the check runs on keyword construction too
    with pytest.raises(ValueError):
        SeifertPair(q=2, p=4)


def test_patched_group_check_runs_at_the_next_build(monkeypatch):
    # perfbench's tracer wraps FiniteGroup.__post_init__ on the class
    built = []
    check = FiniteGroup.__post_init__

    def traced(self):
        built.append(self.table)
        check(self)

    monkeypatch.setattr(FiniteGroup, "__post_init__", traced)
    group = FiniteGroup(Z3.table)
    assert built == [group.table]
    with pytest.raises(ValueError):
        FiniteGroup(((0, 1), (0, 1)))
    assert len(built) == 2


def test_cli_import_loads_no_dataclass_machinery():
    # -S: no site hooks, so every module listed was imported by the package
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import sys, seifert.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(seifert.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_repr_past_the_digit_limit():
    # a field of more than 4300 digits, in a tuple and in a nested record
    big = 10 ** 5000 + 1
    limit = sys.get_int_max_str_digits()
    text = "1" + "0" * 4999 + "1"
    assert repr(AbelianGroupStructure(0, (big,))) == f"AbelianGroupStructure(free_rank=0, torsion=({text},))"
    assert repr(SeifertSymbol(0, O1, (SeifertPair(big, 1),))) == (
        f"SeifertSymbol(genus=0, orientability=<Orientability.O1: 'o1'>, "
        f"pairs=(SeifertPair(q={text}, p=1),))")
    # lifted for the repr alone
    assert sys.get_int_max_str_digits() == limit
