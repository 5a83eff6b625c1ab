"""The package surface: lazy exports and the contract of the result types."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kwise
from kwise import (
    BuiltFamily,
    ConstructionParams,
    CoverWitness,
    GapWitness,
    OracleResult,
    Universe,
    Verdict,
    build_family,
    oracle_min_size,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


# --- the lazy package -----------------------------------------------------------


def test_exports_are_the_recorded_list():
    # a change to the package surface must edit this list
    assert kwise.__all__ == [
        "BuiltFamily", "ConstructionParams", "CoverSearcher",
        "CoverWitness", "Family", "GapWitness", "OracleResult", "SetMask", "Universe",
        "Verdict", "build_family", "check_kwise",
        "check_saturated", "complement_family", "construction_tops",
        "cube_blocks", "elements_of",
        "expected_size",
        "format_set_line", "greedy_saturate", "is_maximal_kwise",
        "make_partition", "maximal_elements", "oracle_min_size", "parse_set_line",
        "read_family", "size_table", "submasks", "verify_witness", "write_family",
    ]


def test_every_export_is_its_defining_modules_object():
    for name in kwise.__all__:
        module = importlib.import_module(f"kwise.{kwise._EXPORTS[name]}")
        assert getattr(kwise, name) is getattr(module, name), name


def test_star_import_binds_every_export():
    ns = {}
    exec("from kwise import *", ns)
    assert set(kwise.__all__) <= set(ns)
    assert all(ns[name] is getattr(kwise, name) for name in kwise.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_export"):
        kwise.no_such_export  # noqa: B018
    with pytest.raises(ImportError):
        exec("from kwise import no_such_export", {})


def test_version_and_dir():
    assert kwise.__version__ == "0.1.0"
    assert set(kwise.__all__) | {"__version__"} <= set(dir(kwise))


def test_import_loads_no_submodule():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, kwise; print(sorted(m for m in sys.modules if m.startswith('kwise')))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), check=True,
    ).stdout
    assert out == "['kwise']\n"


# --- result types ----------------------------------------------------------------

BUILT = build_family(ConstructionParams(4, 6))
ORACLE = oracle_min_size(3, Universe(3))

# (class, [(field, default or EMPTY)], one instance built positionally, its repr)
EMPTY = inspect.Parameter.empty
RESULT_TYPES = [
    (CoverWitness, [("masks", EMPTY)], CoverWitness((3, 12)), "CoverWitness(masks=(3, 12))"),
    (GapWitness, [("mask", EMPTY)], GapWitness(5), "GapWitness(mask=5)"),
    (
        Verdict,
        [("ok", EMPTY), ("witness", None), ("reason", None), ("complement_downset", None)],
        Verdict(False, GapWitness(5), "not_saturated", True),
        "Verdict(ok=False, witness=GapWitness(mask=5), reason='not_saturated', "
        "complement_downset=True)",
    ),
    (
        OracleResult,
        [("k", EMPTY), ("n", EMPTY), ("f_k_n", EMPTY), ("extremal_count", EMPTY),
         ("sample_extremal", EMPTY)],
        ORACLE,
        "OracleResult(k=3, n=3, f_k_n=4, extremal_count=3, "
        "sample_extremal=Family(n=3, size=4))",
    ),
    (
        BuiltFamily,
        [("f", EMPTY), ("blocks", EMPTY)],
        BUILT,
        "BuiltFamily(f=Family(n=6, size=10), blocks=(3, 12, 48))",
    ),
]
IDS = [c[0].__name__ for c in RESULT_TYPES]


@pytest.mark.parametrize(("cls", "fields", "obj", "text"), RESULT_TYPES, ids=IDS)
def test_fields_defaults_and_repr(cls, fields, obj, text):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == fields
    assert repr(obj) == text
    values = [getattr(obj, name) for name, _ in fields]
    assert cls(*values) == obj == cls(**dict(zip((name for name, _ in fields), values)))


@pytest.mark.parametrize(("cls", "fields", "obj", "text"), RESULT_TYPES, ids=IDS)
def test_immutable(cls, fields, obj, text):
    with pytest.raises(AttributeError):
        setattr(obj, fields[0][0], None)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert repr(obj) == text


@pytest.mark.parametrize(("cls", "fields", "obj", "text"), RESULT_TYPES, ids=IDS)
def test_equality_and_hash_see_the_class(cls, fields, obj, text):
    values = tuple(getattr(obj, name) for name, _ in fields)
    twin = cls(*values)
    assert twin == obj and not twin != obj and hash(twin) == hash(obj)
    assert obj != values and not obj == values
    assert values != obj and not values == obj
    assert len({obj, twin, values}) == 2


def test_defaults_compare_equal_to_explicit_values():
    assert Verdict(True) == Verdict(True, None, None, None)
    assert hash(Verdict(True)) == hash(Verdict(True, None, None, None))
    assert Verdict(True) != Verdict(False)
    assert Verdict(False, GapWitness(5)) != Verdict(False, GapWitness(6))


def test_witness_classes_differ_on_equal_fields():
    assert GapWitness(5) != (5,) and (5,) != GapWitness(5)
    assert GapWitness((5,)) != CoverWitness((5,))
    assert Verdict(False, GapWitness((5,))) != Verdict(False, CoverWitness((5,)))
