"""The paper's published numbers live in one module, :mod:`repro.paper`."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.paper import TABLE2, TABLE3
from repro.workload import PAPER_DATASETS, DatasetDescriptor

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Cells that used to be written twice (a report's copy and a simulator
#: input, or a descriptor field), plus a few only one report prints.
STATED_ONCE = ("0.865", "0.884", "0.893", "0.844", '"720K"', '"5.9M"',
               "13.75", "38317", "0.1716")


@pytest.mark.parametrize("literal", STATED_ONCE)
def test_each_published_number_is_stated_once(literal):
    pattern = re.compile(rf"(?<![\w.]){re.escape(literal)}(?![\w])")
    hits = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        for __ in pattern.finditer(path.read_text())
    ]
    assert hits == ["paper.py"]


def test_paper_tables_name_known_datasets():
    assert set(TABLE3) == set(PAPER_DATASETS)
    assert set(TABLE2) == {d for d in PAPER_DATASETS if not d.startswith("root")}


def test_descriptors_carry_no_paper_values():
    assert not [f.name for f in fields(DatasetDescriptor) if f.name.startswith("paper")]
