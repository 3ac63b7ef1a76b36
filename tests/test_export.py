"""Experiment result export tests."""

import json

import pytest

from repro.core.overhead import OverheadReport
from repro.experiments.export import (
    canonical_json,
    figure5_records,
    table1_records,
    table2_records,
    table3_records,
    to_records,
)
from repro.experiments.figure5 import Figure5Result, MethodOutcome
from repro.experiments.table1 import Table1Result, Table1Row
from repro.experiments.table2 import Table2Result, Table2Row
from repro.experiments.table3 import Table3Result


@pytest.fixture()
def table1():
    return Table1Result(platform="tx2", rows=[
        Table1Row(model="alexnet", blocks=2, ee_powerlens=1.5,
                  ee_by_method={"bim": 1.0, "fpg_g": 1.2,
                                "fpg_cg": 1.3}),
    ])


def test_table1_records(table1):
    records = table1_records(table1)
    assert len(records) == 3
    bim = next(r for r in records if r["baseline"] == "bim")
    assert bim["gain"] == pytest.approx(0.5)
    assert bim["blocks"] == 2


def test_table2_records():
    result = Table2Result(platform="agx", rows=[
        Table2Row(model="vgg19", loss_pr=-0.4, loss_pn=-0.1)])
    records = table2_records(result)
    assert records[0]["loss_pr"] == -0.4


def test_table3_records():
    result = Table3Result(platform="tx2", report=OverheadReport(
        training=[("decision model", 100.0)],
        workflow=[("clustering", 2.0)],
        dvfs_switch_overhead_s=0.05))
    records = table3_records(result)
    sections = {r["section"] for r in records}
    assert sections == {"training", "workflow", "runtime"}


def test_figure5_records():
    result = Figure5Result(platform="tx2", n_tasks=5, images=100,
                           outcomes={
                               "bim": MethodOutcome("bim", 10.0, 2.0, 10.0),
                           })
    records = figure5_records(result)
    assert records[0]["energy_j"] == 10.0
    assert records[0]["images"] == 100


def test_dispatch_unknown_type():
    with pytest.raises(TypeError):
        to_records(object())


def test_canonical_json_roundtrip(table1):
    loaded = json.loads(canonical_json(table1))
    assert len(loaded) == 3
    assert loaded[0]["model"] == "alexnet"
