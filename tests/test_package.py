"""The package's export lists and record classes.

Every name a module advertises exists.  The records are
NamedTuples: they refuse assignment and keep their arrays read-only.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import speclab
from speclab.analytic import MultiIndex, QuadratureRule, gauss_legendre_rule
from speclab.probes import ProbeResult, ProbeRow, fit_scaling, probe_weyl
from speclab.sphere import ZonalFamily
from speclab.torus import LatticeShells, SmoothingWindow, lattice_shells

MODULES = sorted(info.name for info in pkgutil.iter_modules(speclab.__path__))


def test_every_module_found():
    assert {"analytic", "cli", "errors", "output", "probes", "selftest", "sphere", "torus"} <= set(
        MODULES
    )


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_star_import_works(name):
    module = importlib.import_module(f"speclab.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
    namespace = {}
    exec(f"from speclab.{name} import *", namespace)
    assert [n for n in exported if n not in namespace] == []


RECORDS = {
    "MultiIndex": lambda: MultiIndex.of(1, 0),
    "QuadratureRule": lambda: gauss_legendre_rule(4),
    "ScalingFit": lambda: fit_scaling([(1.0, 1.0), (2.0, 4.0), (3.0, 9.0)]),
    "ProbeRow": lambda: ProbeRow(abscissa=1.0, raw=2.0, ratio=None),
    "ProbeResult": lambda: ProbeResult("p", {}, [], 1.0, 2.0),
    "ZonalFamily": lambda: ZonalFamily.create(2, 3),
    "SmoothingWindow": lambda: SmoothingWindow(),
    "LatticeShells": lambda: lattice_shells(2, 5.0),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_refuse_assignment(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "extra"


def test_record_arrays_stay_read_only():
    rule = gauss_legendre_rule(4)
    fresh = QuadratureRule(nodes=np.zeros(2), weights=np.ones(2), order=2, angles=np.full(2, np.pi / 2.0))
    shells = lattice_shells(2, 5.0)
    assert isinstance(shells, LatticeShells)
    for table in (rule.nodes, rule.weights, rule.angles, fresh.nodes, fresh.weights, fresh.angles,
                  shells.values, shells.radii, shells.mult):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_probe_result_compares_by_value():
    res, again = (probe_weyl("torus", 2, [50.0, 75.0, 100.0]) for _ in range(2))
    assert res == again and res.extra is None
    assert res._replace(rows=res.rows[:1]) != again
    assert res._replace(rows=list(again.rows)) == again
    assert res._replace(predicted_limit=None) != again
    assert ProbeResult("p", {}, [], 1.0, 2.0) == ProbeResult(
        probe="p", params={}, rows=[], predicted_limit=1.0, predicted_exponent=2.0, extra=None)


def test_selftest_table_lists_every_check_once():
    # a check_* function left out of CHECKS would never run
    from speclab import selftest

    defined = [name for name in vars(selftest) if name.startswith("check_")]
    assert sorted(check.__name__ for check in selftest.CHECKS) == sorted(defined)
