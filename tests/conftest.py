"""Shared fixtures: the paper's Figure 1 example database and friends."""

from __future__ import annotations

import pytest

from benchmarks.fixtures import figure1_database, figure1_el, figure1_pol

from repro.core.relation import Relation
from repro.engine.database import Database


@pytest.fixture
def pol() -> Relation:
    """Figure 1(a): the politics table at time 0."""
    return figure1_pol()


@pytest.fixture
def el() -> Relation:
    """Figure 1(b): the elections table at time 0."""
    return figure1_el()


@pytest.fixture
def figure1_db() -> Database:
    """A database containing the Figure 1 tables, clock at 0."""
    return figure1_database()


@pytest.fixture
def catalog(pol, el):
    """An evaluator catalog with the paper's example relations."""
    return {"Pol": pol, "El": el}


@pytest.fixture
def log_scans(monkeypatch):
    """The paths ``repro.engine.wal.scan_log`` is called with, in order."""
    from repro.engine import wal

    calls = []
    real = wal.scan_log

    def counting(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(wal, "scan_log", counting)
    return calls
