"""The exception hierarchy: everything catches as ReproError."""

import inspect

import pytest

import repro.errors as errors_module
from repro.errors import (
    AlgebraError,
    CatalogError,
    EngineError,
    ReproError,
    SchemaError,
    SqlError,
    SqlLexError,
    SqlParseError,
    StaleViewError,
    TimeError,
    UnionCompatibilityError,
    UnsupportedSqlError,
    ViewError,
)
from repro.sql import execute_sql


class TestHierarchy:
    def test_everything_is_a_repro_error(self):
        for name, obj in inspect.getmembers(errors_module, inspect.isclass):
            if issubclass(obj, BaseException):
                assert issubclass(obj, ReproError), name

    def test_specific_parentage(self):
        assert issubclass(UnionCompatibilityError, SchemaError)
        assert issubclass(CatalogError, EngineError)
        assert issubclass(StaleViewError, ViewError)
        assert issubclass(SqlParseError, SqlError)
        assert issubclass(SqlLexError, SqlError)
        assert issubclass(UnsupportedSqlError, SqlError)

    def test_lex_error_carries_position(self):
        error = SqlLexError("bad", 17)
        assert error.position == 17
        assert "17" in str(error)

    def test_one_catch_for_the_whole_library(self):
        from repro.engine.database import Database

        db = Database()
        db.advance_to(5)
        for bad in (
            lambda: db.table("missing"),
            lambda: execute_sql(db, "WOBBLE"),
            lambda: execute_sql(db, "SELECT nope FROM missing"),
            lambda: db.advance_to(2),  # clock moving backwards
        ):
            with pytest.raises(ReproError):
                bad()
