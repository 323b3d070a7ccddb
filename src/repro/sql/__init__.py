"""SQL front end for the expiration-time engine.

The paper lists "incorporat[ing] expiration into ... the SQL framework"
as future work; this package implements that integration for a practical
subset: DDL, INSERT with ``EXPIRES AT`` / ``EXPIRES IN``, SELECT with
joins, WHERE, GROUP BY aggregates (with selectable expiration strategies),
set operations (UNION / EXCEPT / INTERSECT), materialised views with
maintenance policies, and logical-time control statements.

>>> import repro
>>> session = repro.connect()
>>> _ = session.execute("CREATE TABLE Pol (uid, deg)")
>>> _ = session.execute("INSERT INTO Pol VALUES (1, 25) EXPIRES AT 10")
>>> _ = session.execute("INSERT INTO Pol VALUES (2, 25) EXPIRES AT 15")
>>> session.query("SELECT deg FROM Pol").rows
[(25,)]

Without a session, :func:`execute_sql` runs one statement on a database.
"""

from repro.sql.ast import Statement
from repro.sql.executor import SqlResult, execute_script, execute_sql
from repro.sql.lexer import tokenize
from repro.sql.parser import parse_sql, parse_statements
from repro.sql.planner import plan_query

__all__ = [
    "Statement",
    "SqlResult",
    "execute_script",
    "execute_sql",
    "tokenize",
    "parse_sql",
    "parse_statements",
    "plan_query",
]
