"""The SQL front end against a recorded corpus.

``data/parse_golden.json`` holds, for each text of a fixed corpus, what
``parse_statements`` returned (its ``repr``) or which :class:`SqlError`
it raised (class and message, offset included).  The corpus is every
string constant of the SQL test modules, the statements the benchmark
generator sends in its two served workloads for two seeds, and the texts
the ``repro.check`` fuzzer's ``sql`` op builds.  Any change to the lexer,
the tokens or the parser must reproduce the file exactly.

To re-record (only when the dialect changes on purpose)::

    PYTHONPATH=src python -m tests.sql.test_parse_golden
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.errors import SqlError
from repro.sql.parser import parse_statements

GOLDEN = Path(__file__).with_name("data") / "parse_golden.json"
_SOURCES = Path(__file__).parent
_SEEDS = (1, 2)
_SCALE = 0.05


def outcome(text: str) -> str:
    """``repr`` of the parse, or ``"<error class>: <message>"``."""
    try:
        return repr(parse_statements(text))
    except SqlError as error:
        return f"{type(error).__name__}: {error}"


def _test_strings():
    """Every string constant in this package's modules, minus docstrings
    and the literal pieces of f-strings."""
    texts = set()
    for path in sorted(_SOURCES.glob("test_*.py")):
        if path.name == Path(__file__).name:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr):
                skip.update(id(part) for part in node.values)
            elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                skip.add(id(node.value))
        texts.update(
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in skip
        )
    return texts


def _suite_statements():
    from benchmarks.suite import generate

    texts = set()
    for seed in _SEEDS:
        read = generate.served_read(seed, _SCALE)
        texts.update(read["load"] + read["warmup"] + read["ops"])
        write = generate.served_write(seed, _SCALE)
        texts.update(write["load"])
        texts.update(sql for sql, _ in write["ops"])
    return texts


def _fuzzer_statements():
    from repro.check import stateful

    texts = {"CREATE MATERIALIZED VIEW v_group AS "
             "SELECT v, COUNT(*) FROM flat WHERE k < 5 GROUP BY v"}
    for table in stateful._TABLES:
        wheres = [""]
        for low in range(stateful._KEYS):
            high = low + 3
            wheres += [f" WHERE {low} <= k AND k < {high}",
                       f" WHERE k > {low} AND k <= {high}",
                       f" WHERE k = {low}",
                       f" WHERE k = {low + stateful._SHARDS}"]
        texts.update(f"SELECT * FROM {table}{where}" for where in wheres)
    return texts


def corpus():
    """The corpus texts, sorted."""
    return sorted(_test_strings() | _suite_statements() | _fuzzer_statements())


def write_golden(path: Path = GOLDEN) -> int:
    """Record the outcome of every corpus text; returns the count."""
    cases = [[text, outcome(text)] for text in corpus()]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cases, indent=0, ensure_ascii=True) + "\n",
                    encoding="utf-8")
    return len(cases)


def test_the_front_end_reproduces_the_golden_corpus():
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(cases) > 500
    changed = [(text, want, got) for text, want in cases
               if (got := outcome(text)) != want]
    assert not changed, changed[:3]


if __name__ == "__main__":
    print(f"{write_golden()} cases written to {GOLDEN}")
