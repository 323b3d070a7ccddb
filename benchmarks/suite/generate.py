"""Seeded inputs and oracle models for the five workloads.

Pure Python, no ``repro`` import: the program under test receives only
what these functions return.  Every generator keeps a small model of the
expiration semantics (a ``row -> texp`` dict under max-merge, override,
delete and a logical clock) and ships the answers it predicts next to the
operations, so checking an output later costs one comparison and no
oracle work ever sits inside a timed interval.

Sizes are per repetition and scale linearly with ``scale`` (1.0 is 0.6 to
1.0 s of timed work per repetition on the two-core reference box).
"""

from __future__ import annotations

import random
import zlib
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

__all__ = ["GENERATORS", "digest", "stream_hash"]


def digest(rows) -> int:
    """Order-independent fingerprint of a collection of plain rows."""
    return zlib.crc32(repr(sorted(rows)).encode())


def stream_hash(job: dict) -> str:
    """Hash of everything the program will be fed (inputs, not answers)."""
    crc = 0
    for key in sorted(job):
        if key.startswith("expect"):
            continue
        crc = zlib.crc32(repr((key, job[key])).encode(), crc)
    return f"{crc:08x}"


def _zipf_cum(n: int, s: float = 1.0) -> List[float]:
    return list(accumulate(1.0 / (rank ** s) for rank in range(1, n + 1)))


def _mix(rng: random.Random, count: int, shares: Sequence[float]) -> List[int]:
    """``count`` kind indices in exactly the given proportions, shuffled.

    The seed decides the order, not how many operations of each kind a run
    gets: with independent draws a rare, expensive kind would swing a whole
    run's throughput by its sampling noise.
    """
    total = sum(shares)
    kinds = [kind for kind, share in enumerate(shares)
             for _ in range(round(count * share / total))]
    kinds = (kinds + [0] * count)[:count]  # rounding: pad with the main kind
    rng.shuffle(kinds)
    return kinds


def _values(rows: Sequence[tuple]) -> str:
    return ", ".join("(" + ", ".join(map(str, row)) + ")" for row in rows)


# -- served_read -------------------------------------------------------------

READ_ROWS = 5_000
READ_KEYS = 2_000
READ_GROUPS = 20
READ_ZIPF = 1.4  # hot enough that the median statement is a firm cache hit
READ_RANGE = 100  # keys per range select: 100 keys x 2.5 rows = 250 rows
READ_ADVANCE_EVERY = 250
READ_MIX = (85, 10, 5)  # point, range, aggregate selects
#: Aggregates run over a key prefix (about a tenth of the table), so that a
#: recomputation costs about what a missed range select costs and the tail
#: percentile is not set by how many of them a seed happens to draw.
READ_AGGREGATES = (
    ("count", 100),
    ("count", 250),
    ("count", 400),
    ("max", 150),
    ("min", 300),
    ("except", None),
)
READ_BATCH = 250


def _read_expected(kind, arg, live):
    """The model's answer for one aggregate-menu statement."""
    if kind == "except":
        left = {k for k, g, _ in live if g == 1 and k < 400}
        return [(k,) for k in left - {k for k, g, _ in live if g == 2}]
    groups: Dict[int, list] = {}
    for k, g, v in live:
        if arg is None or k < arg:
            groups.setdefault(g, []).append(v)
    fold = {"count": len, "max": max, "min": min}[kind]
    return [(g, fold(vs)) for g, vs in groups.items()]


def _read_sql(kind, arg) -> str:
    if kind == "except":
        return ("SELECT k FROM R WHERE g = 1 AND k < 400 EXCEPT "
                "SELECT k FROM R WHERE g = 2 AND k < 400")
    call = "COUNT(*)" if kind == "count" else f"{kind.upper()}(v)"
    where = "" if arg is None else f" WHERE k < {arg}"
    return f"SELECT g, {call} FROM R{where} GROUP BY g"


def served_read(seed: int, scale: float) -> dict:
    """Point, range and aggregate selects over a static expiring table."""
    rng = random.Random(seed)
    statements = max(60, int(1_200 * scale))
    warmup = max(20, int(150 * min(scale, 1.0)))
    rows = [(rng.randrange(READ_KEYS), i % READ_GROUPS, i)
            for i in range(READ_ROWS)]
    texp: Dict[tuple, int] = {}
    load = ["CREATE TABLE R (k, g, v)"]
    for start in range(0, READ_ROWS, READ_BATCH):
        # A fixed ladder of lifetimes (2, 4, .. 40 ticks): which rows die is
        # the seed's choice, how many die at each tick is not.
        ttl = 2 + 2 * (start // READ_BATCH)
        batch = rows[start:start + READ_BATCH]
        load.append(f"INSERT INTO R VALUES {_values(batch)} EXPIRES IN {ttl}")
        for row in batch:
            texp[row] = ttl  # the server's clock starts at 0
    by_key: Dict[int, list] = {}
    for row in rows:
        by_key.setdefault(row[0], []).append(row)
    keys = list(range(READ_KEYS))
    rng.shuffle(keys)  # Zipf rank -> key, so hot keys are spread out
    cum = _zipf_cum(READ_KEYS, READ_ZIPF)
    now = 0

    def statement(kind):
        if kind == 0:
            key = rng.choices(keys, cum_weights=cum)[0]
            sql = f"SELECT k, g, v FROM R WHERE k = {key}"
            answer = [r for r in by_key.get(key, ()) if texp[r] > now]
        elif kind == 1:
            low = rng.randrange(READ_KEYS - READ_RANGE)
            sql = (f"SELECT k, v FROM R WHERE k >= {low} "
                   f"AND k < {low + READ_RANGE}")
            answer = [(r[0], r[2]) for key in range(low, low + READ_RANGE)
                      for r in by_key.get(key, ()) if texp[r] > now]
        else:
            kind, arg = READ_AGGREGATES[rng.randrange(len(READ_AGGREGATES))]
            sql = _read_sql(kind, arg)
            live = [r for r in rows if texp[r] > now]
            answer = _read_expected(kind, arg, live)
        return sql, (len(answer), digest(answer))

    warm = [statement(kind)[0] for kind in _mix(rng, warmup, READ_MIX)]
    ops, expect = [], []
    kinds = iter(_mix(rng, statements, READ_MIX))
    for i in range(statements):
        if i % READ_ADVANCE_EVERY == READ_ADVANCE_EVERY - 1:
            now += 1
            ops.append("ADVANCE BY 1")
            expect.append(None)
        else:
            sql, answer = statement(next(kinds))
            ops.append(sql)
            expect.append(answer)
    return {"workload": "served_read", "load": load, "warmup": warm,
            "ops": ops, "expect": expect, "op_count": len(ops)}


# -- served_write ------------------------------------------------------------

WRITE_KEYS = 60
WRITE_GROUPS = 8
WRITE_PRELOAD = 100
#: Lifetimes in ticks, one tick per ten statements: a row lives some 20
#: statements, so the table holds ~100 rows and a view refresh (two per
#: statement) costs about what the statement's own rows cost in table
#: mutation, WAL append and sweep.  With the lifetimes of minutes a read
#: workload would use, view recomputation was over half of the traced time
#: and the write path proper under 5 % of it.
WRITE_TTL = (1, 4)
WRITE_TICK_EVERY = 10
WRITE_PROBE_EVERY = 20
#: Rows per INSERT, uniform: no single- versus multi-row cliff for the
#: median latency to sit on.
WRITE_INSERT_ROWS = (1, 16)
#: INSERT, RENEW, UPDATE .. EXPIRES IN 0 (revoke), DELETE
WRITE_MIX = (75, 8, 7, 5)
WRITE_VIEWS = (
    ("w_sel", "SELECT k, v FROM W WHERE g = 3"),
    ("w_cnt", "SELECT g, COUNT(*) FROM W WHERE k < 12 GROUP BY g"),
    ("p_view", "SELECT id FROM P"),
)


def served_write(seed: int, scale: float) -> dict:
    """Inserts, renewals, revocations and deletes under two live views.

    Each op is ``(sql, probe id or None)``; ``expect`` holds the row count
    the model predicts for a write and ``(rows, digest)`` for the SELECT
    that follows every revocation and must not see the revoked rows.
    """
    rng = random.Random(seed)
    statements = max(60, int(1_000 * scale))
    now = 0
    model: Dict[tuple, int] = {}
    serial = iter(range(10 ** 9))

    def insert(count, ttl):
        batch = [(rng.randrange(WRITE_KEYS), rng.randrange(WRITE_GROUPS),
                  next(serial)) for _ in range(count)]
        for row in batch:
            model[row] = now + ttl
        return f"INSERT INTO W VALUES {_values(batch)} EXPIRES IN {ttl}"

    def victims(key):
        return [r for r, t in model.items() if r[0] == key and t > now]

    load = ["CREATE TABLE W (k, g, v)", "CREATE TABLE P (id)",
            insert(WRITE_PRELOAD, WRITE_TTL[1])]
    load += [f"CREATE MATERIALIZED VIEW {name} AS {query}"
             for name, query in WRITE_VIEWS]
    ops, expect, rows_acked = [], [], WRITE_PRELOAD
    kinds = iter(_mix(rng, statements, WRITE_MIX))
    while len(ops) < statements:
        i = len(ops)
        if i % WRITE_PROBE_EVERY == WRITE_PROBE_EVERY - 1:
            ops.append((f"INSERT INTO P VALUES ({i}) EXPIRES IN 5", i))
            expect.append(1)
            rows_acked += 1
            continue
        if i % WRITE_TICK_EVERY == WRITE_TICK_EVERY // 2:
            now += 1
            ops.append(("ADVANCE BY 1", None))
            expect.append(None)
            continue
        kind = next(kinds)
        key = rng.randrange(WRITE_KEYS)
        ttl = rng.randint(*WRITE_TTL)
        if kind == 0:
            count = rng.randint(*WRITE_INSERT_ROWS)
            ops.append((insert(count, ttl), None))
            expect.append(count)
            rows_acked += count
            continue
        hit = victims(key)
        expect.append(len(hit))
        if kind == 1:
            for row in hit:
                model[row] = max(model[row], now + ttl)
            ops.append((f"RENEW W EXPIRES IN {ttl} WHERE k = {key}", None))
        elif kind == 2:
            for row in hit:
                model[row] = now  # override to now: dead at once
            ops.append((f"UPDATE W EXPIRES IN 0 WHERE k = {key}", None))
            # The revocation differential, as the statement a caller would
            # send next: the key reads empty.
            ops.append((f"SELECT k, g, v FROM W WHERE k = {key}", None))
            expect.append((0, digest([])))
        else:
            for row in hit:
                del model[row]
            ops.append((f"DELETE FROM W WHERE k = {key}", None))
    final = [r for r, t in model.items() if t > now]
    return {"workload": "served_write", "load": load, "ops": ops,
            "views": [name for name, _ in WRITE_VIEWS],
            "expect": expect, "expect_final": (len(final), digest(final)),
            "rows_acked": rows_acked, "op_count": len(ops)}


# -- authz_mix ---------------------------------------------------------------

AUTHZ_RELATIONS = ("read", "write", "own", "share")
AUTHZ_ROLES = 64
AUTHZ_GROUPS = 32
AUTHZ_ROLE_GRANTS = 50
AUTHZ_MEMBERS = 2_000
AUTHZ_TICK_EVERY = 2_000
AUTHZ_ASSIGN_EVERY = 5_000
#: 90 % checks (direct, hierarchy, unknown, revoked/locked/expired), 10 %
#: writes (grant, renew_grant, refresh_token, revoke, lock_out, audit)
AUTHZ_MIX = (54, 13.5, 13.5, 9, 4, 1.5, 1.5, 1.5, 0.5, 1)
AUTHZ_LONG_TTL = (500, 5_000)
# op codes shared with the worker
CHECK, GRANT, RENEW, REFRESH, REVOKE, LOCK, AUDIT, TICK, ASSIGN = range(9)
# check classes (span names in the traced run)
DIRECT, HIERARCHY, DENY = range(3)


def _member_role(member: int) -> int:
    """Odd members hold a role directly, even ones through their group."""
    return member % AUTHZ_ROLES if member % 2 else member % AUTHZ_GROUPS


def authz_mix(seed: int, scale: float) -> dict:
    """90 % checks / 10 % writes against a dict model of the store."""
    rng = random.Random(seed)
    n_ops = max(2_000, int(110_000 * scale))
    n_grants = max(2_000, int(60_000 * min(scale, 1.0)))
    subjects = n_grants // 10
    tokens = min(subjects, 10_000)
    now = 0
    grants: Dict[tuple, int] = {}
    by_subject: Dict[int, list] = {}
    short: List[tuple] = []
    load = []
    for i in range(n_grants):
        key = (f"u{i % subjects}", AUTHZ_RELATIONS[i % 4], f"doc{i // 4}")
        # One grant in twenty is short-lived, so expiry denies during the run.
        ttl = rng.randint(3, 60) if i % 20 == 0 else rng.randint(*AUTHZ_LONG_TTL)
        grants[key] = ttl
        by_subject.setdefault(i % subjects, []).append(key)
        if i % 20 == 0:
            short.append(key)
        load.append((key, ttl))
    role_objects = {(f"role{r}", f"shared{r}_{g}")
                    for r in range(AUTHZ_ROLES) for g in range(AUTHZ_ROLE_GRANTS)}
    member_role = {f"m{m}": f"role{_member_role(m)}" for m in range(AUTHZ_MEMBERS)}
    members = list(member_role)
    locks: Dict[str, int] = {}
    revoked: List[tuple] = []
    locked: List[int] = []
    cum = _zipf_cum(subjects)
    order = list(range(subjects))
    rng.shuffle(order)
    # Pre-draw the Zipf subjects in one vectorised call.
    draws = iter(rng.choices(order, cum_weights=cum, k=n_ops + 16))

    def decide(key):
        subject, relation, obj = key
        if locks.get(subject, 0) > now:
            return False, DENY
        if grants.get(key, 0) > now:
            return True, DIRECT
        role = member_role.get(subject)
        if role is not None and relation == "read" and (role, obj) in role_objects:
            return True, HIERARCHY
        return False, DENY

    ops, expect = [], []

    def check(key):
        allowed, cls = decide(key)
        ops.append((CHECK, key[0], key[1], key[2], cls))
        expect.append(allowed)

    def hot_grant():
        return rng.choice(by_subject[next(draws)])

    kinds = iter(_mix(rng, n_ops, AUTHZ_MIX))
    while len(ops) < n_ops:
        if len(ops) % AUTHZ_TICK_EVERY == AUTHZ_TICK_EVERY - 1:
            now += 1
            ops.append((TICK, 1, None, None, None))
            expect.append(None)
            continue
        if len(ops) % AUTHZ_ASSIGN_EVERY == AUTHZ_ASSIGN_EVERY // 5:
            # A membership insert: the incremental join view absorbs it as
            # a delta (milliseconds each, hence rare), and later hierarchy
            # checks can land on the new member.
            member = f"n{len(ops)}"
            role = f"role{rng.randrange(AUTHZ_ROLES)}"
            member_role[member] = role
            members.append(member)
            ops.append((ASSIGN, member, role, None, AUTHZ_LONG_TTL[1]))
            expect.append(None)
            continue
        kind = next(kinds)
        ttl = rng.randint(*AUTHZ_LONG_TTL)
        if kind == 0:  # a hot subject's own grant: allowed unless it lapsed
            check(hot_grant())
        elif kind == 1:  # through the role or group chain
            member = rng.choice(members)
            role = member_role[member]
            check((member, "read",
                   f"shared{role[4:]}_{rng.randrange(AUTHZ_ROLE_GRANTS)}"))
        elif kind == 2:  # a subject nobody has heard of
            check((f"ghost{rng.randrange(10 ** 6)}", "read", "doc0"))
        elif kind == 3:  # revoked, locked out or expired
            pick = rng.random()
            if pick < 0.4 and revoked:
                check(rng.choice(revoked))
            elif pick < 0.7 and locked:
                check(rng.choice(by_subject[rng.choice(locked)]))
            else:
                check(rng.choice(short))
        elif kind == 4:
            subject = next(draws)
            key = (f"u{subject}", "read", f"fresh{len(ops)}")
            grants[key] = max(grants.get(key, 0), now + ttl)
            by_subject[subject].append(key)
            ops.append((GRANT, *key, ttl))
            expect.append(None)
        elif kind == 5:
            key = hot_grant()
            grants[key] = max(grants.get(key, 0), now + ttl)
            ops.append((RENEW, *key, ttl))
            expect.append(None)
        elif kind == 6:
            token = rng.randrange(tokens)
            ops.append((REFRESH, f"tok{token}", f"u{token}", None, None))
            expect.append(None)
        elif kind == 7:
            key = hot_grant()
            grants[key] = now  # override to now, never max-merge
            revoked.append(key)
            ops.append((REVOKE, *key, None))
            expect.append(None)
            check(key)  # the differential: it must deny at once
        elif kind == 8:
            subject = rng.randrange(subjects)
            ttl = rng.randint(2, 4)
            locks[f"u{subject}"] = max(locks.get(f"u{subject}", 0), now + ttl)
            locked.append(subject)
            ops.append((LOCK, f"u{subject}", ttl, None, None))
            expect.append(None)
        else:
            ops.append((AUDIT, f"u{rng.randrange(subjects)}", "access",
                        None, None))
            expect.append(None)
    return {"workload": "authz_mix", "load": load, "subjects": subjects,
            "tokens": tokens, "ops": ops, "expect": expect,
            "op_count": len(ops)}


# -- stream_ingest -----------------------------------------------------------

STREAM_TTL = (2, 40)
STREAM_PER_TICK = 200
STREAM_IDLE_TIMEOUT = 25
STREAM_TOLERANCE = 32
STREAM_READ_EVERY = 10
#: A multiple of the read interval: the oracle checks the read round that
#: has just run rather than reading the standing queries itself.
STREAM_ORACLE_EVERY = 2_000
STREAM_KEPT = 64
STREAM_VALUES = 10_000
#: Ticks between generations of the two events that carry the extent's
#: endpoints (one below, one above every other value).  Each generation
#: outlives the next one's arrival by a tick, so the extent query rescans
#: once per generation: how many of these 20 ms refreshes a run gets is
#: fixed, where with random endpoints it swung 12..21 with the seed and
#: the run's throughput by 13 %.
STREAM_EXTENT_EVERY = 10
INGEST, CONN, TOUCH, STICK, READ, ORACLE = range(6)


def stream_ingest(seed: int, scale: float) -> dict:
    """Event ingest beside standing-query reads and an idle-timeout table."""
    rng = random.Random(seed)
    events = max(1_000, int(16_000 * scale))
    keys = max(64, events // 100)
    kept = [(f"10.0.0.{i}", "10.9.9.9", 443) for i in range(STREAM_KEPT)]
    idle: List[tuple] = []
    ops: List[tuple] = [(CONN, conn) for conn in kept]

    def endpoints(generation):
        ttl = STREAM_EXTENT_EVERY + 1
        return [(INGEST, (-1 - generation, -1), ttl),
                (INGEST, (-1 - generation, STREAM_VALUES), ttl)]

    ops += endpoints(0)
    # Idle connections stop arriving early enough that every one of them
    # has timed out by the end; kept ones are touched every few ticks.
    idle_until = events - (STREAM_IDLE_TIMEOUT + 3) * STREAM_PER_TICK
    cursor = 0
    kinds = _mix(rng, events, (85, 15))  # Events ingest, Conns traffic
    for i in range(events):
        if kinds[i] == 0:
            ops.append((INGEST, (rng.randrange(keys),
                                 rng.randrange(STREAM_VALUES)),
                        rng.randint(*STREAM_TTL)))
        elif i < idle_until and rng.random() < 0.2:
            conn = (f"172.16.{len(idle) // 250}.{len(idle) % 250}", "10.9.9.9", 80)
            idle.append(conn)
            ops.append((CONN, conn))
        else:
            ops.append((TOUCH, kept[cursor % STREAM_KEPT]))
            cursor += 1
        if i % STREAM_PER_TICK == STREAM_PER_TICK - 1:
            ops.append((STICK,))
            tick = i // STREAM_PER_TICK + 1
            if tick % STREAM_EXTENT_EVERY == 0:
                ops += endpoints(tick)
        if i % STREAM_READ_EVERY == STREAM_READ_EVERY - 1:
            ops.append((READ,))
        if i % STREAM_ORACLE_EVERY == STREAM_ORACLE_EVERY - 1:
            ops.append((ORACLE,))
    arrivals = sum(op[0] in (INGEST, CONN, TOUCH) for op in ops)
    return {"workload": "stream_ingest", "ops": ops, "kept": kept,
            "idle": idle, "op_count": arrivals, "sample_seed": seed}


# -- crash_recovery ----------------------------------------------------------

CRASH_TABLES = ("A", "B", "C")  # row, columnar, 4-way partitioned
CRASH_TICK_EVERY = 500
CRASH_TXN_ROWS = 50
INS, REN, OVR, DEL, CTICK = range(5)


def crash_recovery(seed: int, scale: float) -> dict:
    """A snapshot plus a log tail, and the state a recovery must rebuild."""
    rng = random.Random(seed)
    snapshot_rows = max(600, int(15_000 * scale))
    tail_records = max(300, int(7_500 * scale))
    now = 0
    model: Dict[str, Dict[tuple, int]] = {name: {} for name in CRASH_TABLES}
    known: List[Tuple[str, tuple]] = []
    serial = iter(range(10 ** 9))

    def fresh():
        name = CRASH_TABLES[rng.randrange(3)]
        return name, (next(serial), rng.randrange(200))

    base = []
    for _ in range(snapshot_rows):
        name, row = fresh()
        ttl = rng.randint(100, 5_000)
        model[name][row] = ttl
        known.append((name, row))
        base.append((name, row, ttl))
    tail = []
    ticks_left = tail_records // CRASH_TICK_EVERY
    kinds = _mix(rng, tail_records, (60, 15, 10, 5))  # insert/renew/override/delete
    for i in range(tail_records):
        if i % CRASH_TICK_EVERY == CRASH_TICK_EVERY - 1:
            now += 1
            ticks_left -= 1
            tail.append((CTICK, None, None, 1))
            continue
        if kinds[i] == 0:
            name, row = fresh()
            # A third of the inserts lapse before the final clock.
            ttl = rng.randint(1, max(1, ticks_left)) if rng.random() < 1 / 3 \
                else rng.randint(100, 5_000)
            model[name][row] = now + ttl
            known.append((name, row))
            tail.append((INS, name, row, ttl))
            continue
        name, row = known[rng.randrange(len(known))]
        ttl = rng.randint(50, 5_000)
        current = model[name].get(row)
        if kinds[i] == 1:
            # renew is a max-merge insert: it also re-admits a deleted row
            model[name][row] = max(current or 0, now + ttl)
            tail.append((REN, name, row, ttl))
        elif kinds[i] == 2:
            model[name][row] = now + ttl
            tail.append((OVR, name, row, ttl))
        else:
            if current is not None and current > now:
                del model[name][row]
            tail.append((DEL, name, row, None))
    txn = [("A", (next(serial), 7)) for _ in range(CRASH_TXN_ROWS)]
    live = {name: [(row, t) for row, t in rows.items() if t > now]
            for name, rows in model.items()}
    return {
        "workload": "crash_recovery", "base": base, "tail": tail, "txn": txn,
        "expect_now": now,
        "expect_tables": {name: (len(rows), digest(rows))
                          for name, rows in live.items()},
        "live_rows": sum(len(rows) for rows in live.values()),
        "op_count": snapshot_rows + tail_records,
    }


GENERATORS = {
    "served_read": served_read,
    "served_write": served_write,
    "authz_mix": authz_mix,
    "stream_ingest": stream_ingest,
    "crash_recovery": crash_recovery,
}
