"""Experiment X13: the expiring-authorization workload at scale.

Millions of grants, refresh tokens, and lockouts whose lifecycle is
nothing but expiration times (ROADMAP item 2, DESIGN §5i).  The store
under test is :class:`repro.workloads.authz.AuthzStore`: direct grants on
a hash-partitioned columnar table answered by O(1) stored-expiration
probes, the role/group hierarchy resolved through incrementally
maintained join views, and every revocation an ``override`` -- the
last-write path that, unlike max-merge ``renew``, can *shorten* a
lifetime.

Three measured phases over a >=1M-grant store (full mode):

1. **mix** -- a 95/5 check/write interleave (the serving steady state);
2. **churn** -- renewal-heavy token refresh plus revocations and
   lockouts, with the *revocation differential* asserted inline: the
   moment an ``override`` commits, ``check()`` must deny -- zero
   violations is a hard gate, not a statistic;
3. **served** (``--served``) -- the same semantics driven through
   ``repro.connect()`` sessions as SQL (``UPDATE ... EXPIRES IN 0``),
   differentially asserted over the session boundary.

Check latency is timed here, at the caller's boundary, into a local
sample list with exact percentiles: the store only counts its checks (a
per-check timer would cost about a sixth of a check).  The report prints the
registry's ``repro_authz_checks_total`` sum beside the checks made, so
the scraped count is checked against ground truth.  The gate: zero
differential violations and sample p99 within budget.
"""

import random
import time

from repro import connect
from repro.workloads.authz import AuthzStore

try:
    from benchmarks._tables import emit
except ImportError:  # direct script execution
    from _tables import emit

RELATIONS = ("read", "write", "own", "share")
GRANT_TTL = (500, 5_000)  # uniform range, ticks
ROLES = 64
GROUPS = 32
ROLE_GRANTS_PER_ROLE = 50
MEMBERS = 2_000


def percentile(sample, q):
    """Exact q-quantile (nearest-rank) of an unsorted sample."""
    ordered = sorted(sample)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
    return ordered[rank]


def registry_checks(store):
    """The sum of the store's ``repro_authz_checks_total`` series."""
    family = store.database.metrics.get("repro_authz_checks_total")
    return sum(series.value for _, series in family.series())


def build_store(n_grants, seed=20060408):
    """A store with ``n_grants`` direct grants plus hierarchy and tokens.

    Direct-grant subjects (``u<i>``) are disjoint from hierarchy members
    (``m<i>``), so the churn phase's differential assert on a revoked
    direct grant cannot be masked by a role or group path.
    """
    rng = random.Random(seed)
    store = AuthzStore(partitions=8)
    subjects = max(1, n_grants // 10)

    def grant_stream():
        for i in range(n_grants):
            subject = f"u{i % subjects}"
            relation = RELATIONS[i % len(RELATIONS)]
            obj = f"doc{i // len(RELATIONS)}"
            yield (subject, relation, obj), rng.randint(*GRANT_TTL)

    loaded = store.load_grants(grant_stream())
    # Hierarchy: every role can do ROLE_GRANTS_PER_ROLE things; members
    # reach roles directly and through groups.
    for r in range(ROLES):
        for g in range(ROLE_GRANTS_PER_ROLE):
            store.grant_role(f"role{r}", "read", f"shared{r}_{g}", ttl=GRANT_TTL[1])
    for g in range(GROUPS):
        store.map_group_role(f"grp{g}", f"role{g % ROLES}", ttl=GRANT_TTL[1])
    for m in range(MEMBERS):
        if m % 2:
            store.assign_role(f"m{m}", f"role{m % ROLES}", ttl=GRANT_TTL[1])
        else:
            store.join_group(f"m{m}", f"grp{m % GROUPS}", ttl=GRANT_TTL[1])
    for s in range(min(subjects, 10_000)):
        store.issue_token(f"tok{s}", f"u{s}")
    store.warm_views()  # one full build now, O(delta) per insert after
    return store, loaded, subjects


def run_mix(store, ops, subjects, seed=20060409, check_share=0.95):
    """The steady state: ``ops`` operations, 95% checks / 5% writes."""
    rng = random.Random(seed)
    latencies = []
    checks = writes = allowed = 0
    db = store.database
    for i in range(ops):
        if rng.random() < check_share:
            # Half the probes target the dense grant region (hits), the
            # rest roam: hierarchy members and cold misses.
            roll = rng.random()
            if roll < 0.5:
                subject = f"u{rng.randrange(subjects)}"
                relation = RELATIONS[rng.randrange(len(RELATIONS))]
                obj = f"doc{rng.randrange(max(1, subjects // 2))}"
            elif roll < 0.75:
                subject = f"m{rng.randrange(MEMBERS)}"
                relation = "read"
                obj = f"shared{rng.randrange(ROLES)}_{rng.randrange(ROLE_GRANTS_PER_ROLE)}"
            else:
                subject = f"ghost{rng.randrange(1_000_000)}"
                relation = "read"
                obj = "doc0"
            started = time.perf_counter()
            decision = store.check(subject, relation, obj)
            latencies.append(time.perf_counter() - started)
            checks += 1
            allowed += decision
        else:
            roll = rng.random()
            subject = f"u{rng.randrange(subjects)}"
            if roll < 0.4:
                store.grant(subject, "read", f"fresh{i}", ttl=rng.randint(*GRANT_TTL))
            elif roll < 0.7:
                store.refresh_token(f"tok{rng.randrange(min(subjects, 10_000))}",
                                    f"u{rng.randrange(subjects)}")
            else:
                store.audit(subject, "access")
            writes += 1
        if i % 2_000 == 1_999:
            db.tick(1)  # keep expiration live during the run
    return {"checks": checks, "writes": writes, "allowed": allowed,
            "latencies": latencies}


def run_churn(store, rounds, subjects, seed=20060410):
    """Renewal/revocation churn with the inline revocation differential.

    Every revocation (grant override, token override, lockout insert) is
    followed *immediately* by the probe it must flip; any probe that still
    answers the old way is a differential violation.  Returns the count
    (the gate requires zero).
    """
    rng = random.Random(seed)
    violations = revocations = renewals = checks = 0
    db = store.database
    for i in range(rounds):
        # Renewal-heavy refresh-token churn: max-merge, only lengthens.
        for _ in range(8):
            tok = rng.randrange(min(subjects, 10_000))
            store.refresh_token(f"tok{tok}", f"u{tok}")
            renewals += 1
        # A revocation: pick a subject from the dense grant region.  The
        # grant may or may not still be live; after the override it must
        # read as denied either way.
        subject = f"u{rng.randrange(subjects)}"
        relation = RELATIONS[rng.randrange(len(RELATIONS))]
        obj = f"doc{rng.randrange(max(1, subjects // 2))}"
        checks += 1
        if store.check(subject, relation, obj):
            store.revoke(subject, relation, obj)
            revocations += 1
            checks += 1
            if store.check(subject, relation, obj):
                violations += 1
        # Token logout differential.
        tok = rng.randrange(min(subjects, 10_000))
        if store.token_valid(f"tok{tok}", f"u{tok}"):
            store.revoke_token(f"tok{tok}", f"u{tok}")
            revocations += 1
            if store.token_valid(f"tok{tok}", f"u{tok}"):
                violations += 1
        # Lockout: denies even a live grant, then clears by TTL alone.
        locked = f"u{rng.randrange(subjects)}"
        store.lock_out(locked, ttl=2)
        checks += 1
        if store.check(locked, "read", f"doc{rng.randrange(max(1, subjects // 2))}"):
            violations += 1  # a locked-out subject was served
        if i % 16 == 15:
            db.tick(3)  # lapse the lockouts; sweeps reclaim revoked rows
    return {"violations": violations, "revocations": revocations,
            "renewals": renewals, "checks": checks}


def run_served(store, rounds=50, seed=20060411):
    """The same differential through ``connect()`` sessions as SQL."""
    violations = 0
    rng = random.Random(seed)
    with connect(store.database) as session:
        for i in range(rounds):
            subject, obj = f"wire{i}", f"wiredoc{i}"
            session.execute(
                f"INSERT INTO Grants VALUES ('{subject}', 'read', '{obj}') "
                f"EXPIRES IN {rng.randint(*GRANT_TTL)};"
            )
            served = session.query(
                f"SELECT * FROM Grants WHERE subject = '{subject}' "
                f"AND relation = 'read' AND object = '{obj}';"
            )
            if len(served.rows or []) != 1:
                violations += 1  # the grant we just wrote wasn't served
            session.execute(
                f"UPDATE Grants EXPIRES IN 0 WHERE subject = '{subject}';"
            )
            after = session.query(
                f"SELECT * FROM Grants WHERE subject = '{subject}';"
            )
            if after.rows:
                violations += 1  # revoked over the wire, still served
    return {"violations": violations, "rounds": rounds}


def gate(n_grants, mix_ops, churn_rounds, p99_budget_s, served=False):
    started = time.perf_counter()
    store, loaded, subjects = build_store(n_grants)
    build_s = time.perf_counter() - started

    started = time.perf_counter()
    mix = run_mix(store, mix_ops, subjects)
    mix_s = time.perf_counter() - started

    churn = run_churn(store, churn_rounds, subjects)
    wire = run_served(store) if served else None

    lat = mix["latencies"]
    p50 = percentile(lat, 0.50)
    p99 = percentile(lat, 0.99)
    checks_made = mix["checks"] + churn["checks"]
    counted = registry_checks(store)

    store.database.verify(strict=True, deep=True)

    emit(
        f"Expiring authorization: {loaded:,} grants, "
        f"{mix['checks']:,} checks / {mix['writes']:,} writes",
        ["metric", "value"],
        [
            ("build (bulk load)", f"{build_s:.2f} s"),
            ("mix throughput", f"{int((mix['checks'] + mix['writes']) / mix_s):,} ops/s"),
            ("check p50 (sample)", f"{p50 * 1e6:.1f} us"),
            ("check p99 (sample)", f"{p99 * 1e6:.1f} us"),
            ("registry check count",
             f"{counted:,} (checks made: {checks_made:,})"),
            ("churn renewals / revocations",
             f"{churn['renewals']:,} / {churn['revocations']:,}"),
            ("differential violations",
             str(churn["violations"] + (wire["violations"] if wire else 0))),
        ]
        + ([("served rounds (SQL over session)", str(wire["rounds"]))] if wire else []),
    )
    violations = churn["violations"] + (wire["violations"] if wire else 0)
    return {
        "grants": loaded,
        "p50_s": p50,
        "p99_s": p99,
        "registry_checks": counted,
        "checks_made": checks_made,
        "violations": violations,
        "p99_budget_s": p99_budget_s,
        "passed": violations == 0 and p99 <= p99_budget_s,
    }


def test_authz_revocation_differential():
    # Correctness at pytest scale (latency gates run in script mode): the
    # full mix + churn with every revocation differentially asserted.
    store, loaded, subjects = build_store(5_000)
    assert loaded == 5_000
    mix = run_mix(store, 2_000, subjects)
    assert mix["checks"] > 0 and mix["allowed"] > 0
    churn = run_churn(store, 200, subjects)
    assert churn["revocations"] > 0
    assert churn["violations"] == 0
    assert registry_checks(store) == mix["checks"] + churn["checks"]
    wire = run_served(store, rounds=10)
    assert wire["violations"] == 0
    assert store.database.verify(strict=True, deep=True) == []


if __name__ == "__main__":
    import sys

    served = "--served" in sys.argv
    if "--smoke" in sys.argv:
        report = gate(n_grants=60_000, mix_ops=20_000, churn_rounds=400,
                      p99_budget_s=0.005, served=served)
    else:
        report = gate(n_grants=1_000_000, mix_ops=200_000, churn_rounds=2_000,
                      p99_budget_s=0.002, served=served)
    print(
        f"{report['grants']:,} grants: check p99 {report['p99_s'] * 1e6:.1f} us "
        f"(budget {report['p99_budget_s'] * 1e6:.0f} us), "
        f"{report['violations']} differential violation(s)"
    )
    if not report["passed"]:
        print("FAIL: authz serving gate (latency budget or a revocation was served)")
        raise SystemExit(1)
    print("OK: revocations never served after commit; p99 within budget")
