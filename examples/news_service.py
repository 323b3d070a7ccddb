"""The paper's motivating scenario: a dynamic, personalised news service.

A profile engine keeps per-topic interest relations whose tuples expire:
core topics (politics) carry long lifetimes, bursty topics (elections)
short ones.  This example shows the full editorial loop:

* profiles arrive and renew as users interact (plain inserts);
* a *topic report* (GROUP BY histogram, the paper's Figure 3(a) shape) is
  materialised for the editorial dashboard, with the exact change-point
  strategy so it lives as long as the data allows;
* a *churn watchlist* -- users interested in politics but not elections
  (the paper's difference example) -- is materialised with the Theorem-3
  patch policy, so it never needs recomputation;
* expired profiles fire a trigger that asks the user to renew.

Run:  python examples/news_service.py
"""

import random

from repro import Database, ExpirationStrategy, MaintenancePolicy


def build_database(users=40, topics=(("Pol", 60), ("El", 12)), coverage=0.8,
                   seed=7):
    """One ``(uid, deg)`` profile table per topic: each user has a profile
    with probability ``coverage``, its lifetime exponential around the
    topic's mean, its degree a multiple of 5 (so GROUP BYs collide)."""
    rng = random.Random(seed)
    db = Database()
    for topic, mean_lifetime in topics:
        table = db.create_table(topic, ["uid", "deg"])
        for uid in range(1, users + 1):
            if rng.random() > coverage:
                continue
            degree = 5 * rng.randrange(20)
            lifetime = max(1, int(rng.expovariate(1.0 / mean_lifetime)))
            table.insert((uid, degree), expires_at=lifetime)
    return db


def main() -> None:
    db = build_database()

    renewal_requests = []
    db.table("Pol").triggers.register(
        "ask_renewal",
        lambda event: renewal_requests.append(event.tuple.row[0]),
    )

    # Editorial dashboard: how many users per interest level, per topic.
    histogram = (
        db.table_expr("Pol")
        .aggregate(group_by=[2], function="count",
                   strategy=ExpirationStrategy.EXACT)
        .project(2, 3)
    )
    report = db.materialise("pol_histogram", histogram,
                            policy=MaintenancePolicy.SCHRODINGER)

    # Churn watchlist: politically interested users ignoring the election.
    watchlist_expr = (
        db.table_expr("Pol").project(1).difference(db.table_expr("El").project(1))
    )
    watchlist = db.materialise("churn_watchlist", watchlist_expr,
                               policy=MaintenancePolicy.PATCH)

    print("personalised news service -- profile engine")
    print(f"  politics profiles: {len(db.table('Pol'))}")
    print(f"  election profiles: {len(db.table('El'))}")
    print(f"  watchlist texp(e): {watchlist.expiration} (patched -> never recomputes)")

    for when in (5, 10, 20, 40, 60):
        db.advance_to(when)
        top = sorted(report.read().rows(), key=lambda r: -r[1])[:3]
        watching = len(watchlist.read())
        print(
            f"  t={when:>3}: pol={len(db.table('Pol')):>3} live profiles, "
            f"top interest levels {top}, watchlist={watching}"
        )

    print(f"\nafter 60 ticks:")
    print(f"  renewal requests sent (trigger firings): {len(renewal_requests)}")
    print(f"  histogram recomputations: {report.recomputations}")
    print(f"  watchlist recomputations: {watchlist.recomputations} "
          f"(patches applied: {watchlist.patches_applied})")
    print(f"  explicit DELETEs issued anywhere: "
          f"{db.statistics.explicit_deletes}")

    # Some users renew -- a renewal is just a re-insert with a new lifetime.
    renewed = 0
    for uid in renewal_requests[:10]:
        db.table("Pol").insert((uid, 50), ttl=60)
        renewed += 1
    print(f"  {renewed} profiles renewed (plain re-inserts, lifetimes extended)")
    print(f"  politics profiles now: {len(db.table('Pol'))}")


if __name__ == "__main__":
    main()
