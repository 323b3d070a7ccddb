"""Sensor monitoring with expiring samples and long-lived aggregates.

The paper's "temperature or location samples": each reading is valid until
the sensor's next sample.  The interesting part is the *aggregate* layer --
a dashboard materialises per-zone minimum temperatures, and the choice of
expiration strategy (Equation 8 vs Table 1 vs Equation 9) decides how
often the dashboard must be re-derived:

* conservative: the group tuple dies with the earliest reading in the zone,
  even when that reading does not hold the minimum;
* neutral sets / exact: the tuple lives until the minimum actually changes.

Run:  python examples/sensor_monitoring.py
"""

import random

from repro import Database, ExpirationStrategy, MaintenancePolicy


def run_fleet(db, sensors=12, base_period=6, grace=1, horizon=12, seed=3):
    """Sensor ``s`` samples every ``base_period * (1 + s % 3)`` ticks; a
    reading expires at the sensor's next sample (plus ``grace``), so the
    table always holds exactly the current readings, with no reaper."""
    rng = random.Random(seed)
    readings = db.create_table("Readings", ["sensor", "value", "taken_at"])
    for time in range(horizon + 1):
        if time > db.now.value:
            db.advance_to(time)
        for sensor in range(sensors):
            period = base_period * (1 + sensor % 3)
            if time % period == 0:
                readings.insert((sensor, rng.randint(15, 30), time),
                                expires_at=time + period + grace)
    return readings


def zone_min_expr(db, strategy):
    # Zone = sensor % 4: group readings, take the min value per zone.
    # (The modulo is precomputed into the ZoneReadings table below.)
    return (
        db.table_expr("ZoneReadings")
        .aggregate(group_by=[1], function="min", attribute=2, strategy=strategy)
        .project(1, 4)
    )


def main() -> None:
    db = Database()
    readings = run_fleet(db)

    # A derived table with an explicit zone attribute (zone, value, sensor).
    zones = db.create_table("ZoneReadings", ["zone", "value", "sensor"])
    for (sensor, value, taken_at), texp in readings.relation.items():
        zones.insert((sensor % 4, value, sensor), expires_at=texp)

    views = {}
    for strategy in (
        ExpirationStrategy.CONSERVATIVE,
        ExpirationStrategy.NEUTRAL_SETS,
        ExpirationStrategy.EXACT,
    ):
        views[strategy] = db.materialise(
            f"zone_min_{strategy.value}",
            zone_min_expr(db, strategy),
            policy=MaintenancePolicy.RECOMPUTE,
        )

    print("zone minimum temperatures at t =", db.now)
    for row in sorted(views[ExpirationStrategy.EXACT].read().rows()):
        print(f"  zone {row[0]}: min = {row[1]}")

    print("\nexpression expiration and group-tuple lifetimes per strategy:")
    horizon_cap = 60
    for strategy, view in views.items():
        materialised = db.evaluate(zone_min_expr(db, strategy))
        lifetimes = [
            texp.value if texp.is_finite else horizon_cap
            for _, texp in materialised.relation.items()
        ]
        mean_lifetime = sum(lifetimes) / len(lifetimes)
        print(f"  {strategy.value:>13}: texp(e) = {view.expiration}, "
              f"mean zone-tuple lifetime = {mean_lifetime:.1f}")

    # Let readings expire without fresh samples and count recomputations.
    horizon = 40
    for when in range(int(db.now.value) + 1, horizon):
        db.advance_to(when)
        for view in views.values():
            view.read()

    print(f"\nrecomputations while draining to t={horizon} (no new samples):")
    for strategy, view in views.items():
        print(f"  {strategy.value:>13}: {view.recomputations}")

    stale = db.statistics.explicit_deletes
    print(f"\nexplicit deletes issued while samples churned: {stale}")


if __name__ == "__main__":
    main()
