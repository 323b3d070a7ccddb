"""Plan shipping, snapshots, and offline answers -- the extension tour.

A field device works against a snapshot of the central database.  It

1. receives the central database as a JSON snapshot (persistence),
2. receives the *query plan* it should maintain as serialised algebra
   (plan shipping -- the loosely-coupled pattern the paper motivates),
3. answers local queries from its materialisation alone: a query outside
   the validity set moves back to the nearest valid time (Section 3.3) --
   slightly stale answers are fine, contacting the server is expensive,
4. keeps a second view fresh under live inserts with the incremental
   maintainer.

Run:  python examples/plan_shipping.py
"""

import json
import tempfile
from pathlib import Path

from repro import (
    Database,
    MaintenancePolicy,
    evaluate,
    load_database,
    save_database,
)
from repro.core.algebra.serde import expression_from_dict, expression_to_dict
from repro.core.validity import QueryAnswerer, QueryPolicy


def main() -> None:
    # -- central site: the paper's Figure 1 tables, clock at 0 -----------------
    central = Database()
    for name, rows in (("Pol", [((1, 25), 10), ((2, 25), 15), ((3, 35), 10)]),
                       ("El", [((1, 75), 5), ((2, 85), 3), ((4, 90), 2)])):
        table = central.create_table(name, ["uid", "deg"])
        for row, texp in rows:
            table.insert(row, expires_at=texp)
    watchlist_plan = (
        central.table_expr("Pol").project(1).difference(
            central.table_expr("El").project(1)
        )
    )
    wire_plan = json.dumps(expression_to_dict(watchlist_plan))
    with tempfile.TemporaryDirectory() as tmp:
        snapshot_path = Path(tmp) / "central.json"
        save_database(central, snapshot_path)
        print(f"central site: shipped snapshot "
              f"({snapshot_path.stat().st_size} bytes) and plan "
              f"({len(wire_plan)} bytes)")

        # -- field device -----------------------------------------------------
        device = load_database(snapshot_path)
    plan = expression_from_dict(json.loads(wire_plan))
    materialised = evaluate(plan, device.catalog, tau=int(device.now))
    print(f"device: materialised the plan; texp(e) = {materialised.expiration}, "
          f"valid in {materialised.validity}")

    # Answer queries offline: an invalid time moves back to a valid one.
    answerer = QueryAnswerer(
        plan, device.catalog, materialised, QueryPolicy.MOVE_BACKWARD
    )
    print("\nanswering offline, moving invalid times backward:")
    for when in (1, 4, 8, 16):
        answer = answerer.answer(when)
        kind = (
            "recomputed" if answer.recomputed
            else "exact" if answer.effective_time == when
            else f"stale(as of {answer.effective_time})"
        )
        print(f"  t={when:>2}: {sorted(answer.relation.rows())}  [{kind}]")
    print(f"  -> {answerer.served_from_view} exact, "
          f"{answerer.moved_backward} stale, "
          f"{answerer.recomputations} recomputed")

    # -- live updates with the incremental maintainer -------------------------
    print("\nlive inserts with incremental maintenance:")
    live = Database()
    live.create_table("Pol", ["uid", "deg"])
    live.create_table("El", ["uid", "deg"])
    expr = live.table_expr("Pol").difference(live.table_expr("El"))
    view = live.materialise("watch", expr, policy=MaintenancePolicy.DELTA)
    live.table("Pol").insert((1, 25), expires_at=30)
    live.table("Pol").insert((2, 25), expires_at=30)
    print(f"  after 2 Pol inserts: {sorted(view.read().rows())}")
    live.table("El").insert((1, 25), expires_at=10)
    print(f"  after El shadows uid 1: {sorted(view.read().rows())}")
    live.advance_to(10)
    print(f"  after the shadow expires: {sorted(view.read().rows())}")
    print(f"  deltas applied: {view.delta_applications}, "
          f"rebuilds: {view.recomputations}")


if __name__ == "__main__":
    main()
