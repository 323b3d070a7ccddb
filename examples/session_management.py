"""Automatic HTTP session management -- a flagship paper application.

Traditional session stores need a reaper job that periodically scans for
dead sessions and issues DELETEs; with expiration times the table *is* the
session policy: a login inserts a row on an idle-timeout table, activity
touches it (restarting its timer), and abandonment simply lets the tuple
expire -- firing the logout trigger at exactly the right moment.

The example replays a seeded login/activity stream and prints the
bookkeeping the store needed, beside what a reaper would have issued.

Run:  python examples/session_management.py
"""

import random

from repro import Database

SESSION_TTL = 25


def events(users=30, horizon=300, login_rate=0.05, activity_rate=0.3, seed=11):
    """``(time, kind, sid, user)`` logins and pings; users walk away silently."""
    rng = random.Random(seed)
    active, next_sid = {}, 1
    for time in range(horizon):
        for user in range(1, users + 1):
            if user not in active:
                if rng.random() < login_rate:
                    active[user] = next_sid
                    yield time, "login", next_sid, user
                    next_sid += 1
                continue
            draw = rng.random()
            if draw < activity_rate:
                yield time, "activity", active[user], user
            elif draw > 0.97:
                del active[user]  # nobody sends a logout


def main() -> None:
    db = Database()
    sessions = db.create_table(
        "Sessions", ["sid", "user"],
        expiry="since_last_modification", default_ttl=SESSION_TTL,
    )
    logouts = []
    sessions.triggers.register("on_logout", lambda event: logouts.append(event.tuple.row))

    logins = pings = peak = 0
    for time, kind, sid, user in events():
        if time > db.now.value:
            db.advance_to(time)
        if kind == "login":
            sessions.insert((sid, user))
            logins += 1
        else:
            sessions.touch((sid, user))
            pings += 1
        peak = max(peak, len(sessions))
    db.advance_to(400)  # quiesce: every session ends eventually
    stats = db.statistics

    print(f"workload: {logins} logins, {pings} activity pings over 300 ticks\n")
    print("expiration-enabled session store (idle timeout "
          f"{SESSION_TTL} ticks):")
    print(f"  peak concurrent sessions:                   {peak}")
    print(f"  sessions expired (trigger-driven logouts): {len(logouts)}")
    print(f"  renewals by touch:                          {stats.touches}")
    print(f"  explicit DELETE statements issued:          {stats.explicit_deletes}")
    print("  application cleanup code:                   none (engine-managed)")
    print(f"\na reaper would have issued one DELETE per ended session: "
          f"{len(logouts)} delete transactions.")


if __name__ == "__main__":
    main()
