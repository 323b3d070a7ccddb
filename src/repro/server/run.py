"""The ``serve`` entry point shared by the CLI and ``python -m repro.server``.

Binds a :class:`~repro.server.server.ReproServer` on a fresh in-memory
database -- or a durable one when ``--wal-dir`` points at a directory
(crash-recovering it first if it already holds state) -- and serves until
interrupted.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path
from typing import List, Optional

from repro.engine.config import DatabaseConfig
from repro.server.server import ReproServer

__all__ = ["main", "serve"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve an expiration-time database over TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7437)
    parser.add_argument(
        "--wal-dir",
        default=None,
        help="durable root (recovered first if it already holds state)",
    )
    parser.add_argument(
        "--fsync",
        default="commit",
        choices=("commit", "always", "never"),
        help="WAL fsync policy (with --wal-dir)",
    )
    parser.add_argument("--check-invariants", action="store_true")
    parser.add_argument(
        "--retransmit-interval",
        type=float,
        default=1.0,
        help="seconds between patch retransmission sweeps (0 disables)",
    )
    return parser


async def serve(args: argparse.Namespace) -> int:
    """Start the server and run until cancelled (Ctrl-C)."""
    db = None
    if args.wal_dir is not None:
        from repro.server.client import _open_durable

        config = DatabaseConfig(
            check_invariants=args.check_invariants,
            wal_fsync=args.fsync,
        )
        db = _open_durable(Path(args.wal_dir), config)
    server = ReproServer(
        db,
        host=args.host,
        port=args.port,
        config=DatabaseConfig(check_invariants=args.check_invariants),
        retransmit_interval=args.retransmit_interval or None,
    )
    if db is not None:
        server._owns_db = True  # the CLI opened it; the server closes it
    host, port = await server.start()
    print(f"serving repro://{host}:{port}", file=sys.stderr)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse flags and run :func:`serve` on a fresh event loop."""
    args = _build_parser().parse_args(argv)
    try:
        return asyncio.run(serve(args))
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
