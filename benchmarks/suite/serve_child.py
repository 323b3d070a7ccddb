"""The traced stand-in for ``python -m repro serve``.

``python serve_child.py --trace-out FILE <serve flags>`` installs the
suite's span wrappers, then serves exactly as ``repro.server.run`` does.
``SIGUSR1`` marks the start and then the end of the generator's timed
section (acknowledged by creating ``FILE.mark<n>``); on ``SIGINT`` the
server stops as usual and the spans and registry deltas between the two
marks are written to FILE.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(SUITE_DIR.parent.parent / "src"), str(SUITE_DIR.parent.parent)]

from benchmarks.suite.tracing import Tracer, resolve  # noqa: E402


def trace_requests(tracer: Tracer) -> None:
    """Open one ``server.server.dispatch`` span per request frame.

    The server awaits ``read_frame`` between requests, so the span runs
    from one ``read_frame`` returning a frame to the same connection
    calling it again; nothing awaits in between, which keeps it on the
    synchronous parent stack.  The frame's bytes are replayed through
    ``FrameDecoder.feed`` (wrapped as ``server.protocol.decode``), because
    time spent inside ``read_frame`` itself is mostly waiting on the socket.
    """
    found = resolve("repro.server.protocol.read_frame")
    decoder = resolve("repro.server.protocol.FrameDecoder")
    encode = resolve("repro.server.protocol.encode_frame")
    if found is None or decoder is None or encode is None:
        tracer.unresolved.append("server.server.dispatch")
        return
    owner, attribute, original = found
    decoder_cls = decoder[2]
    plain_encode = getattr(encode[2], "__wrapped__", encode[2])
    dispatch_id = tracer.name_id("server.server.dispatch")
    open_spans = {}

    async def read_frame(reader):
        index = open_spans.pop(id(reader), None)
        if index is not None:
            tracer.finish(index)
        frame = await original(reader)
        if frame is not None:
            request = frame.get("id")
            tracer.current_request = request if isinstance(request, int) else -1
            decoder_cls().feed(plain_encode(frame))
            open_spans[id(reader)] = tracer.begin(dispatch_id)
        return frame

    tracer.replace(owner, attribute, original, read_frame)


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", type=Path, required=True)
    own, serve_flags = parser.parse_known_args(argv)
    trace_out = own.trace_out
    import repro.server.run as run
    import repro.server.server as server_module

    def reply_to(args):
        # A reply frame echoes its request's id: charge the encode to it.
        request = args[0].get("re")
        return request if isinstance(request, int) else -1

    tracer = Tracer()
    tracer.install("server", request_of={"server.protocol.encode": reply_to})
    trace_requests(tracer)

    servers = []
    plain_init = server_module.ReproServer.__init__

    def remember(self, *args, **kwargs):
        plain_init(self, *args, **kwargs)
        servers.append(self)

    server_module.ReproServer.__init__ = remember
    marks = []

    def numbers():
        snapshot = servers[0].db.metrics.snapshot() if servers else {}
        return {k: v for k, v in snapshot.items() if isinstance(v, (int, float))}

    def on_mark(signum, frame):
        marks.append((tracer.mark(), numbers()))
        Path(f"{trace_out}.mark{len(marks)}").touch()

    signal.signal(signal.SIGUSR1, on_mark)
    code = run.main(serve_flags)
    (first, before), (last, after) = (
        marks[:2] if len(marks) >= 2 else [(0, {}), (tracer.mark(), numbers())])
    trace_out.write_text(json.dumps({
        "spans": tracer.fold(first, last),
        "registry": {k: v - before.get(k, 0) for k, v in after.items()
                     if v != before.get(k, 0)},
        "unresolved": tracer.unresolved,
    }))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
