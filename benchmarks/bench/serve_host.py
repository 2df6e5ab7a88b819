"""Server process of the ``serve-tenants`` workload.

Runs one ``BackgroundServer(ServeConfig(workers=1))`` and answers one JSON
line per command read from stdin::

    python benchmarks/bench/serve_host.py SRC_DIR TRACE

* on start-up, once the server listens: ``{"port": N}``
* ``stats``: this process's CPU seconds and peak RSS (KiB)
* ``stop`` (or end of input): drains the server, then replies with
  ``drained_clean``, the final CPU and RSS, and, when ``TRACE`` is 1, the
  span snapshot of the layer tracer installed before the server started.
"""

from __future__ import annotations

import json
import resource
import sys


def _usage() -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kib": usage.ru_maxrss}


def _reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main(src: str, trace: bool) -> int:
    sys.path.insert(0, src)
    tracer = None
    if trace:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    from repro.serve import BackgroundServer, ServeConfig

    server = BackgroundServer(ServeConfig(workers=1)).start()
    try:
        _reply({"port": server.port})
        for line in sys.stdin:
            if line.strip() == "stats":
                _reply(_usage())
            elif line.strip() == "stop":
                break
    finally:
        server.stop()
    report = dict(_usage(), drained_clean=server.drained_clean,
                  layers=tracer.snapshot() if tracer else None)
    _reply(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2] == "1"))
