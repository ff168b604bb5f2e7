"""Run one dyntwist CLI command in this process, traced or not.

    python3 perfbench/worker.py --src SRC --out RESULT.json [--trace]
        [--command-id N] -- <dyntwist arguments>

The command's report goes to stdout as usual.  RESULT.json receives the
exit code and, with --trace, the spans and per-layer metrics.  Without
--trace the tracer is not even imported, so nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--command-id", type=int, default=0)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    sys.path.insert(0, args.src)

    import dyntwist.cli

    record = {"command": args.command_id, "argv": cli_args}
    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer(command=args.command_id)
        tracer.install(layers.TARGETS)
    start = time.perf_counter()
    try:
        code = dyntwist.cli.main(cli_args)
    finally:
        record["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    sys.stdout.flush()
    record["code"] = code
    if tracer is not None:
        record["metrics"] = layers.rename(tracer.metrics())
        record["spans"] = tracer.spans
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
