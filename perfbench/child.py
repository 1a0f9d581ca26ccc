"""One benchmark client process: import wittenlab, then run one CLI call.

Usage:
    python3 perfbench/child.py SRC TIMING_JSON [--setup-only]
        [--trace TRACE_JSON] -- <wittenlab arguments>

SRC is the checkout's source directory.  The process records, on the
system-wide monotonic clock, when it was ready (imports done and the
config parsed, as the CLI parses it) and when the CLI call started and
returned, and writes them to TIMING_JSON.  With --setup-only it stops
once ready.  With --trace the layer functions are wrapped before the
call and the spans are written to TRACE_JSON afterwards.
"""
import json
import sys
import time


def main(argv):
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    src, timing_path = opts[0], opts[1]
    setup_only = "--setup-only" in opts
    trace_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    sys.path.insert(0, src)
    import wittenlab.cli as cli

    cli.build_config(cli.make_parser().parse_args(cli_args))
    timing = {"ready": time.monotonic()}
    rc = 0
    if not setup_only:
        tracer = None
        if trace_path:
            from tracer import Tracer  # this script's directory

            tracer = Tracer()
            tracer.install()
        timing["start"] = time.monotonic()
        rc = cli.main(cli_args)
        timing["end"] = time.monotonic()
        if tracer is not None:
            tracer.uninstall()
            tracer.write(trace_path)
            timing["trace_write_s"] = time.monotonic() - timing["end"]
    timing["rc"] = rc
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(timing, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
