"""Traced ``repro serve``: install the benchmark's span wrappers, then
hand over to ``repro.cli.main``; the spans are written out when the
server stops.

Usage: python3 perfbench/serve_launcher.py --trace-dir DIR -- serve ...
"""

import time

T_START = time.perf_counter()

import sys  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 3 or argv[0] != "--trace-dir" or argv[2] != "--":
        print("usage: serve_launcher.py --trace-dir DIR -- ARGS...",
              file=sys.stderr)
        return 2
    trace_dir, cli_args = argv[1], argv[3:]
    t_import = time.perf_counter()
    import repro.cli
    import repro.serve.http  # noqa: F401  what `repro serve` imports
    import_end = time.perf_counter()

    import spans

    rec = spans.Recorder(trace_dir, role="server")
    rec.record("import", "import", t_import, import_end)
    spans.install(rec, serve=True)
    try:
        return repro.cli.main(cli_args)
    finally:
        rec.record("run", spans.BENCH_LAYER, T_START, time.perf_counter())
        rec.dump()


if __name__ == "__main__":
    sys.exit(main())
