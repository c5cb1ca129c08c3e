"""One benchmark sample, run in a fresh interpreter by run.py.

    python3 perfbench/child.py <spec.json>

The spec names the config, the cli argv, whether to trace, and where to
write the result.  Set-up (`import orbitint.cli` plus `load_config`) is timed
first, then `cli.main(argv)` from argv to report on disk.  With tracing on,
the spans are installed after set-up and written out after `cli.main`
returns, outside the timed region.
"""

import json
import sys
import time


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    import orbitint.cli as cli
    from orbitint.config import load_config
    load_config(spec["config"])
    result = {"setup_s": time.perf_counter() - t0}

    if spec.get("argv") is not None:
        tracer = None
        if spec.get("spans"):
            import tracer as tracing  # perfbench/ is this script's directory
            tracer = tracing.Tracer(spec["run_id"])
            tracing.install(tracer)
        t1 = time.perf_counter()
        try:
            rc = cli.main(spec["argv"])
        except SystemExit as exc:  # argparse rejects argv
            rc = exc.code if isinstance(exc.code, int) else 2
        result["wall_s"] = time.perf_counter() - t1
        result["rc"] = rc
        if tracer is not None:
            tracer.write(spec["spans"])

    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
