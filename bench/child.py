"""One chslab CLI invocation, timed from inside the child process.

    python3 child.py SPAWN_T REPORT SPANS -- <chslab arguments>

SPAWN_T is the parent's ``time.monotonic()`` just before it spawned this
process (CLOCK_MONOTONIC is shared by all processes of one machine), so
set-up time covers interpreter start-up and every import.  REPORT gets a
JSON object with the set-up and run times.  SPANS is ``-`` for an
untraced run; otherwise the tracer is loaded after the imports and its
spans are written there.  The exit code is the CLI's own.
"""

import sys
import time


def main() -> int:
    spawn_t, report, spans = float(sys.argv[1]), sys.argv[2], sys.argv[3]
    argv = sys.argv[5:]
    import chslab.cli
    imported = time.monotonic()

    tracer = None
    if spans != "-":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.monotonic()
    code = chslab.cli.main(argv)
    end = time.monotonic()
    if tracer is not None:
        tracer.dump(spans)

    import json
    with open(report, "w") as fh:
        json.dump({"setup_s": imported - spawn_t, "run_s": end - start,
                   "cli_file": chslab.cli.__file__}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
