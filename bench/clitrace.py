"""Run one `lfd` command with the benchmark's function spans installed.

    python3 bench/clitrace.py SPANS.json <lfd arguments...>

Used by the traced run of the `cli` workload in place of `python -m lfd.cli`.
The per-span totals (calls, ms, self_ms) are written to SPANS.json when the
command ends, whatever its exit status.
"""

import json
import sys

from spans import Tracer

import lfd.cli


def main() -> None:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = lfd.cli.main(argv)
    finally:
        tracer.uninstall()
        agg = tracer.aggregate()
        agg.pop("", None)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(agg, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
