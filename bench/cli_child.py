"""One vqmc CLI invocation with its import and ``main()`` traced, for traced cli rounds.

    python3 bench/cli_child.py SPANS.json [vqmc arguments ...]

Behaves like ``python -m vqmc.cli`` (same stdout and exit code) and writes
its spans, including the wrapped library calls, to SPANS.json.
"""

import time

_start = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import vqmc.cli  # noqa: E402

_imported = time.perf_counter_ns()

from tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.spans.append(["cli.import", _start, _imported, -1, None])
    tracer.install()
    command = argv[0].lstrip("-") if argv else ""
    try:
        with tracer.span("cli.main", command):
            code = vqmc.cli.main(argv)
    except SystemExit as exc:  # argparse exits for --version and usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
