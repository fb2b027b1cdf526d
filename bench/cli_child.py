"""Run ``steiner_ecc.cli.main`` in a fresh interpreter, as one census op.

Usage: python3 bench/cli_child.py [--trace] <cli arguments...>

The package is imported from the checkout's ``src``. With ``--trace`` the
package is traced (see tracing.py) and, after the CLI has written its
report to stdout, one JSON line with the child's self times and counts goes
to stderr; ``cli.import_s`` is the CPU time of importing ``steiner_ecc.cli``.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    if argv[:1] != ["--trace"]:
        from steiner_ecc import cli

        return cli.main(argv)
    import tracing

    start = time.process_time()
    from steiner_ecc import cli

    tracer = tracing.Tracer()
    tracer.self_s["cli.import_s"] += time.process_time() - start
    with tracer.installed():
        code = cli.main(argv[1:])
    sys.stdout.flush()
    print(json.dumps(tracer.summary()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
