"""Run one grassdeg CLI command with spans recorded around the package's calls.

Usage: python3 perfbench/traced_cli.py <grassdeg arguments...>

The command's report goes to stdout unchanged.  The spans, including one for
``import grassdeg.cli``, go to stderr as a last line ``SPANS <json>``.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import SPANS_PREFIX, Tracer  # noqa: E402


def main(argv):
    tracer = Tracer()
    with tracer.call("cli.command", run_id=1):
        with tracer.span("import"):
            import grassdeg
            import grassdeg.cli
        tracer.install(grassdeg)
        try:
            with tracer.span("cli.run"):
                code = grassdeg.cli.run(argv)
        finally:
            tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(SPANS_PREFIX + json.dumps(tracer.spans) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
