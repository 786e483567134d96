"""One traced `qmoments` call in a fresh interpreter (cli_cold, --trace 1).

Usage: python child.py SPANS_JSON ARG... ; runs qmoments.cli.main(ARGS) with
the layer tracer installed, writes the spans and counts to SPANS_JSON and
exits with the CLI's exit code. Output goes to stdout exactly as from the
`qmoments` entry point.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tracing  # noqa: E402

tr = tracing.Tracer()
tr.op = 0
tracing.instrument(tr)
from qmoments import cli  # noqa: E402

code = cli.main(sys.argv[2:])
sys.stdout.flush()
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({"spans": tr.spans, "counts": tr.counts, "dim_max": tr.dim_max,
               "unwrapped": tracing.unwrapped_bindings()}, fh)
sys.exit(code)
