"""Import dyntwist, then parse and validate a workload's documents.

    python3 perfbench/setup_probe.py SRC SPEC.json

SPEC.json lists the documents the workload's commands read: algebras
(each with its UEnvelope), r-matrices (parsed and validated by RMatrix,
which recomputes the classical residual) and twists.  Nothing is solved.
The benchmark times this whole process as `setup_s`.
"""

from __future__ import annotations

import json
import sys


def main(src, spec_path):
    sys.path.insert(0, src)
    from dyntwist import RMatrix, UEnvelope, schema

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    for item in spec:
        lie = schema.parse_algebra(schema.load_file(item["algebra"]))
        uea = UEnvelope(lie)
        for path, order in item.get("rmatrices", []):
            body = schema.parse_rmatrix(schema.load_file(path), lie, order)
            RMatrix(lie, body)
        for path in item.get("twists", []):
            schema.parse_twist(schema.load_file(path), uea)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
