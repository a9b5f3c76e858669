"""Every kernel call in tests/golden/kernels.jsonl still gives its recorded output."""

import json
from pathlib import Path

from kernel_corpus import dumps, run

GOLDEN = Path(__file__).parent / "golden" / "kernels.jsonl"


def test_kernel_outputs_match_the_corpus():
    lines = GOLDEN.read_text().splitlines()
    assert len(lines) > 500
    mismatched = []
    for line in lines:
        record = json.loads(line)
        got = dumps(run(record["kernel"], record["args"]))
        if got != line:
            mismatched.append(f"expected {line}\n     got {got}")
    assert not mismatched, f"{len(mismatched)} records differ:\n" + "\n".join(mismatched[:5])
