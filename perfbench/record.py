"""Record perfbench/expected.json from the code in src/.

    python3 perfbench/record.py

Runs one cycle of every workload for workload seeds 0..SEEDS-1.  Per command it
records the verdict content, which must be the same for every seed (the
benchmark runs arbitrary seeds, so a verdict that depends on the seed cannot
be checked), and the sha256 of the report when the report is byte-identical
for every seed, which holds for inputs that do not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 20


def record() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from qgelfand.cli import main

    from perfbench import checks, workloads
    from perfbench.run import invoke

    expected: dict = {}
    problems = []
    for workload in workloads.WORKLOADS:
        verdicts: dict = {}
        digests: dict = {}
        for seed in range(SEEDS):
            with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
                for cmd in workloads.build(workload, seed, Path(tmp)):
                    code, error = invoke(main, cmd.argv)
                    if code != 0:
                        problems.append(f"{cmd.name} seed {seed}: code {code} {error}")
                        continue
                    data = cmd.out.read_bytes()
                    report = json.loads(data)
                    if cmd.matrix is not None and not checks.oracle_defect_ok(cmd.matrix, report):
                        problems.append(f"{cmd.name} seed {seed}: oracle not invariant")
                    verdicts.setdefault(cmd.name, []).append(checks.verdict(cmd.name, report))
                    digests.setdefault(cmd.name, set()).add(hashlib.sha256(data).hexdigest())
            print(f"{workload} seed {seed} done", file=sys.stderr)
        table = {}
        for name, seen in verdicts.items():
            if any(v != seen[0] for v in seen):
                problems.append(f"{name}: verdict depends on the seed: {seen}")
                continue
            table[name] = {"verdict": seen[0]}
            if len(digests[name]) == 1:
                table[name]["sha256"] = next(iter(digests[name]))
        expected[workload] = table
    if problems:
        raise SystemExit("cannot record:\n" + "\n".join(problems))
    return expected


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    from perfbench.run import limit_threads

    limit_threads()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    out = ROOT / "perfbench" / "expected.json"
    out.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
