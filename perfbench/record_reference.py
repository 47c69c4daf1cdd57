"""Write ``reference.json``: exact delivery times for every point the checks use.

Each point is solved with ``repeaterchain compare --method pi --no-bunch``
(policy iteration, direct sparse evaluation), giving ``T_opt`` and the
swap-asap baseline ``T_swap_asap``.  The committed file was recorded from
the commit that introduced this benchmark; re-record only on purpose, since
the benchmark's correctness checks compare against it.

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import REFERENCE_FILE, compare_argv, parse_compare, point_key, reference_points, run_cli  # noqa: E402


def main() -> int:
    points = {}
    for point in reference_points():
        argv = compare_argv(*point)
        code, out, err = run_cli(argv)
        if code != 0:
            print(f"{' '.join(argv)} failed ({code}): {err}", file=sys.stderr)
            return 1
        points[point_key(*point)] = parse_compare(out)
        print(point_key(*point), points[point_key(*point)], file=sys.stderr)
    doc = {
        "about": "exact T from policy iteration and direct evaluation; key is n,t_cut,p,p_s",
        "points": points,
    }
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
