"""Record the reference outputs that `checks.py` compares against.

The 26 sequence-table cells (z, statistic, p and term counts) and the
seed-independent limit rows of table3, as this program computes them. These
are the program's own values, not the published table: a change that is
meant to move one of them re-records the file and says why.

Usage, from the repository root: python3 perfbench/record_reference.py
"""

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
os.environ["UBENFORD_PURE_PYTHON"] = "1"

import ubenford as ub  # noqa: E402


def main():
    table1 = ub.run_table1()
    cells = {}
    for cell in table1.cells + table1.reruns:
        cells[f"{cell.sequence}/{cell.transform}"] = dataclasses.asdict(cell)
    table3 = dataclasses.asdict(ub.run_table3(0))
    out = {"table1": cells,
           "table3": {row: table3[row]
                      for row in ("uniform_row", "exponential_row")}}
    with open(os.path.join(HERE, "reference_z.json"), "w",
              encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
