"""Fixed pure-Python reference work, timed to track the host's speed.

    python3 perfbench/calibrate.py   # prints a checksum

The benchmark runs this between CLI invocations.  It starts a fresh
interpreter and does string splitting, character scanning, tuple and
dict building, the same kind of work as the nfr4 parser, on an input
that never changes and without importing nfr4, so no change to the
program can alter its time.  Only the host's speed can.
"""

from __future__ import annotations

import sys

LINES = 60000


def main() -> int:
    text = "".join(f'nfr n{i} "Quality n{i}" on g{i % 97}, sg{i % 89}\n'
                   for i in range(LINES))
    quotes = 0
    rows = []
    for line in text.split("\n"):
        for char in line:
            if char == '"':
                quotes += 1
        rows.append(tuple(line.split()))
    index = {row[1]: row for row in rows if len(row) > 1}
    print(quotes, len(index))
    return 0 if (quotes, len(index)) == (2 * LINES, LINES) else 1


if __name__ == "__main__":
    sys.exit(main())
