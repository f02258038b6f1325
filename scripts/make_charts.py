#!/usr/bin/env python3
"""Render spectral sequence charts for a range of suspensions into out/.

Suspensions 5..10 get the published differentials; larger ones get the
first solver pattern, with the pattern count noted in every rendering.
"""

import os
import sys

from kleinmackey import sschart


def main(ns=(5, 6, 7, 8, 9, 10, 11, 12, 20)):
    os.makedirs("out", exist_ok=True)
    for n in ns:
        chart = sschart.build_E1(n)
        note = None
        if n <= 10:
            diffs = sschart.canned_differentials(n)
        else:
            diffs, note = sschart.first_solution(chart, 200)
        for fmt, ext in (("text", "txt"), ("json", "json"), ("svg", "svg")):
            path = os.path.join("out", f"chart_n{n}.{ext}")
            body = sschart.render(chart, fmt, diffs, note)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(body)
        print(f"n={n}: {len(chart.entries)} cells, {len(diffs)} differentials "
              f"({note or 'published differentials'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
