#!/usr/bin/env python3
"""Lines added, removed and net under src/ between two commits.

Prints two rows: every changed line, and the changed lines that hold code
(blank lines and lines whose only content is a // comment left out).

    python3 scripts/src_delta.py BASE [HEAD]

BASE and HEAD are any git revisions; HEAD defaults to HEAD. Run from
inside the repository.
"""

import argparse
import subprocess
import sys


def is_code(line):
    """True unless the line is blank or holds only a // comment."""
    text = line.strip()
    return bool(text) and not text.startswith("//")


def count(diff):
    """(added, removed) over all lines and over code lines of a -U0 diff."""
    total = [0, 0]
    code = [0, 0]
    in_hunk = False
    for line in diff.splitlines():
        # A file's "---"/"+++" header lines come before its first hunk; a
        # changed line such as "--i;" must not be mistaken for one.
        if line.startswith("diff "):
            in_hunk = False
        elif line.startswith("@@"):
            in_hunk = True
        if not in_hunk or line[:1] not in ("+", "-"):
            continue
        side = 0 if line[0] == "+" else 1
        total[side] += 1
        if is_code(line[1:]):
            code[side] += 1
    return total, code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="revision to measure from")
    parser.add_argument("head", nargs="?", default="HEAD",
                        help="revision to measure to (default HEAD)")
    args = parser.parse_args()
    proc = subprocess.run(
        ["git", "diff", "-U0", "--no-color", "--no-ext-diff", args.base,
         args.head, "--", "src/"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stderr, end="", file=sys.stderr)
        sys.exit(proc.returncode)
    total, code = count(proc.stdout)
    print(f"src/ {args.base}..{args.head}")
    for name, (added, removed) in (("all lines", total),
                                   ("code lines", code)):
        print(f"  {name:<11} +{added} / -{removed}  net {added - removed:+d}")


if __name__ == "__main__":
    main()
