"""Run one command and print its peak resident set size.

From the repository root::

    python tools/peak_rss.py --stdin in.jsonl --stdout out.jsonl -- \\
        python -m repro serve --batch corpus/ --daemon

The command is this process's only child, so ``ru_maxrss`` of
``RUSAGE_CHILDREN`` after it exits is the command's own peak RSS.  That
peak, in KiB, is the last line on stdout; the exit status is the
command's.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stdin", help="file fed to the command's stdin")
    parser.add_argument("--stdout", help="file the command's stdout goes to")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    with open(args.stdin or "/dev/null", "rb") as stdin, open(
        args.stdout or "/dev/null", "wb"
    ) as stdout:
        status = subprocess.run(command, stdin=stdin, stdout=stdout).returncode
    print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return status


if __name__ == "__main__":
    sys.exit(main())
