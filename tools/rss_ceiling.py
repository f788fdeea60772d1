#!/usr/bin/env python3
"""Run a command and fail when its peak resident set exceeds a ceiling.

    tools/rss_ceiling.py MAX_MIB COMMAND [ARG ...]

Runs COMMAND, waits for it, then reads the peak resident set of the
process tree it started (getrusage RUSAGE_CHILDREN ru_maxrss, which Linux
folds up from every waited-for descendant, so a `cmake -E env` wrapper
still reports the bench beneath it). Prints the figure to stderr.

Exit status: COMMAND's own status when it fails; 1 when it succeeded but
peaked above MAX_MIB; 0 otherwise; 2 on usage errors.
"""
import resource
import subprocess
import sys


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        ceiling_mib = float(argv[1])
    except ValueError:
        print(f"rss_ceiling: MAX_MIB must be a number, got {argv[1]!r}",
              file=sys.stderr)
        return 2
    rc = subprocess.run(argv[2:]).returncode
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"rss_ceiling: peak RSS {peak_mib:.0f} MiB (ceiling {ceiling_mib:.0f} MiB)",
          file=sys.stderr)
    if rc != 0:
        return rc
    if peak_mib > ceiling_mib:
        print(f"rss_ceiling: peak RSS {peak_mib:.0f} MiB exceeds "
              f"{ceiling_mib:.0f} MiB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
