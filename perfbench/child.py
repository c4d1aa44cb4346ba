"""One `kgfeat run` in this process, timed from the benchmark's own files.

    python perfbench/child.py REPORT_JSON TRACE(0|1) MANIFEST OUT_DIR

Imports kgfeat from PYTHONPATH, installs the span wrappers (only the set-up /
search boundary unless TRACE is 1), runs the CLI's `run` command and writes
the timings, the peak resident memory and, when traced, every span to
REPORT_JSON. Exits with the CLI's exit code.
"""
from __future__ import annotations

import json
import resource
import sys
import time

import kgfeat.cli

import spans as sp


def main():
    report_path, trace, manifest, out_dir = sys.argv[1:]
    rec = sp.Recorder()
    rec.install(sp.ENTRY_POINTS if trace == "1" else sp.BOUNDARIES)
    try:
        code = kgfeat.cli.main(["run", "--manifest", manifest, "--out", out_dir])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    end = time.perf_counter()
    report = {
        "exit_code": code,
        "kgfeat_file": kgfeat.__file__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if code == 0:
        cmd, run = rec.first("cli.cmd_run"), rec.first("engine.run")
        report.update(setup_s=run[1] - cmd[1], run_s=end - run[1],
                      run_start=run[1], run_end=end)
        if trace == "1":
            report["spans"] = rec.spans
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
