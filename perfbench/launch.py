"""Run the ``repro-noise`` command line inside a measured process.

Usage (from the repository root)::

    python perfbench/launch.py REPORT.json [--trace] -- <repro-noise args>

The process runs ``repro.cli.main`` with the given arguments, exactly
as the ``repro-noise`` entry point does, and writes REPORT.json when it
exits.  Untraced, the only addition is a one-shot timestamp taken when
the first run is issued to the engine (``first_issue``), which is where
a campaign's set-up ends.  With ``--trace`` the launcher also times the
package import and wraps every measured layer (see ``spans.py``); the
spans go to REPORT.json.spans, and the report records how long
installing the wrappers and writing the spans took (``install_s``,
``dump_s``: tracing overhead, not program work).
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import time


def _first_issue_hook(report: dict) -> None:
    from repro.engine.session import SimulationSession

    for attr in ("run", "run_many"):
        method = getattr(SimulationSession, attr)

        def first(*args, _method=method, **kwargs):
            if "first_issue" not in report:
                report["first_issue"] = time.perf_counter()
            return _method(*args, **kwargs)

        setattr(SimulationSession, attr, first)


def main(argv: list[str]) -> int:
    if "--" not in argv or argv.index("--") not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    report_path, options, program_args = argv[0], argv[1:split], argv[split + 1:]
    trace = options == ["--trace"]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))

    report: dict = {}
    tracer = None
    if trace:
        from spans import Tracer, install_program_wrappers

        tracer = Tracer()
        span = tracer.begin("import")
    import repro.cli

    if tracer is not None:
        from repro.experiments import registry

        registry._ensure_loaded()
        tracer.end(span)
        installing = time.perf_counter()
        install_program_wrappers(tracer)
        report["install_s"] = time.perf_counter() - installing
    else:
        _first_issue_hook(report)

    def write_report() -> None:
        report["exited"] = time.perf_counter()
        if tracer is not None:
            with open(report_path + ".spans", "w", encoding="utf-8") as handle:
                json.dump(list(tracer.spans), handle)
            report["dump_s"] = time.perf_counter() - report["exited"]
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle)

    atexit.register(write_report)
    return repro.cli.main(program_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
