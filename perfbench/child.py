"""The program process: import nediff.cli, run CLI commands, report.

Usage: python3 child.py <launch_monotonic_s> <root> <spec.json> <result.json>

spec.json holds {"trace": bool, "commands": [[arg, ...], ...]}; an empty
command list only measures set-up.  The result records set-up time (launch
until `nediff.cli` is imported), each command's exit code and seconds, peak
RSS, library versions and, when traced, every span and counter.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    launch, root, spec_path, result_path = sys.argv[1:5]
    import nediff.cli
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    src = (Path(root) / "src").resolve()
    if Path(nediff.__file__).resolve().parents[1] != src:
        print(f"nediff imported from {nediff.__file__}, not {src}", file=sys.stderr)
        return 3

    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    tracer = undo = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        undo = tracing.instrument(tracer)

    commands = []
    for i, argv in enumerate(spec["commands"]):
        start = time.perf_counter()
        if tracer is None:
            rc = nediff.cli.main(argv)
        else:
            tracer.run = i
            with tracer.span("cli.main"):
                rc = nediff.cli.main(argv)
        commands.append({"rc": rc, "seconds": time.perf_counter() - start})
    if undo is not None:
        undo()

    import numpy
    import scipy
    result = {
        "setup_s": ready - float(launch),
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["spans"] = [[s.id, s.name, s.start, s.end, s.parent, s.run]
                           for s in tracer.spans]
        result["counts"] = dict(tracer.counts)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
