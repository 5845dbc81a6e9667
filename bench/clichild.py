"""Run one ``sulva`` command in this fresh process, traced or under cProfile.

    python bench/clichild.py spans|counts <sulva arguments>

Standard output is the command's own; the last line on standard error is
a JSON object with the spans (``spans``) or the exact call counts
(``counts``) of this one invocation.  The exit code is the command's.
"""

from __future__ import annotations

import cProfile
import json
import sys

import tracing


def main() -> int:
    mode, *args = sys.argv[1:]
    tracer = profile = None
    if mode == "spans":
        tracer = tracing.Tracer()
        tracer.begin("cli")
        from sulvalab import cli

        tracer.end("cli.import")
        tracing.install(tracer)
        tracer.begin("cli")
    else:
        from sulvalab import cli

        profile = cProfile.Profile()
        profile.enable()
    try:
        cli.main(args=args, prog_name="sulva")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        if tracer is not None:
            tracer.end("cli.main")
        else:
            profile.disable()
    sys.stdout.flush()
    report = tracer.export() if tracer is not None else tracing.call_counts(profile)
    print(json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
