"""Run one levibridge CLI command under the speed probe or the tracer.

    python3 bench/cli_shim.py probe|trace OUT_PATH ARG...

Behaves as ``levibridge ARG...`` (same stdout and exit code) while the speed
probe runs (see ``probe.py``). When the command ends it writes to OUT_PATH
the probe's factor from wall to reference seconds and, in ``trace`` mode,
the command's spans.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import levibridge.cli  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    mode, out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer() if mode == "trace" else None
    probe = SpeedProbe()
    probe.start()
    if tracer:
        tracer.install()
    try:
        return levibridge.cli.main(argv)
    finally:
        speed = probe.stop()
        if tracer:
            tracer.uninstall()
            tracer.end_op()
            tracer.dump(out, speed=speed)
        else:
            with open(out, "w", encoding="ascii") as fh:
                json.dump({"speed": speed}, fh)


if __name__ == "__main__":
    sys.exit(main())
