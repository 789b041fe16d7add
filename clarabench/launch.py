"""Run ``python -m repro ...`` with the per-layer wrappers installed.

    python clarabench/launch.py SPANS.json -- serve --load ART --port 0

installs :class:`tracing.Recorder` wrappers, then enters the normal
command line (``repro.cli.main``) with the arguments after ``--``; when
the command returns (for ``serve``: after SIGTERM's clean shutdown) the
spans are written to ``SPANS.json`` and the command's exit code is
passed on.
"""

import sys

from tracing import Recorder


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: launch.py SPANS.json -- <repro arguments>",
              file=sys.stderr)
        return 2
    recorder = Recorder()
    recorder.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[2:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
