"""A warm ``Clara`` answering one analyze at a time over stdin/stdout.

    python clarabench/worker.py ARTIFACT [SPANS.json]

Loads the artifact with ``Clara.load``, prints ``{"ready": ...}``, then
answers JSON-line commands:

* ``{"op": "element", "pickle": <base64>}`` — hold a generated NF
  (sent untimed, before the timed ``analyze``);
* ``{"op": "analyze", "workload": NAME, "trace_seed": N}`` — run
  ``Clara.analyze`` on it and reply with the digest of the analyze
  envelope the daemon would send, and the seconds that took;
* ``{"op": "exit"}`` — reply with the peak RSS, write the spans (when
  traced) and exit.

The benchmark client enforces the per-request deadline by killing it.
"""

import base64
import dataclasses
import json
import os
import pickle
import sys
import time


def reply(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv):
    artifact = argv[0]
    spans_path = argv[1] if len(argv) > 1 else None
    recorder = None
    if spans_path:
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
    from harness import N_PACKETS, digest_envelope, vm_hwm_mb
    from repro.core import Clara
    from repro.serve.schemas import analysis_result_payload, envelope
    from repro.workload import STANDARD_WORKLOADS

    clara = Clara.load(artifact)
    specs = {spec.name: dataclasses.replace(spec, n_packets=N_PACKETS)
             for spec in STANDARD_WORKLOADS}
    element = None
    reply({"ready": True})
    try:
        for line in sys.stdin:
            msg = json.loads(line)
            op = msg["op"]
            if op == "element":
                element = pickle.loads(base64.b64decode(msg["pickle"]))
                reply({"ok": True})
            elif op == "analyze":
                start = time.monotonic()
                try:
                    analysis = clara.analyze(
                        element, specs[msg["workload"]],
                        trace_seed=int(msg["trace_seed"]),
                    )
                    env = envelope("analysis_result", analysis_result_payload(
                        analysis, clara.port_config(analysis)))
                except Exception as exc:  # reported as a failed request
                    reply({"error": f"{type(exc).__name__}: {exc}"})
                else:
                    seconds = time.monotonic() - start
                    reply({"digest": digest_envelope(env),
                           "seconds": seconds})
            elif op == "exit":
                reply({"peak_rss_mb": vm_hwm_mb(os.getpid())})
                break
    finally:
        if recorder is not None:
            recorder.dump(spans_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
