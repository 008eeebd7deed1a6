"""Benchmark worker: runs one workload's operation on each input it is sent.

    python3 bench/worker.py certify|iso

Reads JSON lines on stdin and answers each with one JSON line:

    {"items": [...], "trace": false}  ->  {"op_s": [...], "op_ref_s": [...], "results": [...]}
    {"stop": true, "spans": PATH}     ->  {"stopped": true}

A certify item is a graph6 line; an iso item is a pair of them. Only the
library calls are timed, in wall seconds (``op_s``) and in reference seconds
(``op_ref_s``, see ``probe.py``; an operation too short to hold a probe
sample takes the batch's factor). A traced batch runs under the tracer,
whose spans are written to PATH on stop.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import levibridge as lb  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402


def certify(text: str) -> dict:
    """The refutation-hypothesis battery on one graph."""
    g = lb.graph6_decode(text)
    bipartite = lb.bipartition(g) is not None
    girth = lb.girth(g)
    parity = lb.pseudo_2fi(g)
    ess4, cert = lb.is_essentially_4_edge_connected(g)
    cyclic = lb.cyclic_edge_connectivity(g)
    hist: dict[str, int] = {}
    for c in parity.cycle_counts:
        hist[str(c)] = hist.get(str(c), 0) + 1
    cut = None if cert is None else {"edges": [list(e) for e in cert.cut],
                                     "side_a": sorted(cert.side_a)}
    return {"bipartite": bipartite, "girth": girth,
            "matchings": parity.matching_count, "cycle_hist": hist,
            "status": parity.status, "ess4": ess4, "cut": cut, "cyclic": cyclic}


def iso(pair) -> dict:
    """Isomorphism test of a pair plus the automorphism order of the first."""
    g = lb.graph6_decode(pair[0])
    h = lb.graph6_decode(pair[1])
    phi = lb.isomorphism(g, h)
    order = lb.automorphism_group(g).order
    return {"mapping": None if phi is None else list(phi), "aut_order": order}


def main():
    op = {"certify": certify, "iso": iso}[sys.argv[1]]
    tracer = Tracer()
    probe = SpeedProbe()
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("stop"):
            if msg.get("spans"):
                tracer.dump(msg["spans"])
            print(json.dumps({"stopped": True}), flush=True)
            return
        if msg["trace"]:
            tracer.install()
        spans, results = [], []
        probe.start()
        try:
            for item in msg["items"]:
                start = time.perf_counter()
                results.append(op(item))
                spans.append((start, time.perf_counter()))
                if msg["trace"]:
                    tracer.end_op()
        finally:
            batch_factor = probe.stop()
            tracer.uninstall()
        op_s = [end - start for start, end in spans]
        op_ref_s = [(end - start) * (probe.factor(start, end) or batch_factor)
                    for start, end in spans]
        print(json.dumps({"op_s": op_s, "op_ref_s": op_ref_s, "results": results}),
              flush=True)


if __name__ == "__main__":
    main()
