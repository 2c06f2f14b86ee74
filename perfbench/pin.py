"""Recompute pins.json: the known-answer digests the benchmark checks.

    python3 perfbench/pin.py

Run from the repository root, only when an output is meant to change.  It
records the gate's head checksums (weight seed 42, full-0.5 input) and, for
the default seed, one request digest per model and input of every workload,
computed in serial mode.
"""

import json
import tempfile
from pathlib import Path

import run
from run import N, T, W


def main() -> None:
    pins = {"gate": {}, "gate_params": {}, "requests": {}}
    graphs = {m: W.BUILDERS[m](W.CLASSES) for m in W.MODELS}
    for g in graphs.values():
        W.W.init_seeded(g, W.WEIGHT_SEED)
    pins["gate_params"]["proposed"] = W.W.params_checksum(graphs["proposed"])
    for m, size in W.GATE_SIZES[1:]:
        heads = N.forward(graphs[m], T.Tensor.full((1, 3, size, size), 0.5))
        pins["gate"][f"{m}@{size}"] = [W.W.tensor_checksum(h) for h in heads]
    rng = run.np.random.default_rng(W.DEFAULT_SEED)
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp, W.HeadCapture() as capture:
        for wl in W.WORKLOADS.values():
            prep = W.setup(wl, W.DEFAULT_SEED, Path(tmp) / wl.name)
            pins["requests"][wl.name] = {}
            for frame in range(len(wl.shapes)):
                for spec in wl.unit(frame)[:len(W.MODELS)]:
                    result = W.run_request(prep, spec, capture)
                    problems = W.verify(prep, spec, result, rng)
                    if problems:
                        raise SystemExit(f"{wl.name} {spec}: {problems}")
                    pins["requests"][wl.name][f"{spec[0]}/{frame}"] = W.digest(result)
                    print(wl.name, spec, f"{result.seconds:.2f}s", flush=True)
    Path(__file__).with_name("pins.json").write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
