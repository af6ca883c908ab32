"""Which functions the traced passes wrap, and under which span names.

A function is wrapped in each module that calls it, under the name that
module looks up (``ml.build_encoding`` is what ``gd_run`` calls).  The two
views of ``decode_row`` get different span names: the engine's calls are the
per-round decodes, the codes module's own calls are the survivor-set sweep
inside ``validate_code``.
"""

from __future__ import annotations

import numpy as np

from codedreduce import allocation, codes, config, engine, latency, ml, topology, transport
from tracer import Target


def _note_residual(tracer, args, kwargs, result) -> None:
    """Worst |a B_F - 1| over the decode calls seen; a rejected set counts
    with the residual it was rejected for."""
    if isinstance(result, codes.DecodeError):
        residual = result.residual
    elif isinstance(result, Exception):
        return
    else:
        B = args[0]
        residual = float(np.max(np.abs(result.coefficients @ B.entries - 1.0)))
    notes = tracer.notes[tracer.run_id]
    notes["worst_residual"] = max(notes.get("worst_residual", 0.0), residual)


def _note_survivor_set(tracer, args, kwargs, result) -> None:
    _note_residual(tracer, args, kwargs, result)
    B, survivors = args[0], args[1]
    key = (B.n, B.s, B.entries.tobytes(), frozenset(int(i) for i in survivors))
    tracer.notes[tracer.run_id].setdefault("survivor_sets", set()).add(key)


def _note_patterns(tracer, args, kwargs, result) -> None:
    if not isinstance(result, Exception):
        notes = tracer.notes[tracer.run_id]
        notes["patterns"] = notes.get("patterns", 0) + len(result)


def _gd_run_span(args, kwargs) -> str:
    cfg = args[1] if len(args) > 1 else kwargs["config"]
    return f"ml.gd_run.{cfg.scheme}"


def _mc_span(args, kwargs) -> str:
    return f"latency.mc_expected_latency.{args[0]}"


def for_workload(wl) -> list[Target]:
    targets = [
        Target(config, "load_config", "config.load_config"),
        Target(config, "validate_config", "config.validate_config"),
        Target(topology, "build_tree", "topology.build_tree"),
        Target(topology, "enumerate_patterns", "topology.enumerate_patterns", _note_patterns),
        Target(codes, "validate_code", "codes.validate_code"),
        Target(codes, "decode_row", "codes.decode_row.validate", _note_residual),
        Target(engine, "decode_row", "codes.decode_row", _note_survivor_set),
        Target(ml, "generate_synthetic", "ml.generate_synthetic"),
        Target(ml, "linear_grad", "ml.oracle"),
        Target(ml, "logistic_grad", "ml.oracle"),
        Target(ml, "gd_run", _gd_run_span),
        Target(latency, "mc_expected_latency", _mc_span),
        Target(transport, "orchestrate", "transport.orchestrate"),
        Target(transport, "encode_message", "transport.encode_message"),
        Target(transport, "decode_message", "transport.decode_message"),
    ]
    for caller in (codes, ml, transport):
        targets.append(Target(caller, "build_encoding", "codes.build_encoding"))
    for caller in (allocation, ml, transport):
        targets.append(Target(caller, "cr_allocate", "allocation.cr_allocate"))
    for scheme in ("cr", "gc", "umw", "rar", "sgd"):
        targets.append(Target(engine, f"{scheme}_execute", f"engine.{scheme}_execute"))
    for caller in (latency, ml):
        targets.append(Target(caller, "simulate_iteration", "latency.simulate_iteration"))
    if getattr(wl, "oracle", None) is not None:
        targets.append(Target(wl, "oracle", "bench.identity_oracle"))
    return targets
