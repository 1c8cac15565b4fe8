"""Fixed calls that give every per-layer figure a measurement on every workload.

A traced run times the calls its own ops make.  The probe adds a few calls of
each public function on fixed inputs (spans with op id -1), used only for a
call the workload never makes, and times interpreter start-up and
``import hyperq`` in child processes.
"""

from __future__ import annotations

import json
import random
import statistics
import time

import workloads
from workloads import Layers, born_pair, run_child, sweep_input

REPEATS = 20
CHILD_REPEATS = 3


def layer_calls(tracer, workdir):
    """REPEATS traced calls of every public function the ops use."""
    L = Layers(tracer)
    tracer.op = -1
    state, matrix, _ = born_pair(random.Random(0), "valid")
    state_file, matrix_file = workdir / "probe_state.json", workdir / "probe_matrix.json"
    state_file.write_text(json.dumps(state))
    matrix_file.write_text(json.dumps(matrix))
    p1, p2, _, sign, thetas, _ = sweep_input(random.Random(0), 0, 8)
    argvs = {
        "classify": ["classify", "--p1", "0.3", "--p2", "0.6", "--pprime", "1.2"],
        "verify": ["verify", "--matrix", str(matrix_file)],
        "transform": ["transform", "--state", str(state_file), "--matrix", str(matrix_file)],
        "witness": ["witness", "--seed", "1"],
        "interfere": ["interfere", "--law", "hyp", "--p1", "0.3", "--p2", "0.6",
                      "--theta-min", "0", "--theta-max", "2", "--steps", "50"],
    }
    for _ in range(REPEATS):
        beta, basis = L.vec_from_list(state), L.mat_from_list(matrix)
        L.verify(basis)
        alpha = L.change_basis(beta, basis)
        L.decompose(alpha)
        L.norm_sq(alpha.c1)
        L.transform_probabilities(L.extract_model(beta, basis))
        for theta in thetas:
            L.classify(L.trig_law(p1, p2, theta), p1, p2)
            L.classify(L.hyp_law(p1, p2, theta, sign), p1, p2)
        w = L.search(1, 10_000)
        L.verify_witness(w)
        for sub, argv in argvs.items():
            L.call(f"cli.main.{sub}", workloads.run_main, argv)


def import_times(root):
    """Median start-up, ``import hyperq`` and ``import numpy`` times in ms.

    Start-up is the wall time of ``python -c pass``; the import times are the
    cumulative figures of ``python -X importtime -c 'import hyperq'``.
    """
    env = workloads.child_env(root)
    startup, hyperq, numpy = [], [], []
    for _ in range(CHILD_REPEATS):
        t0 = time.perf_counter()
        run_child(root, env, ["-c", "pass"])
        startup.append((time.perf_counter() - t0) * 1e3)
        _, _, err = run_child(root, env, ["-X", "importtime", "-c", "import hyperq"])
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e3
        hyperq.append(cumulative["hyperq"])
        numpy.append(cumulative.get("numpy", 0.0))
    return {
        "cli.startup_ms": statistics.median(startup),
        "cli.import_ms": statistics.median(hyperq),
        "cli.import_numpy_ms": statistics.median(numpy),
    }
