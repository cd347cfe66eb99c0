"""One set-up, timed in a fresh interpreter: ``setup_s`` of the benchmark.

Times everything a workload pays before its first simulated cycle: importing
``repro``, opening a run ledger with its first identity (git SHA and code
digest), and building the first network and its simulator.  Interpreter
start-up is not included.  Prints ``{"setup_s": seconds}``.

    python3 perfbench/setup_probe.py SRC_DIR STORE_DIR CONFIG LOAD SEED MESH
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> None:
    src, store, config_name, load, seed, mesh_size = argv
    sys.path.insert(0, src)
    import repro
    from repro.harness.experiment import build_network
    from repro.harness.presets import get_preset
    from repro.obs.ledger import RunLedger
    from repro.sim.kernel import Simulator
    from repro.topology.mesh import Mesh2D

    config = getattr(repro, config_name)
    mesh = Mesh2D(int(mesh_size), int(mesh_size))
    RunLedger(store).experiment_identity(
        config=config,
        offered_load=float(load),
        packet_length=5,
        seed=int(seed),
        preset=get_preset("quick"),
        mesh=mesh,
        traffic="uniform",
        injection_process="periodic",
        streaming=False,
        check_invariants=False,
        network_kwargs={},
    )
    network = build_network(config, float(load), seed=int(seed), mesh=mesh)
    Simulator(network)
    print(json.dumps({"setup_s": time.perf_counter() - START}))


if __name__ == "__main__":
    main(sys.argv[1:])
