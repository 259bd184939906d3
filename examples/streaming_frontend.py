"""Parse-while-allocate: the streaming front end, end to end.

The offline pipeline parses a whole program, elaborates it, and only
then allocates.  The streaming front end overlaps all three: surface
text (``iter_program``) and OpenQASM (``iter_qasm_gates``) yield gates
as they are parsed, the ``StreamingAllocator`` consumes them behind a
commit horizon of 8 gates, and ``MultiProgrammer.admit_stream`` admits
a job on a *prefix* — the lease is granted before the tail of the
program has even been read.

The walk-through below shows

* gates flowing out of the surface parser straight into the online
  allocator, one pass, no intermediate program object, and
* prefix admission: time-to-first-lease is one prefix, not one parse.

Run:  python examples/streaming_frontend.py
"""

from repro.alloc import StreamingAllocator
from repro.circuits import Circuit, cnot, iter_qasm_gates
from repro.lang.surface import iter_program
from repro.lang.surface.sources import adder_qbr_source
from repro.multiprog import MultiProgrammer, QuantumJob


def parse_while_allocate() -> None:
    print("=== surface text -> gates -> placements, one pass ===")
    source = adder_qbr_source(8)
    stream = iter_program(source)
    allocator = None
    for count, gate in enumerate(stream, start=1):
        if allocator is None:
            # The register width is known as soon as the declarations
            # have streamed past — long before the last gate exists.
            allocator = StreamingAllocator(
                stream.num_wires, [], lookahead=8
            )
        allocator.feed(gate)
    program = stream.result()
    dirty = sorted(program.dirty_wires)
    print(f"adder(8): {count} gates streamed, "
          f"{program.circuit.num_qubits} wires, {len(dirty)} dirty borrows")
    print(f"allocator saw every gate mid-parse: "
          f"{allocator.stats.gates == count}")
    allocator.close()


def prefix_admission() -> None:
    print("\n=== admit on a prefix: the lease beats the parse ===")
    header = "OPENQASM 2.0;\nqreg q[4];\n"
    # A safe dirty-borrow prefix on q[3] ...
    prefix_text = (
        "ccx q[0],q[1],q[3];\ncx q[3],q[2];\n"
        "ccx q[0],q[1],q[3];\ncx q[3],q[2];\n"
    )
    # ... followed by a long tail that never touches q[3] again.
    tail = "x q[0];\ncx q[0],q[1];\n" * 500
    text = header + prefix_text + tail

    mp = MultiProgrammer(9)
    lender = Circuit(5).extend([cnot(0, 1), cnot(1, 2)])
    mp.admit(QuantumJob("lender", lender, []))

    stream = iter_qasm_gates(text)
    prefix = [next(stream) for _ in range(4)]
    handle = mp.admit_stream(
        "guest", stream.num_qubits, [3], prefix=prefix
    )
    granted = list(handle.admission.leases)
    print(f"resident after 4 of {4 + 1000} gates; "
          f"leases granted on wires {granted}")
    handle.extend(stream)  # the tail arrives while the job is resident
    handle.close()
    streaming = mp.stats()["streaming"]
    print(f"stream counters: admissions={streaming['admissions']} "
          f"refinements={streaming['refinements']} "
          f"revoked={streaming['revoked_to_queue']}")


def main() -> None:
    parse_while_allocate()
    prefix_admission()


if __name__ == "__main__":
    main()
