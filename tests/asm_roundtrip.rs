//! Assembler/disassembler round-trips over the real benchmark programs:
//! the textual form of every workload must reassemble into a program with
//! identical behaviour.

use heapdrag::vm::asm::assemble;
use heapdrag::vm::disasm::disassemble;
use heapdrag::vm::{Vm, VmConfig};
use heapdrag::workloads::all_workloads;

#[test]
fn every_workload_roundtrips_through_assembly() {
    for w in all_workloads() {
        let original = w.original();
        let text = disassemble(&original);
        let reassembled =
            assemble(&text).unwrap_or_else(|e| panic!("{}: reassembly failed: {e}", w.name));
        let input = (w.default_input)();
        let out1 = Vm::new(&original, VmConfig::default())
            .run(&input)
            .expect("original runs");
        let out2 = Vm::new(&reassembled, VmConfig::default())
            .run(&input)
            .expect("reassembled runs");
        assert_eq!(out1.output, out2.output, "{}", w.name);
        assert_eq!(
            out1.heap.allocated_bytes, out2.heap.allocated_bytes,
            "{}: same allocation behaviour",
            w.name
        );
    }
}

#[test]
fn disassembly_is_stable() {
    // Disassembling the reassembled program gives the same text (a fixed
    // point after one round).
    let w = heapdrag::workloads::workload_by_name("jess").unwrap();
    let p1 = w.original();
    let t1 = disassemble(&p1);
    let p2 = assemble(&t1).expect("assembles");
    let t2 = disassemble(&p2);
    assert_eq!(t1, t2);
}
