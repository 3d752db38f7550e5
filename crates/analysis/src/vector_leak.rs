//! Array-liveness idiom detection (§5.2): vector-like classes that remove
//! a logically-last element by decrementing a size field **without**
//! nulling the array slot leak the removed element — the `jess` bug the
//! paper fixes and the case its array-liveness analysis \[24\] detects.

use heapdrag_vm::ids::{ClassId, MethodId};
use heapdrag_vm::insn::Insn;
use heapdrag_vm::program::Program;

use crate::provenance::{infer_provenance, Prov};

/// A vector-style removal that leaks the removed element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorLeak {
    /// The vector-like class.
    pub class: ClassId,
    /// The method performing the size decrement.
    pub method: MethodId,
    /// pc of the `putfield` that shrinks the size.
    pub shrink_pc: u32,
    /// Layout slot of the size field.
    pub size_slot: u16,
}

/// Scans all instance methods for the leaky-removal idiom:
///
/// * the method loads `this.f`, subtracts, and stores back to `this.f`
///   (a size decrement), and
/// * the method performs **no** `astore` of `null` into any array.
///
/// A method that decrements *and* nulls (`elements[--size] = null`) is the
/// fixed form and is not reported.
pub fn find_vector_leaks(program: &Program) -> Vec<VectorLeak> {
    let mut leaks = Vec::new();
    for mid in 0..program.methods.len() as u32 {
        let mid = MethodId(mid);
        let method = &program.methods[mid.index()];
        let Some(class) = method.class else { continue };
        if method.is_static {
            continue;
        }
        let Some(prov) = infer_provenance(program, mid) else {
            continue;
        };

        // Does the method null an array element anywhere?
        let nulls_element = method.code.iter().enumerate().any(|(pc, insn)| {
            matches!(insn, Insn::AStore) && prov.stack(pc as u32, 0) == Prov::NullConst
        });
        if nulls_element {
            continue;
        }

        // Find `putfield this.slot` whose value came through a `sub`, with
        // a matching `getfield this.slot` earlier in the method.
        for (pc, insn) in method.code.iter().enumerate() {
            let pc = pc as u32;
            let Insn::PutField(slot) = insn else { continue };
            if prov.stack(pc, 1) != Prov::This {
                continue;
            }
            // Value must be produced by an arithmetic `sub` immediately
            // before (the `size - 1` shape).
            let produced_by_sub = pc > 0 && matches!(method.code[pc as usize - 1], Insn::Sub);
            if !produced_by_sub {
                continue;
            }
            let reads_same_field = method.code.iter().enumerate().any(|(p2, i2)| {
                matches!(i2, Insn::GetField(s2) if s2 == slot)
                    && prov.stack(p2 as u32, 0) == Prov::This
            });
            if reads_same_field {
                leaks.push(VectorLeak {
                    class,
                    method: mid,
                    shrink_pc: pc,
                    size_slot: *slot,
                });
            }
        }
    }
    leaks
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_vm::builder::ProgramBuilder;
    use heapdrag_vm::class::Visibility;

    /// Builds a vector class whose `removeLast` optionally nulls the slot.
    fn vector_program(null_on_remove: bool) -> (Program, MethodId) {
        let mut b = ProgramBuilder::new();
        let vec = b
            .begin_class("Vec")
            .field("elements", Visibility::Private)
            .field("size", Visibility::Private)
            .finish();
        let remove = b.declare_method("removeLast", Some(vec), false, 1, 2);
        {
            let mut m = b.begin_body(remove);
            // size = size - 1
            m.load(0)
                .load(0)
                .getfield_named(vec, "size")
                .push_int(1)
                .sub();
            m.putfield_named(vec, "size");
            if null_on_remove {
                // elements[size] = null
                m.load(0).getfield_named(vec, "elements");
                m.load(0).getfield_named(vec, "size");
                m.push_null().astore();
            }
            m.ret();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.new_obj(vec).store(1);
            m.load(1)
                .push_int(4)
                .new_array()
                .putfield_named(vec, "elements");
            m.load(1).push_int(1).putfield_named(vec, "size");
            m.load(1).call_virtual("removeLast", 0);
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        (b.finish().unwrap(), remove)
    }

    #[test]
    fn leaky_remove_detected() {
        let (p, remove) = vector_program(false);
        let leaks = find_vector_leaks(&p);
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].method, remove);
        assert_eq!(p.classes[leaks[0].class.index()].name, "Vec");
    }

    #[test]
    fn fixed_remove_not_reported() {
        let (p, _) = vector_program(true);
        assert!(find_vector_leaks(&p).is_empty());
    }

    #[test]
    fn plain_setter_not_reported() {
        // A method writing a field without the decrement shape.
        let mut b = ProgramBuilder::new();
        let c = b.begin_class("C").field("x", Visibility::Private).finish();
        let set = b.declare_method("set", Some(c), false, 2, 2);
        {
            let mut m = b.begin_body(set);
            m.load(0).load(1).putfield(0);
            m.ret();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.new_obj(c).push_int(1).call(set);
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        assert!(find_vector_leaks(&p).is_empty());
    }
}
