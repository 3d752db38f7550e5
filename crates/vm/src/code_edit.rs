//! In-place bytecode surgery: inserting and replacing instructions while
//! keeping jump targets, exception-handler ranges, and site labels
//! consistent.
//!
//! The program transformations of the `heapdrag-transform` crate are
//! expressed with these primitives.

use crate::class::Method;
use crate::insn::Insn;

/// Inserts `insns` at `at`, shifting the instructions previously at
/// `at..` forward.
///
/// Jump targets strictly beyond `at` are adjusted; a jump *to* `at` now
/// lands on the first inserted instruction (so guards inserted before an
/// instruction dominate every path into it). Handler boundaries follow the
/// same rule; site labels move with the instruction they annotate.
///
/// # Panics
///
/// Panics if `at` is beyond the end of the method.
pub fn insert_at(method: &mut Method, at: u32, insns: &[Insn]) {
    let len = method.code.len() as u32;
    assert!(at <= len, "insertion point {at} beyond method end {len}");
    let k = insns.len() as u32;
    if k == 0 {
        return;
    }
    let shift = |t: u32| if t > at { t + k } else { t };
    for insn in method.code.iter_mut() {
        if let Some(t) = insn.jump_target() {
            *insn = insn.with_jump_target(shift(t));
        }
    }
    for h in method.handlers.iter_mut() {
        h.start_pc = shift(h.start_pc);
        h.end_pc = shift(h.end_pc);
        h.handler_pc = shift(h.handler_pc);
    }
    let labels = std::mem::take(&mut method.site_labels);
    method.site_labels = labels
        .into_iter()
        .map(|(pc, l)| (if pc >= at { pc + k } else { pc }, l))
        .collect();
    method
        .code
        .splice(at as usize..at as usize, insns.iter().copied());
    // Inserted jumps carry absolute targets computed against the *new*
    // layout by the caller; nothing further to fix here.
}

/// Replaces the instruction at `pc` with `insn` (same length, so no target
/// fixups are needed).
///
/// # Panics
///
/// Panics if `pc` is out of range.
pub fn replace_at(method: &mut Method, pc: u32, insn: Insn) {
    let slot = method
        .code
        .get_mut(pc as usize)
        .unwrap_or_else(|| panic!("pc {pc} out of range"));
    *slot = insn;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn method_with(code: Vec<Insn>) -> Method {
        let mut m = Method::new("f", 0, 4);
        m.code = code;
        m
    }

    #[test]
    fn insert_shifts_later_targets() {
        // 0: jump 3 ; 1: nop ; 2: nop ; 3: ret
        let mut m = method_with(vec![Insn::Jump(3), Insn::Nop, Insn::Nop, Insn::Ret]);
        insert_at(&mut m, 2, &[Insn::PushNull, Insn::Store(0)]);
        assert_eq!(m.code.len(), 6);
        assert_eq!(m.code[0], Insn::Jump(5), "target after point shifts");
        assert_eq!(m.code[2], Insn::PushNull);
        assert_eq!(m.code[5], Insn::Ret);
    }

    #[test]
    fn jump_to_insertion_point_executes_inserted_code() {
        // 0: jump 1 ; 1: ret  — insert guard at 1
        let mut m = method_with(vec![Insn::Jump(1), Insn::Ret]);
        insert_at(&mut m, 1, &[Insn::Nop]);
        assert_eq!(m.code[0], Insn::Jump(1), "jump still lands at pc 1");
        assert_eq!(m.code[1], Insn::Nop, "which is now the inserted code");
        assert_eq!(m.code[2], Insn::Ret);
    }

    #[test]
    fn handlers_and_labels_shift() {
        let mut m = method_with(vec![Insn::Nop, Insn::Nop, Insn::Ret]);
        m.handlers.push(crate::class::Handler {
            start_pc: 0,
            end_pc: 2,
            handler_pc: 2,
            catch: None,
        });
        m.site_labels.insert(1, "site".into());
        insert_at(&mut m, 1, &[Insn::Nop, Insn::Nop]);
        let h = m.handlers[0];
        assert_eq!((h.start_pc, h.end_pc, h.handler_pc), (0, 4, 4));
        assert_eq!(m.site_label(3), Some("site"), "label follows its insn");
        assert_eq!(m.site_label(1), None);
    }

    #[test]
    fn insert_at_end_appends() {
        let mut m = method_with(vec![Insn::Ret]);
        insert_at(&mut m, 1, &[Insn::Nop]);
        assert_eq!(m.code, vec![Insn::Ret, Insn::Nop]);
    }

    #[test]
    fn replace_swaps_one_instruction() {
        let mut m = method_with(vec![Insn::Nop, Insn::Ret]);
        replace_at(&mut m, 0, Insn::PushNull);
        assert_eq!(m.code[0], Insn::PushNull);
    }

    #[test]
    #[should_panic(expected = "beyond method end")]
    fn insert_past_end_panics() {
        let mut m = method_with(vec![Insn::Ret]);
        insert_at(&mut m, 5, &[Insn::Nop]);
    }
}
