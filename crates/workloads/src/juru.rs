//! `juru` — web indexing (an IBM search engine in the paper).
//!
//! The paper's finding (§3.4.1): the largest drag site allocates 100 K-char
//! arrays into a *local variable*; each array is in use for ~200 KB of
//! allocation and then drags for another ~200 KB until the local is
//! overwritten. Assigning null to the local after its last use removes a
//! third of the total drag. The program works in cycles — one per document
//! — with the same drag in every cycle.
//!
//! This model indexes `docs` documents: each cycle reads the document into
//! a large char buffer (`jdk.Str`), derives postings from it (allocation
//! that *uses* the buffer), then merges the postings (allocation that does
//! **not** use the buffer — the drag window). The revised variant nulls
//! the buffer local before the merge.

use heapdrag_vm::builder::ProgramBuilder;
use heapdrag_vm::class::Visibility;
use heapdrag_vm::program::Program;

use crate::jdk;
use crate::spec::{Variant, Workload};

/// Builds the juru program.
pub fn build(variant: Variant) -> Program {
    let mut b = ProgramBuilder::new();
    let jdk = jdk::install(&mut b, variant);

    // A posting: (docid, position) pair.
    let posting = b
        .begin_class("juru.Posting")
        .field("doc", Visibility::Private)
        .field("pos", Visibility::Private)
        .finish();
    let posting_init = b.declare_method("init", Some(posting), false, 3, 3);
    {
        let mut m = b.begin_body(posting_init);
        m.load(0).load(1).putfield_named(posting, "doc");
        m.load(0).load(2).putfield_named(posting, "pos");
        m.ret();
        m.finish();
    }
    let posting_pos = b.declare_method("pos", Some(posting), false, 1, 1);
    {
        let mut m = b.begin_body(posting_pos);
        m.load(0).getfield_named(posting, "pos").ret_val();
        m.finish();
    }
    let _ = posting_pos;

    // indexDocument(docid, bufChars, words) -> checksum
    //   locals: 0 docid, 1 bufChars, 2 words, 3 buffer, 4 postings,
    //           5 loop idx, 6 acc/scratch
    let index_doc = b.declare_method("indexDocument", None, true, 3, 7);
    {
        let mut m = b.begin_body(index_doc);
        // --- read: the big buffer (the paper's 100K char array site) ---
        m.new_obj(jdk.str_class).dup().store(3);
        m.load(1);
        m.mark("document buffer char[]").call(jdk.str_init);
        // --- index: derive postings, using the buffer -------------------
        m.new_obj(jdk.vector).dup().store(4);
        m.push_int(64).call(jdk.vec_init);
        m.push_int(0).store(5);
        m.label("index_loop");
        m.load(5).load(2).cmpge().branch("indexed");
        // posting position derived from the buffer (a buffer *use*)
        m.mark("posting").new_obj(posting).dup().store(6);
        m.load(0);
        m.load(3).call(jdk.str_len);
        m.load(5).add();
        m.call(posting_init);
        m.load(4).load(6).call(jdk.vec_add);
        m.load(5).push_int(1).add().store(5);
        m.jump("index_loop");
        m.label("indexed");
        if variant == Variant::Revised {
            // The paper's rewriting: the buffer's last use was above.
            m.push_null().store(3);
        }
        // --- merge: allocation that does not touch the buffer ------------
        m.push_int(0).store(6);
        m.push_int(0).store(5);
        m.label("merge_loop");
        m.load(5)
            .load(4)
            .call(jdk.vec_size)
            .cmpge()
            .branch("merged");
        // merge buckets: small scratch arrays (clock advances; buffer drags)
        m.push_int(24)
            .new_array()
            .dup()
            .push_int(0)
            .push_int(1)
            .astore()
            .push_int(0)
            .aload()
            .pop();
        m.load(6);
        m.load(4).load(5).call(jdk.vec_get).call_virtual("pos", 0);
        m.add().store(6);
        m.load(5).push_int(1).add().store(5);
        m.jump("merge_loop");
        m.label("merged");
        m.load(6).ret_val();
        m.finish();
    }

    // main(input = [docs, buf_chars, words])
    let main = b.declare_method("main", None, true, 1, 6);
    {
        let mut m = b.begin_body(main);
        m.call(jdk.init_locales);
        m.load(0).push_int(0).aload().store(1); // docs
        m.load(0).push_int(1).aload().store(2); // buffer chars
        m.load(0).push_int(2).aload().store(3); // words per doc
        m.push_int(0).store(4); // checksum
        m.push_int(0).store(5); // doc index
        m.label("docs_loop");
        m.load(5).load(1).cmpge().branch("done");
        m.load(4);
        m.load(5);
        // per-doc sizes vary (real documents do; this also keeps the
        // deterministic byte clock from resonating with the GC interval)
        m.load(2)
            .load(5)
            .push_int(53)
            .mul()
            .push_int(400)
            .rem()
            .add();
        m.load(3)
            .load(5)
            .push_int(17)
            .mul()
            .push_int(60)
            .rem()
            .add();
        m.call(index_doc);
        m.add().store(4);
        m.load(5).push_int(1).add().store(5);
        m.jump("docs_loop");
        m.label("done");
        m.load(4).print();
        m.ret();
        m.finish();
    }
    b.set_entry(main);
    b.finish().expect("juru builds")
}

/// The juru workload descriptor.
pub fn workload() -> Workload {
    Workload {
        name: "juru",
        description: "web indexing",
        build,
        // Cycle lengths are chosen to precess against the 100 KB deep-GC
        // interval (≈1.6–1.7 cycles per GC), so samples land throughout
        // the cycle rather than resonating with the big buffer allocation.
        default_input: || vec![10, 3600, 170],
        alternate_input: || vec![12, 5000, 85],
        rewriting: "assigning null",
        reference_kinds: "local variable",
        expected_analysis: "liveness",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_core::{profile, Integrals, SavingsReport, VmConfig};
    use heapdrag_vm::interp::Vm;

    #[test]
    fn variants_agree_on_output() {
        let w = workload();
        let input = (w.default_input)();
        let o = Vm::new(&w.original(), VmConfig::default())
            .run(&input)
            .unwrap();
        let r = Vm::new(&w.revised(), VmConfig::default())
            .run(&input)
            .unwrap();
        assert_eq!(o.output, r.output);
        assert_eq!(o.output.len(), 1, "prints one checksum");
    }

    #[test]
    fn nulling_the_buffer_saves_drag() {
        let w = workload();
        let input = (w.default_input)();
        let ro = profile(&w.original(), &input, VmConfig::profiling()).unwrap();
        let rr = profile(&w.revised(), &input, VmConfig::profiling()).unwrap();
        let s = SavingsReport::new(
            Integrals::from_records(&ro.records),
            Integrals::from_records(&rr.records),
        );
        // Paper: 33.68 % drag saving, 10.95 % space saving.
        assert!(
            s.drag_saving_pct() > 15.0 && s.drag_saving_pct() < 60.0,
            "drag saving {:.1}%",
            s.drag_saving_pct()
        );
        assert!(
            s.space_saving_pct() > 3.0,
            "space {:.1}%",
            s.space_saving_pct()
        );
    }

    #[test]
    fn buffer_site_dominates_the_drag_report() {
        let w = workload();
        let input = (w.default_input)();
        let program = w.original();
        let run = profile(&program, &input, VmConfig::profiling()).unwrap();
        let report =
            heapdrag_core::DragAnalyzer::new().analyze(&run.records, |c| run.sites.innermost(c));
        let top = &report.by_nested_site[0];
        let name = run.sites.format_chain(&program, top.site);
        assert!(
            name.contains("jdk.Str char array") || name.contains("document buffer"),
            "top drag site is the buffer: {name}"
        );
    }
}
