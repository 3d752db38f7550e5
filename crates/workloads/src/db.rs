//! `db` — SPECjvm98 database simulation.
//!
//! The paper's §3.4 pattern 4 example — the one benchmark with **no**
//! savings: "there may be a large repository of objects … A query on the
//! repository leads to a use of an object. However, each query accesses
//! only a small number of objects and the queries are spread out over the
//! whole application. Nevertheless the repository and all objects in it
//! need to be kept as the exact queries cannot be predicted in advance."
//!
//! Both variants build the identical program; Table 2 reports ~0 % savings
//! for db and Figure 2 omits its panel.

use heapdrag_vm::builder::ProgramBuilder;
use heapdrag_vm::class::Visibility;
use heapdrag_vm::program::Program;

use crate::jdk;
use crate::spec::{Variant, Workload};

/// Builds the db program (identical for both variants).
pub fn build(_variant: Variant) -> Program {
    let mut b = ProgramBuilder::new();
    // The repository is long-lived whichever JDK it runs on; use the
    // original JDK in both variants so the programs are truly identical.
    let jdk = jdk::install(&mut b, Variant::Original);

    let record = b
        .begin_class("db.Record")
        .field("key", Visibility::Private)
        .field("payload", Visibility::Private)
        .finish();
    let record_init = b.declare_method("init", Some(record), false, 2, 2);
    {
        let mut m = b.begin_body(record_init);
        m.load(0).load(1).putfield_named(record, "key");
        m.load(0).push_int(16);
        m.mark("record payload")
            .new_array()
            .putfield_named(record, "payload");
        m.ret();
        m.finish();
    }
    let record_probe = b.declare_method("probe", Some(record), false, 1, 1);
    {
        let mut m = b.begin_body(record_probe);
        m.load(0).getfield_named(record, "key");
        m.load(0).getfield_named(record, "payload").array_len();
        m.add().ret_val();
        m.finish();
    }
    let _ = record_probe;

    // main(input = [records, queries, seed])
    let main = b.declare_method("main", None, true, 1, 8);
    {
        // locals: 1 records, 2 queries, 3 seed, 4 repo, 5 i, 6 acc, 7 rec
        let mut m = b.begin_body(main);
        m.load(0).push_int(0).aload().store(1);
        m.load(0).push_int(1).aload().store(2);
        m.load(0).push_int(2).aload().store(3);
        // build the repository
        m.new_obj(jdk.vector).dup().store(4);
        m.load(1).call(jdk.vec_init);
        m.push_int(0).store(5);
        m.label("build");
        m.load(5).load(1).cmpge().branch("built");
        m.mark("repository record").new_obj(record).dup().store(7);
        m.load(5).call(record_init);
        m.load(4).load(7).call(jdk.vec_add);
        m.load(5).push_int(1).add().store(5);
        m.jump("build");
        m.label("built");
        // run queries: LCG chooses a record; each query allocates a small
        // result buffer (the spread-out churn the paper describes)
        m.push_int(0).store(6);
        m.push_int(0).store(5);
        m.label("query");
        m.load(5).load(2).cmpge().branch("queried");
        // seed = (seed * 1103515245 + 12345) mod 2^31
        m.load(3).push_int(1103515245).mul().push_int(12345).add();
        m.push_int(2147483647).rem().store(3);
        m.push_int(12)
            .mark("query result buffer")
            .new_array()
            .dup()
            .push_int(0)
            .push_int(1)
            .astore()
            .push_int(0)
            .aload()
            .pop();
        m.load(6);
        m.load(4);
        m.load(3).load(1).rem(); // index = seed % records (seed >= 0)
        m.call(jdk.vec_get).call_virtual("probe", 0);
        m.add().store(6);
        m.load(5).push_int(1).add().store(5);
        m.jump("query");
        m.label("queried");
        m.load(6).print();
        m.ret();
        m.finish();
    }
    b.set_entry(main);
    b.finish().expect("db builds")
}

/// The db workload descriptor.
pub fn workload() -> Workload {
    Workload {
        name: "db",
        description: "database simulation",
        build,
        // 400 records, 2500 queries.
        default_input: || vec![400, 2500, 42],
        alternate_input: || vec![300, 3000, 7],
        rewriting: "none applicable",
        reference_kinds: "-",
        expected_analysis: "-",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_core::{profile, Integrals, SavingsReport, VmConfig};
    use heapdrag_vm::interp::Vm;

    #[test]
    fn variants_are_identical() {
        let w = workload();
        let input = (w.default_input)();
        let o = Vm::new(&w.original(), VmConfig::default())
            .run(&input)
            .unwrap();
        let r = Vm::new(&w.revised(), VmConfig::default())
            .run(&input)
            .unwrap();
        assert_eq!(o.output, r.output);
        assert_eq!(o.heap.allocated_bytes, r.heap.allocated_bytes);
    }

    #[test]
    fn no_savings_for_db() {
        let w = workload();
        let input = (w.default_input)();
        let ro = profile(&w.original(), &input, VmConfig::profiling()).unwrap();
        let rr = profile(&w.revised(), &input, VmConfig::profiling()).unwrap();
        let s = SavingsReport::new(
            Integrals::from_records(&ro.records),
            Integrals::from_records(&rr.records),
        );
        assert!(
            s.drag_saving_pct().abs() < 1.0,
            "drag {:.2}%",
            s.drag_saving_pct()
        );
        assert!(
            s.space_saving_pct().abs() < 1.0,
            "space {:.2}%",
            s.space_saving_pct()
        );
    }

    #[test]
    fn repository_records_show_high_variance_or_spread_use() {
        // Pattern 4: drag spread — queries touch records at unpredictable
        // times, so per-record drag varies widely.
        let w = workload();
        let program = w.original();
        let run = profile(&program, &(w.default_input)(), VmConfig::profiling()).unwrap();
        let report =
            heapdrag_core::DragAnalyzer::new().analyze(&run.records, |c| run.sites.innermost(c));
        let entry = report
            .by_nested_site
            .iter()
            .find(|e| {
                run.sites
                    .format_chain(&program, e.site)
                    .contains("repository record")
            })
            .expect("record site profiled");
        use heapdrag_core::LifetimePattern::*;
        assert!(
            matches!(entry.stats.pattern, HighVariance | Mixed),
            "no actionable pattern at the repository site, got {}",
            entry.stats.pattern
        );
    }
}
