//! Workload descriptors: each of the paper's nine benchmarks, in an
//! *original* and a *manually revised* form, with a default and an
//! alternate input (Tables 2 and 3).

use heapdrag_vm::program::Program;

/// Which source variant to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The benchmark as written, with its drag.
    Original,
    /// The benchmark after the paper's manual rewritings.
    Revised,
}

/// One benchmark program.
pub struct Workload {
    /// Short name (matches the paper's Table 1).
    pub name: &'static str,
    /// One-line description (Table 1's last column).
    pub description: &'static str,
    /// Builds the requested variant.
    pub build: fn(Variant) -> Program,
    /// The input the tool is applied to (Table 2).
    pub default_input: fn() -> Vec<i64>,
    /// A second input (Table 3).
    pub alternate_input: fn() -> Vec<i64>,
    /// Rewriting strategies applied, as in Table 5.
    pub rewriting: &'static str,
    /// Reference kinds rewritten, as in Table 5.
    pub reference_kinds: &'static str,
    /// Static analysis expected to automate it, as in Table 5.
    pub expected_analysis: &'static str,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("description", &self.description)
            .finish()
    }
}

impl Workload {
    /// Builds the original variant.
    pub fn original(&self) -> Program {
        (self.build)(Variant::Original)
    }

    /// Builds the revised variant.
    pub fn revised(&self) -> Program {
        (self.build)(Variant::Revised)
    }

    /// Static "source statement" count of the original (Table 1's stand-in).
    pub fn code_stmts(&self) -> usize {
        self.original().code_size()
    }

    /// Application class count of the original (Table 1), excluding the
    /// six builtin classes.
    pub fn class_count(&self) -> usize {
        self.original().classes.len().saturating_sub(6)
    }
}

/// All nine benchmarks in Table 1 order.
pub fn all_workloads() -> Vec<Workload> {
    vec![
        crate::javac::workload(),
        crate::db::workload(),
        crate::jack::workload(),
        crate::raytrace::workload(),
        crate::jess::workload(),
        crate::mc::workload(),
        crate::euler::workload(),
        crate::juru::workload(),
        crate::analyzer::workload(),
    ]
}

/// Finds a workload by name.
pub fn workload_by_name(name: &str) -> Option<Workload> {
    all_workloads().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_workloads_with_unique_names() {
        let all = all_workloads();
        assert_eq!(all.len(), 9);
        let mut names: Vec<&str> = all.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 9);
    }

    #[test]
    fn lookup_by_name() {
        assert!(workload_by_name("juru").is_some());
        assert!(workload_by_name("nope").is_none());
    }

    #[test]
    fn every_variant_passes_the_bytecode_verifier() {
        for w in all_workloads() {
            for mut p in [w.original(), w.revised()] {
                p.link().unwrap_or_else(|e| panic!("{}: {e}", w.name));
            }
        }
    }

    #[test]
    fn variants_agree_on_both_inputs() {
        use heapdrag_vm::interp::{Vm, VmConfig};
        for w in all_workloads() {
            for input in [(w.default_input)(), (w.alternate_input)()] {
                let o = Vm::new(&w.original(), VmConfig::default())
                    .run(&input)
                    .unwrap();
                let r = Vm::new(&w.revised(), VmConfig::default())
                    .run(&input)
                    .unwrap();
                assert_eq!(o.output, r.output, "{} on {input:?}", w.name);
            }
        }
    }
}
