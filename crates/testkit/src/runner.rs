//! The property runner: per-case seed derivation, panic capture, and
//! failing-seed reporting.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::rng::{splitmix64, Rng};

/// Base seed when neither `TESTKIT_SEED` nor an explicit config overrides
/// it. A fixed default keeps CI runs hermetic and reproducible.
pub const DEFAULT_BASE_SEED: u64 = 0x6865_6170_6472_6167; // "heapdrag"

/// Runner configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of cases to run.
    pub cases: u32,
    /// Base seed; case `i` runs with `splitmix64(base ^ i)`.
    pub base_seed: u64,
}

impl Config {
    /// `cases` cases from the default base seed, then overridden by the
    /// `TESTKIT_SEED` / `TESTKIT_CASES` environment variables if set.
    pub fn from_env(cases: u32) -> Config {
        let base_seed = std::env::var("TESTKIT_SEED")
            .ok()
            .and_then(|s| parse_seed(&s))
            .unwrap_or(DEFAULT_BASE_SEED);
        let cases = std::env::var("TESTKIT_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(cases);
        Config { cases, base_seed }
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// The seed of case `case` under `base_seed`.
///
/// When replaying a reported failure, `TESTKIT_SEED` is set to the *case*
/// seed and `TESTKIT_CASES=1`, so case 0 of the replay must reproduce it:
/// `case_seed(s, 0) == splitmix64(s)` for every `s`, and the failure
/// report prints the pre-mix value.
pub fn case_seed(base_seed: u64, case: u32) -> u64 {
    splitmix64(base_seed ^ u64::from(case))
}

/// Runs `property` for `config.cases` cases, each with a fresh [`Rng`]
/// seeded deterministically from the base seed. On panic, prints the case
/// number and the `TESTKIT_SEED` value that replays exactly that case,
/// then re-raises the panic so the test harness reports a failure.
pub fn check_with(name: &str, config: Config, property: impl Fn(&mut Rng)) {
    for case in 0..config.cases {
        let replay = config.base_seed ^ u64::from(case);
        let mut rng = Rng::new(case_seed(config.base_seed, case));
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            eprintln!(
                "testkit: property `{name}` failed on case {case} of {cases}; \
                 replay with TESTKIT_SEED={replay:#x} TESTKIT_CASES=1",
                cases = config.cases,
            );
            resume_unwind(panic);
        }
    }
}

/// [`check_with`] under [`Config::from_env`] — the everyday entry point.
pub fn check(name: &str, cases: u32, property: impl Fn(&mut Rng)) {
    check_with(name, Config::from_env(cases), property);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_the_requested_number_of_cases() {
        let counter = std::cell::Cell::new(0u32);
        check_with(
            "counts",
            Config {
                cases: 17,
                base_seed: 1,
            },
            |_| counter.set(counter.get() + 1),
        );
        assert_eq!(counter.get(), 17);
    }

    #[test]
    fn cases_see_distinct_seeds() {
        let seeds = std::cell::RefCell::new(Vec::new());
        check_with(
            "seeds",
            Config {
                cases: 8,
                base_seed: 9,
            },
            |rng| seeds.borrow_mut().push(rng.next_u64()),
        );
        let mut v = seeds.borrow().clone();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 8, "every case starts from a distinct stream");
    }

    #[test]
    fn replay_seed_reproduces_the_case() {
        // The runner reports `base ^ case` as the replay seed; running one
        // case from that base must regenerate the same stream.
        let base = 0xDEAD_BEEF;
        let case = 5;
        let direct = Rng::new(case_seed(base, case)).next_u64();
        let replay = Rng::new(case_seed(base ^ case as u64, 0)).next_u64();
        assert_eq!(direct, replay);
    }

    #[test]
    fn failing_case_panics_through() {
        let result = std::panic::catch_unwind(|| {
            check_with(
                "fails",
                Config {
                    cases: 4,
                    base_seed: 2,
                },
                |rng| {
                    let v = rng.range_u64(0, 100);
                    assert!(v >= 200, "always fails");
                },
            );
        });
        assert!(result.is_err());
    }

    #[test]
    fn parse_seed_accepts_hex_and_decimal() {
        assert_eq!(parse_seed("0x10"), Some(16));
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("zz"), None);
    }
}
