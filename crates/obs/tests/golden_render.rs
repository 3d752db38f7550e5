//! Golden snapshot tests: both render formats are pinned byte-for-byte.
//!
//! These strings are load-bearing — CI diffs metric dumps, so any change
//! to the layout is a breaking change and must be made here deliberately.

use heapdrag_obs::Registry;

/// One registry exercising every metric type, labels, and negatives.
fn golden_registry() -> Registry {
    let registry = Registry::new();
    registry.counter("alpha_total").add(3);
    registry
        .counter("vm_dispatch_total{class=\"arith\"}")
        .add(7);
    registry.gauge("beta_bytes").set(-2);
    let span_us = registry.histogram("span_us");
    span_us.observe(0); // bucket bound 0
    span_us.observe(1); // bucket bound 1
    span_us.observe(5); // bucket bound 7
    span_us.observe(1_000_000); // bucket bound 2^20 - 1
    registry
}

#[test]
fn golden_json() {
    let expected = r#"{
  "counters": {
    "alpha_total": 3,
    "vm_dispatch_total{class=\"arith\"}": 7
  },
  "gauges": {
    "beta_bytes": -2
  },
  "histograms": {
    "span_us": {"count": 4, "sum": 1000006, "buckets": [[0, 1], [1, 1], [7, 1], [1048575, 1]]}
  }
}
"#;
    assert_eq!(golden_registry().render_json(), expected);
}

#[test]
fn golden_prometheus() {
    let expected = "\
# TYPE alpha_total counter
alpha_total 3
# TYPE vm_dispatch_total counter
vm_dispatch_total{class=\"arith\"} 7
# TYPE beta_bytes gauge
beta_bytes -2
# TYPE span_us histogram
span_us_bucket{le=\"0\"} 1
span_us_bucket{le=\"1\"} 2
span_us_bucket{le=\"7\"} 3
span_us_bucket{le=\"1048575\"} 4
span_us_bucket{le=\"+Inf\"} 4
span_us_sum 1000006
span_us_count 4
";
    assert_eq!(golden_registry().render_prometheus(), expected);
}

#[test]
fn empty_registry_renders_fixed_skeleton() {
    let registry = Registry::new();
    assert_eq!(
        registry.render_json(),
        "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}\n"
    );
    assert_eq!(registry.render_prometheus(), "");
}

#[test]
fn renders_are_reproducible() {
    // Two registries populated identically render identical bytes,
    // regardless of registration order.
    let a = golden_registry();
    let b = Registry::new();
    let span_us = b.histogram("span_us");
    b.gauge("beta_bytes").set(-2);
    b.counter("vm_dispatch_total{class=\"arith\"}").add(7);
    for v in [1_000_000, 5, 1, 0] {
        span_us.observe(v);
    }
    b.counter("alpha_total").add(3);
    assert_eq!(a.render_json(), b.render_json());
    assert_eq!(a.render_prometheus(), b.render_prometheus());
}
