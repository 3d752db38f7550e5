//! Blocks of EXPERIMENTS.md pinned to the code that renders them.
//!
//! A pinned block is the fenced block on the lines right after a
//! `<!-- pinned: <name> -->` marker. [`check`] compares rendered text with
//! those blocks byte for byte; with `HEAPDRAG_BLESS` set it rewrites the
//! stale blocks in place instead, following `tests/golden_logs.rs`.

use std::ops::Range;

/// The document whose blocks are pinned.
pub const DOC: &str = "EXPERIMENTS.md";

/// Byte range of the body of the fenced block after `name`'s marker.
fn body(doc: &str, name: &str) -> Option<Range<usize>> {
    let open = format!("<!-- pinned: {name} -->\n```\n");
    let start = doc.find(&open)? + open.len();
    let end = start + doc[start..].find("\n```\n")? + 1;
    Some(start..end)
}

/// The first line where `want` and `got` differ, for a failure message.
fn first_difference(want: &str, got: &str) -> String {
    let same = want
        .lines()
        .zip(got.lines())
        .take_while(|(a, b)| a == b)
        .count();
    format!(
        "line {}\n    doc:      {}\n    rendered: {}",
        same + 1,
        want.lines().nth(same).unwrap_or("<end of block>"),
        got.lines().nth(same).unwrap_or("<end of block>")
    )
}

/// Compares each `(name, rendered)` pair with its pinned block.
///
/// # Panics
///
/// When a name has no pinned block, or, without `HEAPDRAG_BLESS`, when a
/// block differs from its rendering; the message names every such section.
pub fn check(rendered: &[(&str, String)]) {
    let mut doc = std::fs::read_to_string(DOC).expect("EXPERIMENTS.md is committed");
    let mut stale = Vec::new();
    for (name, text) in rendered {
        let range = body(&doc, name).unwrap_or_else(|| {
            panic!("{DOC} has no fenced block after a `<!-- pinned: {name} -->` line")
        });
        if doc[range.clone()] != **text {
            stale.push(format!(
                "  {name}: {}",
                first_difference(&doc[range.clone()], text)
            ));
            doc.replace_range(range, text);
        }
    }
    if std::env::var_os("HEAPDRAG_BLESS").is_some() {
        if !stale.is_empty() {
            std::fs::write(DOC, &doc).expect("write EXPERIMENTS.md");
        }
        return;
    }
    assert!(
        stale.is_empty(),
        "{} pinned block(s) of {DOC} differ from their rendering; after an intended \
         change, rerun with HEAPDRAG_BLESS=1 and review the diff:\n{}",
        stale.len(),
        stale.join("\n")
    );
}
