//! The committed EXPERIMENTS.md is `harness report`'s render of the
//! committed `BENCH_*.json` reports, byte for byte: no table in it is
//! typed by hand, and none has drifted from its file.

use std::path::Path;

use conquer_bench::report::{render_document, DOCUMENT};

#[test]
fn experiments_md_is_the_render_of_the_tracked_reports() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let committed = std::fs::read_to_string(root.join(DOCUMENT)).expect("EXPERIMENTS.md");
    let rendered = render_document(&root).unwrap_or_else(|e| panic!("{DOCUMENT}: {e}"));
    let lines = |text: &str| text.lines().count();
    let differs = committed
        .lines()
        .zip(rendered.lines())
        .position(|(a, b)| a != b);
    let first_difference = differs.unwrap_or(lines(&committed).min(lines(&rendered)));
    assert!(
        committed == rendered,
        "{DOCUMENT} differs from its render from line {}: run `harness report` at the \
         repository root",
        first_difference + 1
    );
}
