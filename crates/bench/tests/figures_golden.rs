//! Every line the modelled figure binaries print, pinned in one fixture.
//!
//! `fixtures/figures-golden-v1.txt` is the text of the ten figures of
//! [`reis_bench::figures`], concatenated in the order below (their binaries'
//! alphabetical order). A pricing rule or a comparator model that moves a
//! printed digit fails here, naming the figure and its first differing
//! line; the fix is a reviewed regeneration of the fixture
//! (`REIS_REGEN_FIXTURES=1 cargo test -p reis-bench --test figures_golden`).

use std::path::PathBuf;

use reis_bench::figures::{self, Figure};

type FigureFn = fn() -> Figure;

/// The ten modelled figures, by binary name.
const FIGURES: [(&str, FigureFn); 10] = [
    ("asic_comparison", figures::asic_comparison),
    ("distance_filter_study", figures::distance_filter_study),
    ("fig02_rag_breakdown", figures::fig02_rag_breakdown),
    ("fig03_rag_breakdown_bq", figures::fig03_rag_breakdown_bq),
    ("fig07_retrieval_qps", figures::fig07_retrieval_qps),
    ("fig08_energy_efficiency", figures::fig08_energy_efficiency),
    ("fig09_sensitivity", figures::fig09_sensitivity),
    ("fig10_vs_ice", figures::fig10_vs_ice),
    ("fig11_vs_ndsearch", figures::fig11_vs_ndsearch),
    ("table04_end_to_end", figures::table04_end_to_end),
];

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/figures-golden-v1.txt")
}

#[test]
fn every_figure_reproduces_the_golden_fixture() {
    let texts: Vec<(&str, String)> = FIGURES
        .iter()
        .map(|(name, figure)| (*name, figure().text))
        .collect();
    let document: String = texts.iter().map(|(_, text)| text.as_str()).collect();
    let path = fixture_path();
    if std::env::var("REIS_REGEN_FIXTURES").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &document).expect("write fixture");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden fixture {} — regenerate with REIS_REGEN_FIXTURES=1",
            path.display()
        )
    });
    if committed == document {
        return;
    }
    let mut expected = committed.lines();
    for (name, text) in &texts {
        for (line, got) in text.lines().enumerate() {
            let want = expected.next();
            assert!(
                want == Some(got),
                "{name}, line {}: the fixture has {want:?}, the figure prints {got:?}; if the \
                 change is meant, regenerate the fixture with `REIS_REGEN_FIXTURES=1 cargo test \
                 -p reis-bench --test figures_golden` and review its diff",
                line + 1
            );
        }
    }
    panic!(
        "the figures match the fixture line by line but not byte for byte (trailing lines \
         or newlines); regenerate with `REIS_REGEN_FIXTURES=1 cargo test -p reis-bench \
         --test figures_golden` and review the diff"
    );
}
