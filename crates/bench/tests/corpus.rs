//! External-design corpus integration: every checked-in `.aag`/`.blif`
//! design must ingest through the unified `Design` frontend, survive the
//! full five-stage flow (build→map→detect→phase→dff) with a clean timing
//! audit, round-trip write→read→write byte-identically (the corpus is
//! stored in canonical form, so the bytes must equal the on-disk file), and
//! reproduce the committed golden batch table.

use sfq_bench::corpus::{corpus_dir, format_corpus_table, load_corpus, run_corpus};
use sfq_core::{run_flow, FlowConfig};
use sfq_netlist::design::{Design, DesignFormat};

#[test]
fn corpus_has_both_formats_and_enough_designs() {
    let designs = load_corpus(&corpus_dir()).expect("corpus loads");
    assert!(
        designs.len() >= 6,
        "corpus must hold at least six designs, found {}",
        designs.len()
    );
    for format in [DesignFormat::Aag, DesignFormat::Blif] {
        assert!(
            designs.iter().any(|(_, d)| d.format == format),
            "corpus must cover {format}"
        );
    }
}

#[test]
fn every_corpus_design_runs_the_full_flow_and_audits() {
    for (file, design) in load_corpus(&corpus_dir()).expect("corpus loads") {
        let res = run_flow(&design.aig, &FlowConfig::t1(4))
            .unwrap_or_else(|e| panic!("{file}: flow failed: {e}"));
        res.timed
            .audit()
            .unwrap_or_else(|e| panic!("{file}: audit failed: {e}"));
        let baseline = run_flow(&design.aig, &FlowConfig::multiphase(4))
            .unwrap_or_else(|e| panic!("{file}: 4φ flow failed: {e}"));
        assert!(
            res.report.area <= baseline.report.area,
            "{file}: T1 flow must never cost area over the 4φ baseline"
        );
    }
}

#[test]
fn every_corpus_file_is_canonical_and_round_trips_bytewise() {
    let dir = corpus_dir();
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("corpus dir") {
        let path = entry.expect("dir entry").path();
        if !matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("aag") | Some("blif")
        ) {
            continue;
        }
        let original = std::fs::read_to_string(&path).expect("read corpus file");
        let design = Design::read(&path).expect("corpus file parses");
        let rewritten = design.write_native();
        assert_eq!(
            rewritten,
            original,
            "{}: corpus files are stored canonically; regenerate with \
             `cargo run -p sfq-bench --bin gen_corpus`",
            path.display()
        );
        // And the fixpoint holds for another cycle.
        let again = Design::parse(&rewritten, design.format, "rt").expect("rewrite parses");
        assert_eq!(
            again.write_native(),
            rewritten,
            "{}: write→read→write must be byte-identical",
            path.display()
        );
        checked += 1;
    }
    assert!(checked >= 6, "round-trip must cover the whole corpus");
}

#[test]
fn corpus_table_matches_the_committed_golden() {
    let rows = run_corpus(&corpus_dir()).expect("corpus flows run");
    let table = format_corpus_table(&rows);
    let golden = include_str!("../../../tests/golden/corpus_table.txt");
    assert_eq!(
        table, golden,
        "corpus batch table drifted from tests/golden/corpus_table.txt; \
         inspect the diff and re-bless deliberately if the change is intended"
    );
}
