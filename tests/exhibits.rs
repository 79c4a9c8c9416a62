//! The exhibit registry and the committed `results/` agree: every
//! exhibit has a results file, every results file (bar the examples')
//! names an exhibit, and the cheapest exhibit reproduces its file byte
//! for byte. CI's `exhibits` job byte-diffs all the others.

use e2clab::bench::exhibits::{find, EXHIBITS};
use std::path::PathBuf;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

#[test]
fn every_exhibit_has_a_results_file_and_every_file_an_exhibit() {
    for e in EXHIBITS {
        let path = results_dir().join(format!("{}.txt", e.name));
        assert!(path.is_file(), "{} has no {}", e.name, path.display());
    }
    for entry in std::fs::read_dir(results_dir()).expect("results/") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_str().expect("UTF-8 file name");
        let stem = name.strip_suffix(".txt").unwrap_or(name);
        if !stem.starts_with("example_") {
            assert!(find(stem).is_some(), "results/{name} names no exhibit");
        }
    }
}

#[test]
fn fig2_user_growth_matches_its_committed_file() {
    let mut out = Vec::new();
    (find("fig2_user_growth").expect("registered").write)(&mut out).expect("write");
    let committed = std::fs::read(results_dir().join("fig2_user_growth.txt")).expect("read");
    assert!(
        out == committed,
        "results/fig2_user_growth.txt is stale; regenerate it with \
         `cargo run --release -p e2c-bench --bin exhibit fig2_user_growth`"
    );
}
