//! Fixture-driven tests: for every rule, a positive case, a suppressed
//! case, and a clean case. Fixtures are string literals, so the lint's
//! own scanner never sees them when this file itself is linted.

use detlint::{lint_source, Config, Finding, Rule};

fn run(path: &str, src: &str) -> Vec<Finding> {
    lint_source(path, src, &Config::default())
}

fn unsuppressed(findings: &[Finding], rule: Rule) -> usize {
    findings
        .iter()
        .filter(|f| f.rule == rule && !f.suppressed_with_justification())
        .count()
}

fn suppressed(findings: &[Finding], rule: Rule) -> usize {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.suppressed_with_justification())
        .count()
}

// ---------------------------------------------------------------- DET001

#[test]
fn det001_flags_hashmap_iteration() {
    let src = "use std::collections::HashMap;\n\
               fn f() {\n\
                   let mut m: HashMap<u64, f64> = HashMap::new();\n\
                   m.insert(1, 2.0);\n\
                   for (k, v) in m.iter() { println!(\"{k} {v}\"); }\n\
               }\n";
    let findings = run("src/a.rs", src);
    assert_eq!(unsuppressed(&findings, Rule::UnorderedIteration), 1);
    assert_eq!(
        findings
            .iter()
            .find(|f| f.rule == Rule::UnorderedIteration)
            .unwrap()
            .line,
        5
    );
}

#[test]
fn det001_flags_for_over_borrowed_set() {
    let src = "fn f(reqs: std::collections::HashSet<u64>) {\n\
               for r in &reqs { observe(r); }\n\
               }\n";
    let findings = run("src/a.rs", src);
    assert_eq!(unsuppressed(&findings, Rule::UnorderedIteration), 1);
}

#[test]
fn det001_suppressed_with_justification() {
    let src = "fn f(m: std::collections::HashMap<u64, u64>) {\n\
               // detlint: allow(DET001) drained into a Vec that is sorted below\n\
               let mut v: Vec<_> = m.keys().collect();\n\
               v.sort();\n\
               }\n";
    let findings = run("src/a.rs", src);
    assert_eq!(unsuppressed(&findings, Rule::UnorderedIteration), 0);
    assert_eq!(suppressed(&findings, Rule::UnorderedIteration), 1);
}

#[test]
fn det001_allow_without_justification_still_counts() {
    let src = "fn f(m: std::collections::HashMap<u64, u64>) {\n\
               for k in m.keys() {} // detlint: allow(DET001)\n\
               }\n";
    let findings = run("src/a.rs", src);
    assert_eq!(unsuppressed(&findings, Rule::UnorderedIteration), 1);
    assert!(findings[0].message.contains("missing a justification"));
}

#[test]
fn det001_clean_lookups_and_btreemap() {
    let src =
        "fn f(m: std::collections::HashMap<u64, u64>, b: std::collections::BTreeMap<u64, u64>) {\n\
               let _ = m.get(&1);\n\
               m.insert(2, 3);\n\
               for (k, v) in &b { println!(\"{k} {v}\"); }\n\
               }\n";
    assert!(run("src/a.rs", src).is_empty());
}

// ---------------------------------------------------------------- DET002

#[test]
fn det002_flags_wall_clock() {
    let src = "fn f() { let t = std::time::Instant::now(); drop(t); }\n\
               fn g() { let t = std::time::SystemTime::now(); drop(t); }\n";
    let findings = run("crates/x/src/a.rs", src);
    assert_eq!(unsuppressed(&findings, Rule::WallClock), 2);
}

#[test]
fn det002_approved_clock_module_is_exempt() {
    let src = "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n";
    let findings = run("crates/tune/src/clock.rs", src);
    assert_eq!(unsuppressed(&findings, Rule::WallClock), 0);
}

#[test]
fn det002_suppressed() {
    let src = "fn bench() {\n\
               let t = std::time::Instant::now(); // detlint: allow(DET002) bench harness timing, not a decision input\n\
               drop(t);\n\
               }\n";
    let findings = run("crates/x/src/a.rs", src);
    assert_eq!(unsuppressed(&findings, Rule::WallClock), 0);
    assert_eq!(suppressed(&findings, Rule::WallClock), 1);
}

// ---------------------------------------------------------------- DET003

#[test]
fn det003_flags_entropy_rng() {
    let src = "fn f() { let mut rng = StdRng::from_entropy(); use_it(&mut rng); }\n\
               fn g() { let mut rng = rand::thread_rng(); use_it(&mut rng); }\n";
    let findings = run("src/a.rs", src);
    assert_eq!(unsuppressed(&findings, Rule::EntropyRng), 2);
}

#[test]
fn det003_clean_seeded_rng() {
    let src = "fn f(seed: u64) { let mut rng = StdRng::seed_from_u64(seed); use_it(&mut rng); }\n";
    assert!(run("src/a.rs", src).is_empty());
}

// ---------------------------------------------------------------- DET004

#[test]
fn det004_flags_sleep_in_hot_path() {
    let src = "fn poll() { std::thread::sleep(std::time::Duration::from_millis(5)); }\n\
               fn spin() { std::hint::spin_loop(); }\n";
    let findings = run("crates/tune/src/watch.rs", src);
    assert_eq!(unsuppressed(&findings, Rule::SleepInHotPath), 2);
}

#[test]
fn det004_only_applies_inside_hot_paths() {
    let src = "fn poll() { std::thread::sleep(std::time::Duration::from_millis(5)); }\n";
    assert!(run("crates/bench/src/a.rs", src).is_empty());
}

#[test]
fn det004_suppressed_on_previous_line() {
    let src = "fn tick() {\n\
               // detlint: allow(DET004) watchdog cadence only; results never read this clock\n\
               std::thread::sleep(TICK);\n\
               }\n";
    let findings = run("crates/tune/src/watch.rs", src);
    assert_eq!(unsuppressed(&findings, Rule::SleepInHotPath), 0);
    assert_eq!(suppressed(&findings, Rule::SleepInHotPath), 1);
}

// ---------------------------------------------------------------- DET005

#[test]
fn det005_flags_sum_over_hashmap_values() {
    let src = "fn f(scores: std::collections::HashMap<u64, f64>) -> f64 {\n\
               scores.values().sum::<f64>()\n\
               }\n";
    let findings = run("src/a.rs", src);
    assert_eq!(unsuppressed(&findings, Rule::FloatAccumulation), 1);
    // The more specific DET005 replaces DET001 on the same chain.
    assert_eq!(unsuppressed(&findings, Rule::UnorderedIteration), 0);
}

#[test]
fn det005_flags_accumulation_inside_unordered_loop() {
    let src = "fn f(scores: std::collections::HashMap<u64, f64>) -> f64 {\n\
               let mut total = 0.0;\n\
               for (_, v) in &scores {\n\
                   total += v * 0.5;\n\
               }\n\
               total\n\
               }\n";
    let findings = run("src/a.rs", src);
    assert_eq!(unsuppressed(&findings, Rule::FloatAccumulation), 1);
}

#[test]
fn det005_integer_counters_are_fine() {
    let src = "fn f(scores: std::collections::HashMap<u64, f64>) -> usize {\n\
               let mut n = 0;\n\
               // detlint: allow(DET001) counting only; order cannot affect the count\n\
               for _ in scores.keys() {\n\
                   n += 1;\n\
               }\n\
               n\n\
               }\n";
    let findings = run("src/a.rs", src);
    assert_eq!(unsuppressed(&findings, Rule::FloatAccumulation), 0);
}

#[test]
fn det005_clean_sorted_accumulation() {
    let src = "fn f(scores: std::collections::BTreeMap<u64, f64>) -> f64 {\n\
               scores.values().sum::<f64>()\n\
               }\n";
    assert!(run("src/a.rs", src).is_empty());
}

#[test]
fn literals_and_comments_never_trigger() {
    let src = "fn f() {\n\
               let msg = \"Instant::now() thread_rng() HashMap.iter()\";\n\
               // Instant::now() in a comment is fine\n\
               println!(\"{msg}\");\n\
               }\n";
    assert!(run("crates/tune/src/x.rs", src).is_empty());
}
