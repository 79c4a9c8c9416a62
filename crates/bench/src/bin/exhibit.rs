//! Print the paper's exhibits from the registry in
//! [`e2c_bench::exhibits`].
//!
//! ```sh
//! exhibit                          # list the exhibit names
//! exhibit fig3_response_curve ...  # print those exhibits to stdout
//! ```
//!
//! An unknown name exits 2 before anything runs; a write error exits 1.

use e2c_bench::exhibits::{find, EXHIBITS};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if names.is_empty() {
        for e in EXHIBITS {
            println!("{}", e.name);
        }
        return ExitCode::SUCCESS;
    }
    let mut selected = Vec::with_capacity(names.len());
    for name in &names {
        match find(name) {
            Some(e) => selected.push(e),
            None => {
                eprintln!("exhibit: unknown exhibit `{name}` (run with no argument to list them)");
                return ExitCode::from(2);
            }
        }
    }
    let mut out = std::io::stdout().lock();
    for e in selected {
        if let Err(err) = (e.write)(&mut out).and_then(|()| out.flush()) {
            eprintln!("exhibit: {}: {err}", e.name);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
