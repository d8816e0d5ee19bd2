//! `bench_gate` — the one bench-gate runner of CI: see
//! [`ccs_bench::harness`] for the suites, the document and the gates.

use ccs_bench::harness::{self, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    match harness::parse_args(std::env::args().skip(1)) {
        Ok(args) => harness::run(&args),
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
