//! `postal` — a command-line explorer for postal-model broadcasting.
//!
//! ```text
//! postal tree 14 5/2            # the Figure-1 broadcast tree
//! postal gantt 14 5/2           # the same schedule as a timeline
//! postal fib 5/2 20             # F_λ(t) table up to t = 20
//! postal plan 512 16 5/2        # which algorithm to use, with exact times
//! postal simulate pipeline 64 8 5/2
//! ```

use postal_cli::{run, wants_json, CliError};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => println!("{output}"),
        Err(CliError::Usage(msg)) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
        Err(CliError::Invalid(msg)) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
        // The exit code carries the verdict either way; a JSON report
        // goes to stdout so pipelines can read it.
        Err(CliError::LintFailed(report)) if wants_json(&args) => {
            println!("{report}");
            std::process::exit(1);
        }
        Err(CliError::LintFailed(report)) => {
            eprint!("{report}");
            std::process::exit(1);
        }
    }
}
