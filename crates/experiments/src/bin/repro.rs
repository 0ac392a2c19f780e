//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro all [--full] [--seed N]     run every experiment
//! repro fig9a [--full] [--seed N]   run one experiment
//! repro list                        list experiment ids
//! ```
//!
//! Defaults use shortened (but representative) durations; `--full` restores
//! the paper's spans. Run with `--release` — the simulator covers months of
//! trace per second of wall clock.
//!
//! Built with `--features telemetry`, every report is followed by a
//! metrics exposition for that experiment (Prometheus text by default,
//! `--telemetry-json` for JSON). The exposition is appended *after* the
//! report — report text stays byte-identical in both feature states.

use tsc_experiments::{run_by_id, ExpOptions, ALL_IDS};

/// Prints the per-experiment metrics exposition and clears the registry
/// so the next experiment starts from zero. No-op when the telemetry
/// plane is compiled out.
fn dump_telemetry(json: bool) {
    if !tsc_telemetry::TELEMETRY_COMPILED {
        return;
    }
    let text = if json {
        tsc_telemetry::to_json()
    } else {
        tsc_telemetry::prometheus()
    };
    println!("{text}");
    tsc_telemetry::reset_global();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return;
    }
    let mut opt = ExpOptions::default();
    let mut ids: Vec<String> = Vec::new();
    let mut telemetry_json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => opt.full = true,
            "--telemetry-json" => telemetry_json = true,
            "--seed" => {
                i += 1;
                opt.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "list" => {
                for id in ALL_IDS {
                    println!("{id}");
                }
                return;
            }
            "all" => ids.extend(ALL_IDS.iter().map(|s| s.to_string())),
            other if !other.starts_with('-') => ids.push(other.to_string()),
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    if ids.is_empty() {
        usage();
        return;
    }
    // Every id is checked before any runs: a typo at the end of a long
    // command line fails at once, not after the experiments before it.
    if let Some(bad) = ids.iter().find(|id| !ALL_IDS.contains(&id.as_str())) {
        die(&format!("unknown experiment id: {bad} (try `repro list`)"));
    }
    for id in &ids {
        let t0 = std::time::Instant::now();
        let report = run_by_id(id, opt).expect("id validated above");
        println!("{}", report.render());
        dump_telemetry(telemetry_json);
        eprintln!("[{id}] completed in {:?}\n", t0.elapsed());
    }
}

fn usage() {
    eprintln!(
        "usage: repro <all | list | EXPERIMENT_ID...> [--full] [--seed N] [--telemetry-json]"
    );
    eprintln!("experiments: {}", ALL_IDS.join(" "));
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
