//! `e2e` — the end-to-end benchmark `BENCHMARK.json` defines: five
//! workloads over the layers' public primitives, with per-layer
//! attribution from spans recorded in this directory's own files. See
//! `README.md` beside this file.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload
//! e2e --all [--seed <n>] [--seconds <s>] [--trace] [--smoke]     every workload
//! ```

mod checkpoint_replay;
mod clock_ingest;
mod closed_loop;
mod fleet_replay;
mod harness;
mod serve_mixed;
mod trace;
mod traces;

use harness::{Json, Opts, Report, Size};
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicIsize, Ordering};

/// The workloads, in the order `--all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "clock_ingest",
    "fleet_replay",
    "serve_mixed",
    "closed_loop",
    "checkpoint_replay",
];

/// The system allocator with a live-byte count beside it, so resident
/// state per clock is an exact, repeatable number instead of an RSS
/// difference. Relaxed: the count publishes nothing.
struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter never influences an allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's layout is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr` came from `System` with this layout; `new_size`
        // is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes currently allocated by this process.
pub fn live_bytes() -> isize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

struct Cli {
    workload: Option<String>,
    all: bool,
    opts: Opts,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        all: false,
        opts: Opts {
            seed: 1,
            seconds: 10.0,
            trace: false,
            size: Size::Full,
        },
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => cli.workload = Some(value(&mut i)?.clone()),
            "--seed" => {
                cli.opts.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                cli.opts.seconds = s;
            }
            // `--trace 0|1` as the driver passes it, or bare `--trace`.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    cli.opts.trace = false;
                    i += 1;
                }
                Some("1") => {
                    cli.opts.trace = true;
                    i += 1;
                }
                _ => cli.opts.trace = true,
            },
            "--all" => cli.all = true,
            "--smoke" => cli.opts.size = Size::Smoke,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    match (&cli.workload, cli.all) {
        (Some(_), true) => Err("--workload and --all exclude each other".into()),
        (None, false) => Err("give --workload <name> or --all".into()),
        (Some(w), false) if !WORKLOADS.contains(&w.as_str()) => {
            Err(format!("unknown workload {w}; one of {WORKLOADS:?}"))
        }
        _ => Ok(cli),
    }
}

fn run_one(name: &str, opts: &Opts) -> Report {
    let size = opts.size;
    match name {
        "clock_ingest" => harness::run(&clock_ingest::ClockIngest::new(size), opts),
        "fleet_replay" => harness::run(&fleet_replay::FleetReplay::new(size), opts),
        "serve_mixed" => harness::run(&serve_mixed::ServeMixed::new(size), opts),
        "closed_loop" => harness::run(&closed_loop::ClosedLoop::new(size), opts),
        "checkpoint_replay" => harness::run(&checkpoint_replay::CheckpointReplay::new(size), opts),
        _ => unreachable!("parse() admits only WORKLOADS"),
    }
}

/// Runs every workload in a process of its own, so `peak_rss_mb` is per
/// workload; relays each child's output and collects its result line.
fn run_all(opts: &Opts) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    let mut all_correct = true;
    for name in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }]);
        if opts.size == Size::Smoke {
            cmd.arg("--smoke");
        }
        let out = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        all_correct &= out.status.success();
        let last = stdout.lines().last().unwrap_or("null").to_string();
        results.push((name.to_string(), Json::Raw(last)));
    }
    let summary = Json::obj(vec![
        ("correct", Json::Bool(all_correct)),
        ("seed", Json::Int(opts.seed)),
        ("workloads", Json::Obj(results)),
    ]);
    println!("{}", summary.render());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let correct = if cli.all {
        match run_all(&cli.opts) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("e2e: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        let name = cli.workload.as_deref().expect("parse() checked");
        let report = run_one(name, &cli.opts);
        println!("workload {name}");
        for m in &report.metrics {
            println!("{}", m.row());
        }
        println!("detail {}", report.detail.render());
        println!("{}", report.result_json().render());
        report.correct
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let cli = parse(&args(
            "--workload serve_mixed --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("serve_mixed"));
        assert_eq!(
            (cli.opts.seed, cli.opts.seconds, cli.opts.trace),
            (42, 10.0, true)
        );
        assert_eq!(cli.opts.size, Size::Full);
        let cli = parse(&args("--workload clock_ingest --trace 0")).unwrap();
        assert!(!cli.opts.trace);
    }

    #[test]
    fn parses_the_all_form_with_bare_trace() {
        let cli = parse(&args("--all --trace --smoke --seed 2")).unwrap();
        assert!(cli.all && cli.opts.trace);
        assert_eq!((cli.opts.size, cli.opts.seed), (Size::Smoke, 2));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for line in [
            "",
            "--workload nope",
            "--workload clock_ingest --all",
            "--all --seed x",
            "--all --seconds 0",
            "--all --seconds",
            "--all --frobnicate",
        ] {
            assert!(parse(&args(line)).is_err(), "{line:?} should not parse");
        }
    }
}
