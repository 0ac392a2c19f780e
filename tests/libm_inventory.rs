//! What is left of ROADMAP 5(b): every libm-shaped call the generator's
//! and the serving path's live source can still make, as a committed list
//! with the rate at which a packet can reach it.
//!
//! The e2e digests, the fleet parity constants and
//! `tests/fixtures/checkpoint_v7.snap` are functions of the generator's
//! streams, and `ln` / `exp` / `powf` / `sin` / `cos` come from the
//! platform's libm, which is not correctly rounded and may change under
//! us. This test scans the live source — `#[cfg(test)]` modules and
//! `#[cfg(feature = "reference")]` items stripped — of `tsc-netsim`,
//! `tsc-osc`, the `rand_distr` shim, `tsc-ntp`, `tsc-serve`, `tscclock`,
//! `tsc-quorum` and `tsc-fleet` for the callees in [`CALLEES`] and compares
//! what it finds with [`ALLOWED`]. It fails on a site that is not listed (a
//! new call has to be given a rate by hand), on a listed site that is gone
//! (delete the row), and on any row whose rate is `per-packet`. `round` /
//! `ceil` / `floor` are exact in any libm; they are listed because they are
//! libcalls a per-packet path should not pay.
//!
//! `crates/experiments` is not scanned: it only turns digested streams into
//! report text (the side-mode histogram of `fig3` included), and no digest
//! reads a report.
//!
//! `tsc-ntp` and `tsc-serve` have **no** row: the codec, the stamp
//! conversions and the wire bound round with integer casts, so every byte
//! the daemon serves — hence the `serve_mixed` and `closed_loop` digests
//! on the serve side — is a function of the source alone, and any
//! libm-shaped call added to their live source fails here.
//!
//! Every exponential in `tscclock` and `tsc-quorum` — the §5.3 offset
//! weights, the §6.1 gap blend and its reference twin, the quorum's
//! per-round trust score — is `fastmath::exp_clamped`, pure Rust with a
//! stated ulp bound, so the estimator's one row left is a setup-time
//! `round`. The fleet rows *record* what their digests still owe to libm;
//! the scan fixes none of it, and none runs per packet or per quorum
//! round.

use std::collections::BTreeMap;
use std::path::Path;

const DIRS: [&str; 8] = [
    "crates/netsim/src",
    "crates/osc/src",
    "crates/shims/rand_distr/src",
    "crates/ntp/src",
    "crates/serve/src",
    "crates/core/src",
    "crates/quorum/src",
    "crates/fleet/src",
];

const CALLEES: [&str; 9] = [
    ".ln()",
    ".exp()",
    ".powf(",
    ".sin_cos()",
    ".sin()",
    ".cos()",
    ".round()",
    ".ceil()",
    ".floor()",
];

/// `(file, enclosing fn, callee, sites, rate)`. Rates: `setup` (per
/// scenario, stream or table), `in-burst` (inside a congestion episode),
/// `rare-branch(p)` (a branch a draw takes with probability `p`),
/// `per-wrap` (once per 2π of sinusoid phase), `reference-only` (ungated
/// source that only `reference`-gated code and tests call, or a module
/// gated where it is declared).
const ALLOWED: &[(&str, &str, &str, usize, &str)] = &[
    // Window → packet count; the estimators cache it per configuration.
    (
        "crates/core/src/config.rs",
        "window_packets",
        ".round()",
        1,
        "setup",
    ),
    // Herd histogram geometry: per population, and per herd report.
    (
        "crates/fleet/src/population.rs",
        "buckets_len",
        ".ceil()",
        1,
        "setup",
    ),
    (
        "crates/fleet/src/population.rs",
        "peak_in",
        ".ceil()",
        1,
        "setup",
    ),
    (
        "crates/fleet/src/population.rs",
        "peak_in",
        ".floor()",
        1,
        "setup",
    ),
    (
        "crates/netsim/src/host.rs",
        "interrupt_latency",
        ".ln()",
        1,
        "rare-branch(1e-4)",
    ),
    (
        "crates/netsim/src/profile.rs",
        "handover_shifts",
        ".ln()",
        1,
        "setup",
    ),
    (
        "crates/netsim/src/server.rs",
        "residence",
        ".ln()",
        1,
        "rare-branch(1e-3)",
    ),
    (
        "crates/netsim/src/server.rs",
        "stamp_tx",
        ".ln()",
        1,
        "rare-branch(4e-4)",
    ),
    // Re-prime of the (sin, cos) pair: unprimed, at a phase wrap, or when
    // one read turns the diurnal phase by > 0.05 rad (a gap ≥ 688 s: polls
    // slower than 512 s only; a 16 s cell turns the wandering one ≤ 0.017).
    (
        "crates/osc/src/components.rs",
        "rotate_phase",
        ".sin_cos()",
        2,
        "per-wrap",
    ),
    (
        "crates/osc/src/components.rs",
        "step",
        ".ln()",
        2,
        "reference-only",
    ),
    (
        "crates/osc/src/components.rs",
        "step",
        ".sin()",
        1,
        "reference-only",
    ),
    (
        "crates/osc/src/components.rs",
        "step",
        ".cos()",
        4,
        "reference-only",
    ),
    // Counts past 2⁵³ cycles (104 days at 1 GHz), where every f64 is
    // already an integer.
    (
        "crates/osc/src/tsc.rs",
        "read",
        ".round()",
        1,
        "rare-branch(0 below 2^53)",
    ),
    // Pareto excess, drawn only while a path is inside an episode.
    (
        "crates/shims/rand_distr/src/lib.rs",
        "sample",
        ".powf(",
        1,
        "in-burst",
    ),
    // Normal ziggurat: tail beyond 3.65σ and layer wedges.
    (
        "crates/shims/rand_distr/src/lib.rs",
        "zig_norm_edge",
        ".ln()",
        2,
        "rare-branch(3e-4)",
    ),
    (
        "crates/shims/rand_distr/src/lib.rs",
        "zig_norm_edge",
        ".exp()",
        1,
        "rare-branch(1.5e-2)",
    ),
    // Exponential ziggurat: tail beyond 7.7 and layer wedges.
    (
        "crates/shims/rand_distr/src/lib.rs",
        "zig_exp_edge",
        ".ln()",
        1,
        "rare-branch(5e-4)",
    ),
    (
        "crates/shims/rand_distr/src/lib.rs",
        "zig_exp_edge",
        ".exp()",
        1,
        "rare-branch(1.2e-2)",
    ),
];

/// Blanks comments, string and char literals (newlines kept, so byte
/// offsets and line numbers survive): what is left is code, whose braces
/// balance.
fn blank_non_code(src: &str) -> Vec<u8> {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let blank = |out: &mut Vec<u8>, from: usize, to: usize| {
        for c in &mut out[from..to] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
    };
    let mut i = 0;
    while i < b.len() {
        let end = match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                i + b[i..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .unwrap_or(b.len() - i)
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                src[i + 2..].find("*/").map_or(b.len(), |n| i + n + 4)
            }
            b'"' => {
                let mut j = i + 1;
                while j < b.len() && b[j] != b'"' {
                    j += 1 + usize::from(b[j] == b'\\');
                }
                j + 1
            }
            // 'x' or '\n' is a char literal; 'a without a closing quote
            // two or three bytes on is a lifetime.
            b'\'' if b.get(i + 1) == Some(&b'\\') && b.get(i + 3) == Some(&b'\'') => i + 4,
            b'\'' if b.get(i + 2) == Some(&b'\'') => i + 3,
            _ => {
                i += 1;
                continue;
            }
        };
        blank(&mut out, i, end.min(b.len()));
        i = end;
    }
    out
}

/// Blanks the item or statement each `attr` in `src` applies to: up to
/// the matching `}` when a `{` comes first, else up to the first `;` or
/// `,` outside parentheses. (`attr` is looked up in `src` because `code`
/// has its string literals blanked; one inside a comment is skipped.)
fn blank_gated(code: &mut [u8], src: &str, attr: &str) {
    let mut from = 0;
    while let Some(at) = find(src.as_bytes(), attr.as_bytes(), from) {
        let mut i = at + attr.len();
        if code[at] != b'#' {
            from = i;
            continue;
        }
        let (mut parens, mut braces) = (0i32, 0i32);
        while i < code.len() {
            match code[i] {
                b'(' | b'[' => parens += 1,
                b')' | b']' => parens -= 1,
                b'{' => braces += 1,
                b'}' => braces -= 1,
                _ => {}
            }
            let closed_block = code[i] == b'}' && braces == 0;
            let ended_plain = matches!(code[i], b';' | b',') && braces == 0 && parens == 0;
            i += 1;
            if closed_block || ended_plain {
                break;
            }
        }
        for c in &mut code[at..i] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
        from = i;
    }
}

fn find(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    hay[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// Name of the last `fn` declared before byte `at`.
fn enclosing_fn(code: &[u8], at: usize) -> String {
    let mut name = String::from("?");
    let mut from = 0;
    while let Some(p) = find(&code[..at], b"fn ", from) {
        let boundary = p == 0 || !(code[p - 1].is_ascii_alphanumeric() || code[p - 1] == b'_');
        if boundary {
            let ident: Vec<u8> = code[p + 3..]
                .iter()
                .copied()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == b'_')
                .collect();
            name = String::from_utf8(ident).expect("ascii identifier");
        }
        from = p + 3;
    }
    name
}

#[test]
fn every_libm_call_on_the_live_generator_path_is_listed_with_its_rate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // (file, fn, callee) -> lines found
    let mut found: BTreeMap<(String, String, &str), Vec<usize>> = BTreeMap::new();
    for dir in DIRS {
        let mut files: Vec<_> = std::fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("{dir}: {e}"))
            .map(|entry| entry.expect("dir entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
            .collect();
        files.sort();
        for path in files {
            let src = std::fs::read_to_string(&path).expect("readable source");
            let mut code = blank_non_code(&src);
            blank_gated(&mut code, &src, "#[cfg(test)]");
            blank_gated(&mut code, &src, "#[cfg(feature = \"reference\")]");
            let rel = path
                .strip_prefix(root)
                .expect("under root")
                .to_string_lossy()
                .into_owned();
            for callee in CALLEES {
                let mut from = 0;
                while let Some(at) = find(&code, callee.as_bytes(), from) {
                    let line = 1 + code[..at].iter().filter(|&&c| c == b'\n').count();
                    let key = (rel.clone(), enclosing_fn(&code, at), callee);
                    found.entry(key).or_default().push(line);
                    from = at + callee.len();
                }
            }
        }
    }

    let mut problems = Vec::new();
    for ((file, func, callee), lines) in &found {
        let listed = ALLOWED
            .iter()
            .find(|(f, g, c, _, _)| f == file && g == func && c == callee);
        match listed {
            None => problems.push(format!(
                "unlisted: {file} fn {func} {callee} at lines {lines:?}"
            )),
            Some((.., sites, _)) if *sites != lines.len() => problems.push(format!(
                "{file} fn {func} {callee}: {} sites listed, found at lines {lines:?}",
                sites
            )),
            Some(_) => {}
        }
    }
    for (file, func, callee, _, rate) in ALLOWED {
        if !found.contains_key(&(file.to_string(), func.to_string(), callee)) {
            problems.push(format!("listed but gone: {file} fn {func} {callee}"));
        }
        if rate.starts_with("per-packet") {
            problems.push(format!("per-packet site: {file} fn {func} {callee}"));
        }
    }
    assert!(
        problems.is_empty(),
        "libm inventory drifted:\n  {}",
        problems.join("\n  ")
    );
}

#[test]
fn the_scanner_strips_what_it_says_it_strips() {
    let src = r#"
fn live(x: f64) -> f64 {
    // a comment that says x.ln() and #[cfg(test)]
    let s = "a string that says x.exp() and a brace {";
    let c = '{';
    #[cfg(feature = "reference")]
    if x > 0.0 {
        return x.sin();
    }
    x.cos()
}
#[cfg(feature = "reference")]
fn gated<'a>(x: &'a f64) -> f64 { x.powf(2.0) }
struct S {
    #[cfg(feature = "reference")]
    reference: bool,
    live: f64,
}
#[cfg(test)]
mod tests {
    fn t(x: f64) -> f64 { x.round() }
}
"#;
    let mut code = blank_non_code(src);
    blank_gated(&mut code, src, "#[cfg(test)]");
    blank_gated(&mut code, src, "#[cfg(feature = \"reference\")]");
    let hits: Vec<&str> = CALLEES
        .into_iter()
        .filter(|callee| find(&code, callee.as_bytes(), 0).is_some())
        .collect();
    assert_eq!(hits, [".cos()"]);
    let at = find(&code, b".cos()", 0).expect("live call kept");
    assert_eq!(enclosing_fn(&code, at), "live");
    assert!(
        find(&code, b"live: f64", 0).is_some(),
        "the field after a gated one survives"
    );
}
