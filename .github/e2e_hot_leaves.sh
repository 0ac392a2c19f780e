#!/usr/bin/env bash
# The serving plane's per-request path and the generator's per-packet path
# must stay straight-line code in the benchmark of record. `e2e/` builds
# with the default release profile (no LTO), where a non-generic function in
# another crate is a *call* unless it is `#[inline]` — a regression no test
# can see (the bytes are the same, only slower). This reads the built binary
# instead:
#
#   * `NtpPacket::decode` / `NtpPacket::encode_into`: no call other than a
#     panic path (a symbol that was inlined away passes);
#   * `ServePlane::serve_batch`: no call to libm `floor` / `round` / `ceil`,
#     none into `tsc_ntp::timestamp` (the `NtpTimestamp` conversions and
#     their helper) and none into `tscclock` (the served-error bound's
#     aging rule, `tscclock::bound::aged`): the one exact conversion a
#     batch makes must be inlined, a request makes none, and the bound
#     rule is inlined into every request;
#   * `RawExchanges::fill_batch`, `SimCore::{send, record}`,
#     `PathState::{depart, stamps}` (the one departure sequence and stamp
#     pair; inlined into the others today), `OnDemandSim::exchange_at`,
#     `MultiServerStream::next_round`, `Oscillator::{advance_to,
#     step_cells}` (the read and its cell step, inlined today): no call to
#     a ziggurat sampler's accept path
#     (`<StandardNormal …>::sample`, `<Exp1 …>::sample`, or the table
#     getters / `zig_try` / `zig_exp_try` they were made of) or to
#     `Sinusoid::step_wander_cell`. The `#[cold]` `zig_*_edge` functions,
#     `ChaCha12Rng::refill` and the model leaves (`PathDelay::…`,
#     `ServerModel::…`) are calls by design;
#   * `SimTransport::push_request` and its `send_batch` (the in-process
#     transport every served datagram crosses twice): no call to
#     `memcpy` / `memset`. A whole slot moves as one fixed-size copy and
#     only a short datagram takes the out-of-line `short_slot`; inlined,
#     LLVM may merge both arms into a `memcpy` per datagram;
#   * `OffsetEstimator::process`, `TscNtpClock::process_admitted` and
#     `HealthTracker::observe` (the estimator's packet step and the
#     quorum's per-round trust score): no call to libm `exp` / `exp2` /
#     `pow` / `powf`. Their exponentials are `fastmath::exp_clamped`, so
#     no digest they feed depends on the host's libm;
#   * `OffsetEstimator::process`, `TscNtpClock::process_admitted` and
#     `ServePlane::serve_batch` (the instrumented hot paths): they reach
#     `tsc_telemetry` only through the inlined `recording()` check and a
#     call into `tsc_telemetry::cold`. No other call into the crate, no
#     `OnceLock` / `Once` initialisation or thread-local accessor, and no
#     `%fs:` access (the flight recorder's ring is a thread-local) may be
#     inlined into them.
#
# The binary is a static PIE, so cross-crate and libm calls go through GOT
# slots (`call *0x…(%rip)  # <slot>`): a cross-crate slot's RELATIVE
# relocation names the target's address, a libm slot's GLOB_DAT relocation
# names the symbol (`exp@GLIBC_…`). A `call *%reg` is a hoisted slot (a
# function that calls one target twice may load its slot once): it calls
# what the function last loaded into that register from a slot, and in
# the codec it is a call whatever it resolves to.
#
# usage: .github/e2e_hot_leaves.sh [path/to/e2e]   (after the e2e build)
set -euo pipefail
bin=${1:-e2e/target/release/e2e}

if ! command -v objdump >/dev/null || ! command -v nm >/dev/null; then
    echo "::notice::objdump / nm not found: e2e hot-leaf check skipped"
    exit 0
fi
[ -x "$bin" ] || { echo "$bin: not built" >&2; exit 2; }

awk '
function hex(s) { sub(/^0x/, "", s); sub(/^0+/, "", s); return s }
function resolve(line,    slot) {          # the target a call or load names
    if (match(line, /# [0-9a-f]+ </)) {    # through a GOT slot
        slot = substr(line, RSTART + 2, RLENGTH - 4)
        if (slot in target && target[slot] in name) return name[target[slot]]
        if (slot in dynsym) return dynsym[slot]
        return "?"
    }
    if (match(line, /<.*>$/)) return substr(line, RSTART + 1, RLENGTH - 2)
    return "?"
}
FILENAME == ARGV[1] {                      # objdump -R: slot -> target
    if ($2 ~ /RELATIVE/) { n = split($3, a, "+"); target[hex($1)] = hex(a[n]) }
    if ($2 ~ /GLOB_DAT|JUMP_SLOT/) { sym = $3; sub(/@.*/, "", sym); dynsym[hex($1)] = sym }
    next
}
FILENAME == ARGV[2] {                      # nm -C: address -> name
    addr = hex($1); $1 = $2 = ""; sub(/^ +/, ""); name[addr] = $0
    next
}
/^[0-9a-f]+ <.*>:$/ {                      # disassembly: a new function
    codec = /NtpPacket::(decode|encode_into)>:$/
    serve = /ServePlane::serve_batch>:$/
    gen = /(RawExchanges::fill_batch|SimCore::(send|record)|PathState::(depart|stamps)|OnDemandSim::exchange_at|MultiServerStream::next_round|Oscillator::(advance_to|step_cells))>:$/
    est = /(OffsetEstimator::process|TscNtpClock::process_admitted|HealthTracker::observe)>:$/
    sim = /SimTransport::push_request>:$|SimTransport as tsc_serve::transport::DatagramBatch>::send_batch>:$/
    tel = /(OffsetEstimator::process|TscNtpClock::process_admitted|ServePlane::serve_batch)>:$/
    fn = $0; sub(/^[0-9a-f]+ /, "", fn)
    split("", held)
    next
}
tel && /%fs:/ {
    print fn " reads a thread-local: " $0
    bad = 1
}
(codec || serve || gen || est || sim) && /\tmov +0x[0-9a-f]+\(%rip\),%[a-z0-9]+ +#/ {
    match($0, /,%[a-z0-9]+/)                # a slot hoisted into a register
    held[substr($0, RSTART + 2, RLENGTH - 2)] = resolve($0)
}
(codec || serve || gen || est || sim) && /\tcall/ {
    callee = resolve($0)
    if (match($0, /call +\*%[a-z0-9]+$/)) {
        reg = substr($0, RSTART, RLENGTH); sub(/.*%/, "", reg)
        if (reg in held) callee = held[reg]
    }
    panic = callee ~ /^core::(panicking|slice::index|option::(expect|unwrap)_failed|result::unwrap_failed)/
    sampler = callee ~ /(^|::)(zig_tables|zig_exp_tables|zig_try|zig_exp_try|step_wander_cell)$/ ||
              callee ~ /^<rand_distr::(StandardNormal|Exp1) as .*>::sample$/
    stamp = callee ~ /^(floor|round|ceil)$/ || callee ~ /^(tsc_ntp::timestamp|tscclock)::/
    libm = callee ~ /^(exp|exp2|pow|powf)$/
    copy = callee ~ /^(memcpy|memset|memmove)$/
    plane = (callee ~ /^tsc_telemetry::/ && callee !~ /^tsc_telemetry::cold::/) ||
            callee ~ /(OnceLock|once_lock|Once::call|LocalKey|thread_local|tls_get_addr)/
    if ((codec && !panic) || (serve && stamp) || (gen && sampler) || (est && libm) || (sim && copy) || (tel && plane)) {
        print fn " calls " callee ": " $0
        bad = 1
    }
}
END { exit bad }
' <(objdump -R "$bin") <(nm -C --defined-only "$bin") \
  <(objdump -d --no-show-raw-insn -C "$bin") \
  || { echo "e2e hot leaves make calls they should not (see above)" >&2; exit 1; }
echo "e2e hot leaves: codec call-free, serve_batch libm-, conversion- and tscclock-call-free, generator sampler-call-free, sim transport copy-call-free, estimator exp/pow-call-free, telemetry out of line"
