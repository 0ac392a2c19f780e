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
#     `ServerModel::…`) are calls by design.
#
# The binary is a static PIE, so cross-crate and libm calls go through GOT
# slots (`call *0x…(%rip)  # <slot>`); the slot's RELATIVE relocation names
# the target. A `call *%reg` in the codec is a hoisted slot: also a call.
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
FILENAME == ARGV[1] {                      # objdump -R: slot -> target
    if ($2 ~ /RELATIVE/) { n = split($3, a, "+"); target[hex($1)] = hex(a[n]) }
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
    fn = $0; sub(/^[0-9a-f]+ /, "", fn)
    next
}
(codec || serve || gen) && /\tcall/ {
    callee = "?"
    if (match($0, /# [0-9a-f]+ </)) {      # through a GOT slot
        slot = substr($0, RSTART + 2, RLENGTH - 4)
        if (slot in target && target[slot] in name) callee = name[target[slot]]
    } else if (match($0, /<.*>$/)) {       # direct
        callee = substr($0, RSTART + 1, RLENGTH - 2)
    }
    panic = callee ~ /^core::(panicking|slice::index|option::(expect|unwrap)_failed|result::unwrap_failed)/
    sampler = callee ~ /(^|::)(zig_tables|zig_exp_tables|zig_try|zig_exp_try|step_wander_cell)$/ ||
              callee ~ /^<rand_distr::(StandardNormal|Exp1) as .*>::sample$/
    stamp = callee ~ /^(floor|round|ceil)$/ || callee ~ /^(tsc_ntp::timestamp|tscclock)::/
    if ((codec && !panic) || (serve && stamp) || (gen && sampler)) {
        print fn " calls " callee ": " $0
        bad = 1
    }
}
END { exit bad }
' <(objdump -R "$bin") <(nm -C --defined-only "$bin") \
  <(objdump -d --no-show-raw-insn -C "$bin") \
  || { echo "e2e hot leaves make calls they should not (see above)" >&2; exit 1; }
echo "e2e hot leaves: codec call-free, serve_batch libm-, conversion- and tscclock-call-free, generator sampler-call-free"
