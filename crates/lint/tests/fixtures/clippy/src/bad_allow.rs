// Escapes the gate must reject: an expectation without a reason (it
// still silences its lint, so one finding, not two) and a stale
// expectation whose lint no longer fires.
use std::time::Instant;

#[expect(clippy::disallowed_methods)] // line 6: no reason
pub fn metered() -> Instant {
    Instant::now()
}

#[expect(clippy::unwrap_used, reason = "the value was unwrapped here once")] // line 11: stale
pub fn defaulted(v: Option<u8>) -> u8 {
    v.unwrap_or(0)
}
