// An expectation above further attributes covers the item they
// decorate: no findings.
use std::time::Instant;

#[expect(
    clippy::disallowed_methods,
    reason = "the expectation reaches the item past the attributes below"
)]
#[inline]
#[must_use]
pub fn stamp() -> Instant {
    Instant::now()
}
