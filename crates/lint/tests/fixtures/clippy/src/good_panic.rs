// Hot-path code the panic-family lints must stay silent on: typed
// errors, non-panicking unwrap_* variants, asserts (invariants are
// allowed), a reasoned expectation, and panics in tests.
pub fn appraise(
    digest: Option<u64>,
    expected: Option<u64>,
    fallback: Result<u64, String>,
) -> Result<bool, String> {
    let digest = digest.ok_or_else(|| "no digest".to_string())?;
    let expected = expected.unwrap_or_default();
    let fallback = fallback.unwrap_or(digest);
    assert!(
        fallback >= digest || fallback == 0,
        "publish-time invariant"
    );
    #[expect(clippy::expect_used, reason = "a constant shift is in range")]
    let shifted = 1u64.checked_shl(3).expect("in range");
    Ok(digest == expected || fallback == shifted)
}

#[cfg(test)]
mod tests {
    #[test]
    fn panics_are_fine_in_tests() {
        assert!(super::appraise(Some(1), Some(1), Ok(1)).unwrap());
        let err = super::appraise(None, None, Ok(0)).expect_err("no digest");
        if err.is_empty() {
            panic!("the error names what is missing");
        }
    }
}
