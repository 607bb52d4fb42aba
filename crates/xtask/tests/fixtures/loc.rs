//! Fixture for the `loc` count. This doc mentions `#[cfg(test)]`, so a count that stops at
//! the first `#[cfg(test)]` text would end on line 1.

/// Library code before the test helper.
pub fn double(x: u32) -> u32 {
    x * 2
}

#[cfg(test)]
fn helper() -> u32 {
    2
}

/// Library code after the test helper still counts.
pub fn triple(x: u32) -> u32 {
    // A comment-only line counts as a line, not as code.
    x * 3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles() {
        assert_eq!(double(helper()), 4);
    }
}
