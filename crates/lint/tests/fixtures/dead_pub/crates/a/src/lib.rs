mod helpers;

pub use helpers::reexported;

pub fn own_tests_only() -> u32 {
    1
}

pub fn called_from_tests() -> u32 {
    2
}

pub(crate) fn crate_visible() -> u32 {
    3
}

#[cfg(test)]
mod tests {
    #[test]
    fn own() {
        assert_eq!(super::own_tests_only() + super::crate_visible(), 4);
    }
}
