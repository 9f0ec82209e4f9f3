pub(crate) fn shipped() -> u32 {
    3
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls() {
        assert_eq!(crate::unit_tested_elsewhere() + super::shipped(), 4);
    }
}
