mod user;

// Named elsewhere only inside `user.rs`'s test module.
pub fn unit_tested_elsewhere() -> u32 {
    1
}

// Named by an integration test under `tests/`.
pub fn integration_tested() -> u32 {
    2
}
