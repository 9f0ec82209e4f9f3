#[test]
fn calls() {
    assert_eq!(b::integration_tested(), 2);
}
