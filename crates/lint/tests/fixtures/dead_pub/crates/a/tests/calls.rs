#[test]
fn calls() {
    assert_eq!(a::called_from_tests(), 2);
}
