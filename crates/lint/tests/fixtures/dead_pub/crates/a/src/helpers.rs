// Named elsewhere only by the `pub use` in lib.rs.
pub fn reexported() {}
