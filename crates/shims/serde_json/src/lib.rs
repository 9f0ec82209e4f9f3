//! Minimal `serde_json` shim: [`from_str`] over the shared lenient parser
//! in `serde::json`. There is no serializer here — JSON text is written
//! from a [`Value`] tree (`Value::pretty`, `Display`), which is strict JSON
//! by construction; a Debug rendering of a struct is not.

pub use serde::json::{Error, Value};

/// Parses lenient JSON into any hand-implemented [`serde::Deserialize`].
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let value = serde::json::parse(text)?;
    T::from_json_value(&value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_text_round_trips() {
        let rows = Value::Array(vec![Value::Number(1000.0), Value::Number(4.43)]);
        for text in [rows.pretty(), rows.to_string()] {
            let back: Vec<f64> = from_str(&text).unwrap();
            assert_eq!(back, [1000.0, 4.43]);
        }
    }

    #[test]
    fn empty_and_scalar_round_trip() {
        let empty: Vec<f64> = from_str("[]").unwrap();
        assert!(empty.is_empty());
        let x: f64 = from_str("2.5").unwrap();
        assert_eq!(x, 2.5);
    }
}
