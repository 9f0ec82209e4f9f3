// A shim mirrors an upstream API: named nowhere else, never flagged.
pub fn shim_api() {}
