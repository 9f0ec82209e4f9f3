use rand::Rng;

// A mention of gen_bool( in a comment or "gen_bool(" in a string is inert,
// and so are the other draws and the test module's own coins.
pub fn pick(rng: &mut impl Rng, n: usize, gen_bool: bool) -> usize {
    let _ = ("rng.gen_bool(0.5)", gen_bool);
    rng.gen_range(0..n)
}

#[cfg(test)]
mod tests {
    #[test]
    fn coins() {
        let mut rng = rand::thread_rng();
        assert!(rand::Rng::gen_bool(&mut rng, 1.0));
    }
}
