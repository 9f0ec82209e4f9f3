use rand::Rng;

pub fn lossy(rng: &mut impl Rng, p: f64) -> bool {
    p > 0.0 && rng.gen_bool(p)
}
