use std::sync::atomic::AtomicU64;
use std::sync::Mutex;

static GREETING: &str = "hello";
static PRIMES: [u64; 4] = [2, 3, 5, 7];
const LIMIT: usize = 8;

pub struct Counter {
    next: AtomicU64,
    table: Mutex<Vec<u64>>,
}

pub fn label() -> &'static str {
    if PRIMES.len() < LIMIT {
        GREETING
    } else {
        "many"
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    #[test]
    fn tests_may_share_a_counter() {
        NEXT.fetch_add(1, Ordering::Relaxed);
    }
}
