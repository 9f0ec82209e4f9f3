use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex};

static mut COUNTER: u64 = 0;
static NEXT: AtomicU64 = AtomicU64::new(0);
static TABLE: LazyLock<Mutex<Vec<u64>>> = LazyLock::new(|| Mutex::new(Vec::new()));
thread_local! {
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}
static SLOTS: [Option<Box<Mutex<u8>>>; 2] = [None, None];

pub fn next() -> u64 {
    NEXT.fetch_add(1, Ordering::Relaxed)
}
