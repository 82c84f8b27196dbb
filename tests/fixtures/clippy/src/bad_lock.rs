// Every lock the lock ban must catch, and the shapes it leaves alone: a
// channel, and a lock under a reasoned expectation.
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, RwLock}; // flagged twice

pub struct Shared {
    pub totals: Mutex<u64>,                 // flagged
    pub table: std::sync::RwLock<Vec<u64>>, // flagged: a full path too
}

pub fn shared() -> Shared {
    Shared {
        totals: Mutex::new(0),          // flagged
        table: RwLock::new(Vec::new()), // flagged
    }
}

pub fn results() -> (Sender<u64>, Receiver<u64>) {
    channel() // a channel is not a lock
}

#[expect(
    clippy::disallowed_types,
    reason = "the one lock a design cannot own, declared once"
)]
pub type Reasoned = std::sync::Mutex<u64>;

pub fn reasoned() -> Reasoned {
    Reasoned::new(0) // the alias carries the expectation
}
