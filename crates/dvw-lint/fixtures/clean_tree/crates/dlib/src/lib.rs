//! Two guards taken and released before the wait: the pass runs here
//! and never fires.

use parking_lot::Mutex;

pub struct Server {
    sessions: Mutex<u32>,
    queue: Mutex<u32>,
    rx: Receiver<u32>,
}

impl Server {
    pub fn tick(&self) -> Option<u32> {
        let s = self.sessions.lock();
        let q = self.queue.lock();
        let sum = s.checked_add(*q)?;
        drop(q);
        drop(s);
        let next = self.rx.recv().ok()?;
        sum.checked_add(next)
    }
}
