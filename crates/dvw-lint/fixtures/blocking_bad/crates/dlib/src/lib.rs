//! Known-bad blocking patterns: every construct here must trip the
//! blocking pass exactly once.

pub struct Pool {
    state: Mutex<State>,
    m: Mutex<u32>,
    tx: Sender<u32>,
    rx: Receiver<u32>,
    sock: TcpStream,
}

impl Pool {
    /// Direct: a channel send while a guard is live.
    pub fn send_under_guard(&self) {
        let st = self.state.lock();
        self.tx.send(st.next);
        drop(st);
    }

    /// Two-level interprocedural: top -> mid -> leaf -> recv. One-level
    /// inlining would miss this; fixed-point propagation must not.
    fn leaf(&self) -> u32 {
        self.rx.recv()
    }

    fn mid(&self) -> u32 {
        self.leaf()
    }

    pub fn top(&self) -> u32 {
        let g = self.state.lock();
        let v = self.mid();
        drop(g);
        v
    }

    /// Blocking inside a rayon closure stalls the pool even without a
    /// guard.
    pub fn par_block(&self, data: &[u32]) -> u32 {
        data.par_iter().map(|_| self.rx.recv()).sum();
    }

    /// Sleep-style backoff while holding a guard.
    pub fn backoff_under_guard(&self) {
        let g = self.m.lock();
        thread::sleep(Duration::from_millis(1));
        drop(g);
    }

    /// The vectored socket send while a guard is live.
    pub fn writev_under_guard(&self, bufs: &[IoSlice]) {
        let st = self.state.lock();
        self.sock.write_vectored(bufs);
        drop(st);
    }

    /// Interprocedural: the crate's own send loop, reached through a
    /// bare call, under a guard.
    fn write_all_vectored(&self, bufs: &mut [IoSlice]) {
        while !bufs.is_empty() {
            self.sock.write_vectored(bufs);
        }
    }

    pub fn reply_under_guard(&self, bufs: &mut [IoSlice]) {
        let st = self.state.lock();
        write_all_vectored(self, bufs);
        drop(st);
    }

    /// The std method of the same name, under a guard.
    pub fn std_send_under_guard(&self, bufs: &mut [IoSlice]) {
        let g = self.m.lock();
        self.sock.write_all_vectored(bufs);
        drop(g);
    }
}
