//! Release patterns the blocking pass must accept: dropped guards,
//! scoped guards, non-blocking variants, arity look-alikes, and spawn
//! closures (the spawned thread does not inherit the spawner's guards).

pub struct Pool {
    state: Mutex<State>,
    tx: Sender<u32>,
    rx: Receiver<u32>,
    sock: TcpStream,
}

impl Pool {
    /// Guard explicitly dropped before the send.
    pub fn drop_then_send(&self) {
        let st = self.state.lock();
        let v = st.next;
        drop(st);
        self.tx.send(v);
    }

    /// Guard confined to an inner scope, blocking after it closes.
    pub fn scope_then_recv(&self) -> u32 {
        {
            let st = self.state.lock();
            st.touch();
        }
        self.rx.recv()
    }

    /// `Path::join` takes an argument — not a thread join.
    pub fn path_join(&self, dir: &Path) -> PathBuf {
        let g = self.state.lock();
        let p = dir.join("chunk.bin");
        drop(g);
        p
    }

    /// `try_send` never blocks; holding a guard across it is fine.
    pub fn try_send_under_guard(&self) {
        let st = self.state.lock();
        let _ = self.tx.try_send(st.next);
        drop(st);
    }

    /// Blocking with no guard held is this crate's bread and butter.
    pub fn plain_recv(&self) -> u32 {
        self.rx.recv()
    }

    /// The spawned closure blocks, but on its own thread without the
    /// spawner's guard; the worker takes and releases its own guard
    /// before its blocking call.
    pub fn spawn_worker(&self) {
        let g = self.state.lock();
        thread::spawn(move || loop {
            {
                let st = self.state.lock();
                st.touch();
            }
            let _ = self.rx.recv();
        });
        drop(g);
    }

    /// Snapshot under the guard, release it, then do the socket send.
    pub fn drop_then_writev(&self, bufs: &mut [IoSlice]) -> u32 {
        let st = self.state.lock();
        let seq = st.next;
        drop(st);
        self.sock.write_vectored(bufs);
        self.sock.write_all_vectored(bufs);
        seq
    }
}
