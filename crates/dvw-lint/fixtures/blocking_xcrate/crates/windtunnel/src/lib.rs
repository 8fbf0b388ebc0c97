//! The caller crate: holds a guard across a cross-crate call whose
//! body blocks. Only the call graph can see this.

pub struct Cache {
    state: Mutex<State>,
    rx: Receiver<u32>,
}

impl Cache {
    pub fn tick(&self) -> u32 {
        let st = self.state.lock();
        let v = storage::fetch_sync(&self.rx);
        drop(st);
        v
    }
}
