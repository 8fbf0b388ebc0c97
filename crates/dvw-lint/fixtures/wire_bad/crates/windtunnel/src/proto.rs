//! Seeded wire-protocol violations: version drift without a marker, a
//! proc-id collision, a reserved-range id, and a one-way codec.

pub const PROTOCOL_VERSION: u32 = 2;

pub const PROC_HELLO: u32 = 0x0057_0001;
pub const PROC_CLONE: u32 = 0x0057_0001;
pub const PROC_EVIL: u32 = 0xFFFF_0002;
pub const PROC_FRAME: u32 = 0x0057_0003;

pub struct OneWay;

impl OneWay {
    pub fn encode(&self) -> Vec<u8> {
        Vec::new()
    }
}

pub struct Paired;

impl Paired {
    pub fn encode(&self) -> Vec<u8> {
        Vec::new()
    }

    pub fn decode(_buf: &[u8]) -> Paired {
        Paired
    }
}
