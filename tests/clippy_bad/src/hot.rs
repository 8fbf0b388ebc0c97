//! A per-frame service file with debug prints in live code.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub fn serve_one(frame: u64) -> u64 {
    eprintln!("serving {frame}");
    dbg!(frame)
}
