//! One violation of each service-path lint; none of it may pass.

pub mod hot;

pub fn bad_unwrap(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn bad_expect(v: Option<u32>) -> u32 {
    v.expect("always there")
}

pub fn bad_panic() {
    panic!("boom");
}

pub fn bad_todo() {
    todo!()
}

pub fn bad_unimplemented() {
    unimplemented!()
}

pub fn bad_truncation(n: usize) -> u32 {
    n as u32
}

pub fn bad_wrap(n: u32) -> i32 {
    n as i32
}

#[allow(clippy::unwrap_used)]
pub fn reasonless_allow(v: Option<u32>) -> u32 {
    v.unwrap()
}

// The wrong lint: the unwrap still fires and the expectation is unmet.
#[expect(clippy::panic, reason = "names the wrong lint")]
pub fn wrong_lint(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn dropped_result() {
    "7".parse::<u32>();
}

/// # Safety
/// `p` points at a live, aligned `u32`.
pub unsafe fn unsafe_op_outside_block(p: *const u32) -> u32 {
    *p
}

pub fn undocumented_unsafe(p: *const u32) -> u32 {
    unsafe { *p }
}
