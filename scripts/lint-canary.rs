// One violation per property the lint configuration keeps (DESIGN.md §6).
// scripts/lint-canary.sh compiles this under the real configuration and
// fails unless clippy reports exactly the lints on the `// expect:` lines.
use std::collections::{HashMap, HashSet};
use std::sync::mpsc;
use std::time::{Instant, SystemTime};

// expect: clippy::unwrap_used
pub fn unwrap_used(v: Option<u8>) -> u8 { v.unwrap() }
// expect: clippy::expect_used
pub fn expect_used(v: Option<u8>) -> u8 { v.expect("canary") }
// expect: clippy::panic
pub fn panic() { panic!("canary") }
// expect: clippy::unreachable
pub fn unreachable() { unreachable!() }
// expect: clippy::indexing_slicing
pub fn indexing_slicing(v: &[u8]) -> u8 { v[0] }
// expect: clippy::cast_possible_truncation
pub fn cast_possible_truncation(v: u64) -> u8 { v as u8 }
// expect: clippy::disallowed_types std::collections::HashMap
pub fn hash_map() -> HashMap<u8, u8> { HashMap::new() }
// expect: clippy::disallowed_types std::collections::HashSet
pub fn hash_set() -> HashSet<u8> { HashSet::new() }
// expect: clippy::disallowed_methods std::time::Instant::now
pub fn instant_now() -> Instant { Instant::now() }
// expect: clippy::disallowed_methods std::time::SystemTime::now
pub fn system_time_now() -> SystemTime { SystemTime::now() }
// expect: clippy::disallowed_methods std::sync::mpsc::channel
pub fn channel() -> (mpsc::Sender<u8>, mpsc::Receiver<u8>) { mpsc::channel() }
// expect: clippy::disallowed_methods std::thread::spawn
pub fn thread_spawn() -> std::thread::JoinHandle<()> { std::thread::spawn(|| {}) }
// expect: clippy::disallowed_methods std::thread::Builder::spawn
pub fn builder_spawn() -> std::io::Result<std::thread::JoinHandle<()>> { std::thread::Builder::new().spawn(|| {}) }
// expect: clippy::disallowed_methods std::vec::Vec::with_capacity
pub fn vec_with_capacity(n: usize) -> Vec<u8> { Vec::with_capacity(n) }
// expect: clippy::disallowed_methods std::vec::Vec::reserve
pub fn vec_reserve(v: &mut Vec<u8>, n: usize) { v.reserve(n) }
// expect: clippy::disallowed_methods std::vec::Vec::reserve_exact
pub fn vec_reserve_exact(v: &mut Vec<u8>, n: usize) { v.reserve_exact(n) }
// expect: clippy::disallowed_methods std::string::String::with_capacity
pub fn string_with_capacity(n: usize) -> String { String::with_capacity(n) }
// expect: clippy::disallowed_methods alloc::vec::from_elem
pub fn vec_from_elem(n: usize) -> Vec<u8> { vec![0; n] }
// The sixth allocation ban, ca_codec::Writer::with_capacity, cannot fire
// here: this crate has no dependencies. Stage 2 covers it, where an
// #[expect] at each of its call sites would go unfulfilled without it.
// expect: clippy::print_stdout
pub fn print_stdout() { println!("canary") }
// expect: clippy::print_stderr
pub fn print_stderr() { eprintln!("canary") }
// expect: unsafe_code
pub fn unsafe_code(v: &[u8; 1]) -> u8 { unsafe { *v.get_unchecked(0) } }
// expect: unfulfilled_lint_expectations
#[expect(clippy::unwrap_used, reason = "an exception that outlived its reason")]
pub fn stale_expectation() -> u8 { 0 }
