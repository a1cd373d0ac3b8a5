// Seeded violations: bare thread spawns and scoped fan-out in library
// code.

use std::thread;

pub fn bare_path_spawn() -> thread::JoinHandle<()> {
    thread::spawn(|| {})
}

pub fn builder_spawn() -> std::io::Result<thread::JoinHandle<()>> {
    thread::Builder::new().name("rogue".to_string()).spawn(|| {})
}

// A per-call fan-out is a second executor: one finding for the
// `thread::scope`, none for the `scope.spawn` inside it.
pub fn scoped_fanout(work: Vec<u32>) -> u32 {
    std::thread::scope(|scope| {
        let handles: Vec<_> = work
            .iter()
            .map(|w| scope.spawn(move || w + 1))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0)).sum()
    })
}
