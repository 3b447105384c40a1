//! Fixture: a per-flush thread fan-out inside an event loop.
pub fn flush(batch: &[u64]) -> u64 {
    std::thread::scope(|s| {
        let h = s.spawn(|| batch.iter().sum::<u64>());
        h.join().unwrap()
    })
}
