//! Fixture hot path with seeded L008/L009 findings and waivers.
//!
//! The integration test pins the expected (file, lint, chain) of every
//! seed below, so the function names here are load-bearing: renaming
//! one means updating `tests/fixture_analyses.rs` and its roots.

pub struct Engine {
    counts: Vec<u64>,
    log: Vec<u8>,
}

impl Engine {
    /// The declared hot-path root of the mini workspace.
    pub fn process(&mut self, byte: u8) {
        self.bump(byte);
        self.flush();
    }

    /// L008 seed: a slice index two hops from the root.
    fn bump(&mut self, byte: u8) {
        self.counts[byte as usize] += 1;
    }

    /// L009 seed: an allocation two hops from the root.
    fn flush(&mut self) {
        self.log.push(0);
    }

    /// Negative: a justified waiver at the sink is honored. `reset` is a
    /// panic root only, so the second waiver's L009 is stale.
    pub fn reset(&mut self) {
        // lint: allow(L008) — fixture: counts always has 256 slots
        self.counts[0] = 0;
        // lint: allow(L008, L009) — fixture: the index is real, nothing here allocates
        self.counts[1] = 0;
    }
}

/// Negative: allocates, but is reachable from no declared root, so the
/// waiver on its allocation is used by no finding.
pub fn cold_setup() -> Vec<u64> {
    // lint: allow(L009) — fixture: a stale waiver
    vec![0u64; 256]
}
