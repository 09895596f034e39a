//! Seeded input generators. The program under test only ever sees what
//! these produce: statement costs, per-round compute, sweep grids.
//!
//! The generator is the benchmark's own splitmix64, not the simulator's
//! `SplitMix64`, so a change to the program's RNG can never change the
//! benchmark's inputs.

/// splitmix64 (Steele, Lea & Flood), the standard 64-bit seed mixer.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of one seed: streams of
    /// the same seed are independent of each other.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Per-instance statement costs for the Doacross: `table[stmt][pid]`,
/// uniform in `centre ± centre/20`. The band is narrow on purpose: the
/// makespan, and with it host time, must move little from seed to seed
/// so that runs on different seeds are comparable.
pub fn doacross_costs(seed: u64, stmts: usize, iterations: usize, centre: u32) -> Vec<Vec<u32>> {
    let mut rng = Rng::stream(seed, 1);
    let half = u64::from(centre / 20);
    (0..stmts)
        .map(|_| {
            (0..=iterations)
                .map(|_| rng.range(u64::from(centre) - half, u64::from(centre) + half) as u32)
                .collect()
        })
        .collect()
}

/// Per-(processor, round) compute cycles for the barrier hot-spot,
/// uniform in `centre ± centre/10`, so that arrivals at the counter
/// stagger.
pub fn hotspot_compute(seed: u64, procs: usize, rounds: usize, centre: u32) -> Vec<Vec<u32>> {
    let mut rng = Rng::stream(seed, 2);
    let half = u64::from(centre / 10);
    (0..procs)
        .map(|_| {
            (0..rounds)
                .map(|_| rng.range(u64::from(centre) - half, u64::from(centre) + half) as u32)
                .collect()
        })
        .collect()
}

/// Shape of the serve-sweep grids.
#[derive(Debug, Clone, Copy)]
pub struct GridShape {
    /// Distinct grids (one request each) per phase.
    pub requests: usize,
    /// Lower iteration count: drawn from `short..=short + 3`.
    pub short: u64,
    /// Upper iteration count: `long` minus the lower count's draw, so
    /// every grid simulates the same total number of iterations.
    pub long: u64,
    /// Machine sizes swept.
    pub processors: [usize; 2],
}

/// The sweep bodies of one serve-sweep run: `shape.requests` grids of
/// 5 schemes × {dedicated, shared} × 2 iteration counts × 2 machine
/// sizes × {none, mesi} × fault intensity {0, 20} = 160 cells each.
/// Each grid gets its own fault-plan seed and iteration counts, so no
/// two grids share a cell; the two counts always add up to
/// `short + long`, which keeps the work per request, and with it the
/// throughput, comparable from seed to seed.
pub fn sweep_bodies(seed: u64, shape: GridShape) -> Vec<String> {
    let mut rng = Rng::stream(seed, 3);
    (0..shape.requests)
        .map(|_| {
            let grid_seed = rng.range(1, 1 << 40);
            let shift = rng.range(0, 3);
            let (short, long) = (shape.short + shift, shape.long - shift);
            format!(
                "{{\"schemes\": [\"reference\", \"instance\", \"statement\", \"process\", \
                 \"barrier\"], \"fabrics\": [\"dedicated\", \"shared\"], \
                 \"iterations\": [{short}, {long}], \"processors\": [{}, {}], \
                 \"caches\": [\"none\", \"mesi\"], \"fault_pcts\": [0, 20], \
                 \"seed\": {grid_seed}}}",
                shape.processors[0], shape.processors[1]
            )
        })
        .collect()
}

/// Cells in one grid of [`sweep_bodies`].
pub const GRID_CELLS: usize = 5 * 2 * 2 * 2 * 2 * 2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let shape = GridShape { requests: 2, short: 16, long: 28, processors: [8, 16] };
        assert_eq!(sweep_bodies(7, shape), sweep_bodies(7, shape));
        assert_ne!(sweep_bodies(7, shape), sweep_bodies(8, shape));
        assert_eq!(doacross_costs(3, 5, 64, 2000), doacross_costs(3, 5, 64, 2000));
        let costs = doacross_costs(3, 5, 64, 2000);
        assert!(costs.iter().flatten().all(|&c| (1900..=2100).contains(&c)));
        let compute = hotspot_compute(3, 8, 4, 200);
        assert!(compute.iter().flatten().all(|&c| (180..=220).contains(&c)));
    }
}
