//! Input generation. Everything the program receives — keys, values, the
//! order of operations — is a pure function of the run seed, computed here
//! with the benchmark's own generators so that no change to the program's
//! crates (including their `rand` stand-in) can change the inputs.

/// SplitMix64: a small, well-mixed 64-bit generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`; `n > 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finaliser, also used as a stateless hash.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive an independent sub-seed (per rank, per round, per purpose).
pub fn derive(seed: u64, a: u64, b: u64) -> u64 {
    mix(mix(seed ^ 0x005E_ED0F_BE4C) ^ mix(a.wrapping_add(0x1234_5678)) ^ b.rotate_left(29))
}

/// The key for key id `id`: 24 bytes, unique per id, scrambled by the seed
/// so the program's hash places a different set of keys on each rank.
pub fn key(seed: u64, id: u64) -> Vec<u8> {
    format!("pb{:014x}{:08x}", mix(seed ^ id.wrapping_mul(0xA24B_AED4_963E_E407)) >> 8, id)
        .into_bytes()
}

/// Value header: key id (8 bytes), version (4 bytes), total length (4 bytes).
pub const HEADER: usize = 16;

/// The value written for `(id, version)`: a header naming the key, the
/// version and the length, then filler drawn from `(seed, id, version)`.
pub fn value(seed: u64, id: u64, version: u32, len: usize) -> Vec<u8> {
    assert!(len >= HEADER, "values carry a {HEADER}-byte header");
    let mut v = Vec::with_capacity(len);
    v.extend_from_slice(&id.to_le_bytes());
    v.extend_from_slice(&version.to_le_bytes());
    v.extend_from_slice(&(len as u32).to_le_bytes());
    fill(seed, id, version, &mut v, len);
    v
}

/// Length of the value for `(id, version)`: uniform in `[mean/2, 3*mean/2]`,
/// so sizes vary the way real records do and latencies that depend on size
/// are not a single constant of the cost model.
pub fn value_len(seed: u64, id: u64, version: u32, mean: usize) -> usize {
    let mut rng = Rng::new(derive(seed, id, version as u64 ^ 0x1E4));
    mean / 2 + rng.below(mean as u64 + 1) as usize
}

fn filler_rng(seed: u64, id: u64, version: u32) -> Rng {
    Rng::new(derive(seed, id, version as u64 ^ 0xF111))
}

fn fill(seed: u64, id: u64, version: u32, v: &mut Vec<u8>, len: usize) {
    let mut rng = filler_rng(seed, id, version);
    while v.len() < len {
        let w = rng.next_u64().to_le_bytes();
        let take = (len - v.len()).min(8);
        v.extend_from_slice(&w[..take]);
    }
}

/// Whether `body` (the bytes after the header) is exactly the filler of
/// `(seed, id, version)`.
pub fn filler_matches(seed: u64, id: u64, version: u32, body: &[u8]) -> bool {
    let mut rng = filler_rng(seed, id, version);
    body.chunks(8).all(|c| rng.next_u64().to_le_bytes()[..c.len()] == *c)
}

/// YCSB's Zipfian generator over `[0, n)` (Gray et al., "Quickly
/// generating billion-record synthetic databases"), rank 0 most popular.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 2);
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self { n, theta, alpha, zetan, eta }
    }

    pub fn next(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_depend_on_every_input() {
        let v = value(7, 3, 2, 100);
        assert_eq!(v.len(), 100);
        assert!(filler_matches(7, 3, 2, &v[HEADER..]));
        assert!(!filler_matches(7, 3, 1, &v[HEADER..]));
        assert!(!filler_matches(8, 3, 2, &v[HEADER..]));
        assert_ne!(key(1, 5), key(2, 5));
        assert_ne!(key(1, 5), key(1, 6));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(1);
        let draws: Vec<u64> = (0..20_000).map(|_| z.next(&mut rng)).collect();
        assert!(draws.iter().all(|&d| d < 1000));
        let hot = draws.iter().filter(|&&d| d < 10).count();
        assert!(hot > 20_000 / 5, "top 1% of keys should draw far more than 1%: {hot}");
    }
}
