//! The seeded input generator. The program under test sees only what
//! comes out of here: SQL text, request lines and dataset seeds.

use rqp::server::request_line;

/// Suite set S7. The two 6D suite queries are left out on purpose: one 6D
/// compile is 7-10 s, which leaves too few samples in a run.
pub const S7: [&str; 7] = [
    "3D_Q15", "3D_Q96", "4D_Q7", "4D_Q26", "4D_Q27", "4D_Q91", "5D_Q29",
];

/// The four 4D artifacts `serve-churn` rotates through; together they
/// are larger than its 8 MiB cache.
pub const CHURN_SET: [&str; 4] = ["4D_Q7", "4D_Q26", "4D_Q27", "4D_Q91"];

/// Number of error-prone predicates of a suite query, from its name.
pub fn dims_of(query: &str) -> usize {
    query[..1].parse().expect("suite names start with D")
}

/// SplitMix64: small, seedable, and the same stream on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The traffic mix of a serving workload: how often each method occurs in
/// one block of requests, over a query set.
pub struct Mix {
    pub methods: &'static [(&'static str, usize)],
    pub queries: &'static [&'static str],
}

impl Mix {
    /// Requests in one block; a round is a whole number of blocks.
    pub fn block(&self) -> usize {
        self.methods.iter().map(|(_, n)| n).sum()
    }
}

pub const LIGHT: Mix = Mix {
    methods: &[("explain", 1), ("run_native", 1), ("run_penaltyaware", 1)],
    queries: &S7,
};

pub const DISCOVERY: Mix = Mix {
    methods: &[
        ("run_spillbound", 3),
        ("run_planbouquet", 1),
        ("run_alignedbound", 1),
    ],
    queries: &S7,
};

/// One method over the churn set: the query rotation of a single method
/// is strict, which is what makes every request a cold load.
pub const CHURN: Mix = Mix {
    methods: &[("run_spillbound", 1)],
    queries: &CHURN_SET,
};

/// One generated request: the wire line plus what the harness needs to
/// classify and replay it.
pub struct Req {
    /// Number of the request in its stream, also its wire `id`.
    pub id: u64,
    pub line: String,
    pub method: &'static str,
    pub query: &'static str,
    pub qa: Vec<f64>,
}

/// Fractional parts of the square roots of the first primes: the step of
/// a Kronecker sequence in up to five dimensions.
const ALPHA: [f64; 5] = [
    0.414_213_562_373_095,
    0.732_050_807_568_877,
    0.236_067_977_499_790,
    0.645_751_311_064_591,
    0.316_624_790_355_400,
];

/// A seeded request stream over a [`Mix`], stratified so that any run is
/// the same workload whatever its seed and length: every block holds the
/// methods in their exact shares (in seeded order), each method walks the
/// queries in rotation, and the selectivities of one (method, query) pair
/// follow a Kronecker sequence from a seeded shift, log-uniform in
/// `[1e-6, 1]`. A plain random draw moved the share of AlignedBound
/// requests, and with it a round's rate, by a tenth between rounds. The
/// rotation always starts at the first query: which artifact `serve-churn`
/// loads first decides its heap layout, and peak RSS with it (33 to 42
/// MiB over the four starts).
pub struct Stream {
    mix: &'static Mix,
    rng: Rng,
    sent: u64,
    /// Requests generated so far, per method.
    counts: Vec<usize>,
    /// Sequence shift, per method and query.
    shifts: Vec<Vec<[f64; 5]>>,
}

impl Stream {
    pub fn new(mix: &'static Mix, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let shifts = (0..mix.methods.len())
            .map(|_| {
                (0..mix.queries.len())
                    .map(|_| std::array::from_fn(|_| rng.unit()))
                    .collect()
            })
            .collect();
        Self {
            mix,
            rng,
            sent: 0,
            counts: vec![0; mix.methods.len()],
            shifts,
        }
    }

    /// Requests generated so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// The next `blocks` blocks of requests.
    pub fn next(&mut self, blocks: usize) -> Vec<Req> {
        let mut reqs = Vec::with_capacity(blocks * self.mix.block());
        for _ in 0..blocks {
            let mut order: Vec<usize> = (0..self.mix.methods.len())
                .flat_map(|m| std::iter::repeat_n(m, self.mix.methods[m].1))
                .collect();
            self.rng.shuffle(&mut order);
            for m in order {
                let method = self.mix.methods[m].0;
                let nq = self.mix.queries.len();
                let (q, step) = (self.counts[m] % nq, self.counts[m] / nq);
                self.counts[m] += 1;
                let query = self.mix.queries[q];
                let qa: Vec<f64> = if method == "explain" {
                    Vec::new()
                } else {
                    (0..dims_of(query))
                        .map(|j| {
                            let u = (self.shifts[m][q][j] + (step + 1) as f64 * ALPHA[j]).fract();
                            10f64.powf(-6.0 * u)
                        })
                        .collect()
                };
                reqs.push(Req {
                    id: self.sent,
                    line: request_line(self.sent as f64, method, Some(query), &qa, None),
                    method,
                    query,
                    qa,
                });
                self.sent += 1;
            }
        }
        reqs
    }
}
