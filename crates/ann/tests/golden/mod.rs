//! What the k-means golden fixture is computed from and how one model is
//! written into it: shared by the `kmeans_golden` test and the k-means unit
//! tests that check the fixture at forced thread counts.

use std::fmt::Write as _;

use reis_kernels::crc32c;

/// A deterministic stream of 64-bit words (SplitMix64).
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

/// `n` vectors of `dim` values around `clusters` centres; with `grid` set,
/// every value is a multiple of one half.
pub fn dataset(n: usize, dim: usize, clusters: usize, grid: bool, seed: u64) -> Vec<Vec<f32>> {
    let mut stream = Stream(seed);
    let centres: Vec<Vec<f32>> = (0..clusters)
        .map(|_| (0..dim).map(|_| 4.0 * stream.unit()).collect())
        .collect();
    (0..n)
        .map(|i| {
            let centre = &centres[i % clusters];
            centre
                .iter()
                .map(|&c| {
                    let x = c + stream.unit();
                    if grid {
                        (x * 2.0).round() / 2.0
                    } else {
                        x
                    }
                })
                .collect()
        })
        .collect()
}

pub fn crc_of_f32s<'a>(rows: impl IntoIterator<Item = &'a [f32]>) -> u32 {
    let mut state = 0;
    for row in rows {
        for x in row {
            state = reis_kernels::crc32c_extend(state, &x.to_bits().to_le_bytes());
        }
    }
    state
}

pub fn crc_of_indices(indices: impl IntoIterator<Item = usize>) -> u32 {
    let bytes: Vec<u8> = indices
        .into_iter()
        .flat_map(|i| (i as u32).to_le_bytes())
        .collect();
    crc32c(&bytes)
}

/// One model's fixture line: its centroids, assignments, inertia bits,
/// iteration count and the nearest centroid of every probe.
pub fn model_line(
    name: &str,
    centroids: &[Vec<f32>],
    assignments: &[usize],
    inertia: f64,
    iterations: usize,
    nearest: impl IntoIterator<Item = usize>,
) -> String {
    let mut line = String::new();
    writeln!(
        line,
        "{name} centroids {:08x} assignments {:08x} inertia {:016x} iterations {} nearest {:08x}",
        crc_of_f32s(centroids.iter().map(Vec::as_slice)),
        crc_of_indices(assignments.iter().copied()),
        inertia.to_bits(),
        iterations,
        crc_of_indices(nearest),
    )
    .expect("writing to a string");
    line
}
