//! Rateless *online codes* (Maymounkov, TR2003-883), the paper's preferred codec.
//!
//! Online codes are sub-optimal rateless erasure codes: from `n` source blocks an
//! unbounded stream of *check blocks* can be generated, and the original data can
//! be recovered from any `(1 + ε)·n'` of them with high probability (where
//! `n' = n·(1 + 0.55·q·ε)` counts the auxiliary blocks added by the outer code).
//! Encoding is O(1) per check block and decoding is O(n) in total, which is why
//! the paper favours them over optimal codes for very large chunks.
//!
//! The construction follows the technical report the paper cites:
//!
//! 1. **Outer code** — `0.55·q·ε·n` auxiliary blocks are created; every source
//!    block is XORed into `q` pseudo-randomly chosen auxiliary blocks.  The
//!    source plus auxiliary blocks form the *composite message*.
//! 2. **Inner code** — each check block draws a degree `d` from the online-code
//!    degree distribution ρ and XORs `d` uniformly chosen composite blocks.
//!    The (degree, neighbour) choices are derived deterministically from the
//!    check block's index, so the decoder reconstructs them without metadata.
//! 3. **Decoding** — a peeling (belief-propagation) pass recovers composite
//!    blocks from check constraints with a single unknown; a small Gaussian
//!    elimination over the residual constraints finishes off the rare stalls so
//!    that decoding is deterministic whenever the received blocks span the data.

use crate::code::{row_mut, source_row, xor_into, DecodeError, ErasureCode};
use peerstripe_sim::DetRng;

/// Configuration and implementation of the online code.
#[derive(Debug, Clone)]
pub struct OnlineCode {
    n: usize,
    epsilon: f64,
    q: usize,
    check_blocks: usize,
    seed: u64,
    degree_cdf: Vec<f64>,
}

impl OnlineCode {
    /// Create an online code over `n` source blocks with quality parameters
    /// `epsilon` and `q`, producing `check_blocks` encoded blocks per chunk.
    ///
    /// Panics on degenerate parameters (`n = 0`, `epsilon` outside `(0, 1)`,
    /// `q = 0`, or too few check blocks to ever decode).
    pub fn new(n: usize, epsilon: f64, q: usize, check_blocks: usize) -> Self {
        assert!(n > 0, "source block count must be positive");
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
        assert!(q > 0, "q must be positive");
        let aux = Self::aux_count(n, epsilon, q);
        let min_needed = ((1.0 + epsilon) * (n + aux) as f64).ceil() as usize;
        assert!(
            check_blocks >= min_needed,
            "check_blocks {check_blocks} below the decode threshold {min_needed}"
        );
        let degree_cdf = Self::build_degree_cdf(epsilon);
        OnlineCode {
            n,
            epsilon,
            q,
            check_blocks,
            seed: 0x0411_13E0_C0DE_5EED,
            degree_cdf,
        }
    }

    /// The paper's Table 2 configuration: 4096 blocks per 4 MB chunk, `q = 3`,
    /// `ε = 0.01`, with enough check blocks for ≈3 % storage overhead.
    pub fn paper_default() -> Self {
        Self::with_overhead(4096, 0.01, 3, 1.03)
    }

    /// Create a code whose encoded size is about `overhead` times the source size
    /// (e.g. `1.03` for the 3 % overhead of Table 2), never below the decode
    /// threshold.
    pub fn with_overhead(n: usize, epsilon: f64, q: usize, overhead: f64) -> Self {
        assert!(overhead >= 1.0, "overhead must be at least 1.0");
        let aux = Self::aux_count(n, epsilon, q);
        let threshold = ((1.0 + epsilon) * (n + aux) as f64).ceil() as usize;
        let wanted = (overhead * n as f64).ceil() as usize;
        Self::new(n, epsilon, q, wanted.max(threshold))
    }

    /// Number of auxiliary blocks used by the outer code.
    pub fn aux_blocks(&self) -> usize {
        Self::aux_count(self.n, self.epsilon, self.q)
    }

    fn aux_count(n: usize, epsilon: f64, q: usize) -> usize {
        ((0.55 * q as f64 * epsilon * n as f64).ceil() as usize).max(1)
    }

    /// Build the cumulative degree distribution ρ of the inner code.
    ///
    /// `F = ceil(ln(ε²/4) / ln(1 − ε/2))`, `ρ₁ = 1 − (1 + 1/F)/(1 + ε)`,
    /// `ρᵢ = (1 − ρ₁)·F / ((F − 1)·i·(i − 1))` for `2 ≤ i ≤ F`.
    fn build_degree_cdf(epsilon: f64) -> Vec<f64> {
        let f = ((epsilon * epsilon / 4.0).ln() / (1.0 - epsilon / 2.0).ln()).ceil();
        let f = f.max(2.0);
        let rho1 = 1.0 - (1.0 + 1.0 / f) / (1.0 + epsilon);
        let rho1 = rho1.clamp(0.0, 1.0);
        // Cap the maximum degree for practicality: beyond a few hundred the tail
        // probabilities are negligible (< 1e-5 combined) and huge degrees only
        // slow encoding down.  The residual mass is folded into the cap.
        let max_degree = (f as usize).clamp(2, 512);
        let mut cdf = Vec::with_capacity(max_degree);
        let mut cum = rho1;
        cdf.push(cum);
        for i in 2..=max_degree {
            let rho_i = (1.0 - rho1) * f / ((f - 1.0) * i as f64 * (i as f64 - 1.0));
            cum += rho_i;
            cdf.push(cum.min(1.0));
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        cdf
    }

    fn sample_degree(&self, rng: &mut DetRng) -> usize {
        let u = rng.next_f64();
        match self.degree_cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => i + 1,
            Err(i) => (i + 1).min(self.degree_cdf.len()),
        }
    }

    /// Auxiliary-block assignment of the outer code: which aux blocks source
    /// block `i` is XORed into.  Deterministic in the codec seed and `i`.
    fn aux_assignment(&self, source_index: usize) -> Vec<usize> {
        let aux = self.aux_blocks();
        let mut rng =
            DetRng::new(self.seed ^ 0xA0A0_A0A0).fork_indexed("outer", source_index as u64);
        let mut picks = Vec::with_capacity(self.q);
        for _ in 0..self.q {
            picks.push(rng.index(aux));
        }
        picks.sort_unstable();
        picks.dedup();
        picks
    }

    /// Neighbourhood of check block `check_index` over the composite message
    /// (indices `0..n` are source blocks, `n..n+aux` auxiliary blocks).
    fn check_neighbours(&self, check_index: usize) -> Vec<usize> {
        let composite = self.n + self.aux_blocks();
        let mut rng =
            DetRng::new(self.seed ^ 0x1BBE_D0D0).fork_indexed("inner", check_index as u64);
        let degree = self.sample_degree(&mut rng).min(composite);
        let mut picks = Vec::with_capacity(degree);
        while picks.len() < degree {
            let candidate = rng.index(composite);
            if !picks.contains(&candidate) {
                picks.push(candidate);
            }
        }
        picks
    }
}

impl ErasureCode for OnlineCode {
    fn name(&self) -> &'static str {
        "Online"
    }

    fn source_blocks(&self) -> usize {
        self.n
    }

    fn encoded_blocks(&self) -> usize {
        self.check_blocks
    }

    fn min_decode_blocks(&self) -> usize {
        ((1.0 + self.epsilon) * (self.n + self.aux_blocks()) as f64).ceil() as usize
    }

    fn encode_rows_into(&self, chunk: &[u8], rows: &[u32], out: &mut [&mut [u8]]) {
        let block_size = self.block_size(chunk.len());
        // Source rows as they lie in the chunk: a short tail is zero padding,
        // and zeros contribute nothing to an XOR.
        let sources: Vec<&[u8]> = (0..self.n)
            .map(|i| source_row(chunk, i, block_size))
            .collect();
        // Outer code: build auxiliary blocks.
        let mut aux = vec![vec![0u8; block_size]; self.aux_blocks()];
        for (i, src) in sources.iter().enumerate() {
            for a in self.aux_assignment(i) {
                xor_into(&mut aux[a][..src.len()], src);
            }
        }
        // Composite message view used by the inner code.
        let composite: Vec<&[u8]> = sources
            .into_iter()
            .chain(aux.iter().map(Vec::as_slice))
            .collect();
        // Inner code: generate the requested check blocks.
        for (&c, dst) in rows.iter().zip(out.iter_mut()) {
            dst.fill(0);
            if (c as usize) < self.check_blocks {
                for neighbour in self.check_neighbours(c as usize) {
                    let src = composite[neighbour];
                    xor_into(&mut dst[..src.len()], src);
                }
            }
        }
    }

    fn decode_into(&self, blocks: &[(u32, &[u8])], out: &mut [u8]) -> Result<(), DecodeError> {
        let composite_count = self.n + self.aux_blocks();
        let block_size = out.len().div_ceil(self.n);
        if blocks.is_empty() && !out.is_empty() {
            return Err(DecodeError::NotEnoughBlocks {
                have: 0,
                need: self.min_decode_blocks(),
            });
        }

        // Constraint system over composite variables: every received check block
        // contributes one parity equation (its neighbours XOR to its payload);
        // every auxiliary block contributes one equation with RHS zero
        // (aux ^ its source blocks = 0).
        struct Constraint {
            unknowns: Vec<usize>,
            value: Vec<u8>,
        }
        let mut constraints: Vec<Constraint> = Vec::with_capacity(blocks.len() + self.aux_blocks());
        for &(index, data) in blocks {
            if index as usize >= self.check_blocks || data.len() != block_size {
                return Err(DecodeError::CorruptBlock { index });
            }
            // The peeling pass XORs into every constraint's value, so each
            // received block is copied once into decoder-owned state.
            constraints.push(Constraint {
                unknowns: self.check_neighbours(index as usize),
                value: data.to_vec(),
            });
        }
        for a in 0..self.aux_blocks() {
            let mut unknowns = vec![self.n + a];
            for s in 0..self.n {
                if self.aux_assignment(s).contains(&a) {
                    unknowns.push(s);
                }
            }
            constraints.push(Constraint {
                unknowns,
                value: vec![0u8; block_size],
            });
        }

        // variable -> constraints referencing it
        let mut var_constraints: Vec<Vec<usize>> = vec![Vec::new(); composite_count];
        for (ci, c) in constraints.iter().enumerate() {
            for &v in &c.unknowns {
                var_constraints[v].push(ci);
            }
        }

        let mut solved: Vec<Option<Vec<u8>>> = vec![None; composite_count];
        let mut queue: Vec<usize> = constraints
            .iter()
            .enumerate()
            .filter(|(_, c)| c.unknowns.len() == 1)
            .map(|(i, _)| i)
            .collect();

        // Peeling phase.
        while let Some(ci) = queue.pop() {
            let (var, value) = {
                let c = &constraints[ci];
                if c.unknowns.len() != 1 {
                    continue;
                }
                (c.unknowns[0], c.value.clone())
            };
            if solved[var].is_some() {
                constraints[ci].unknowns.clear();
                continue;
            }
            solved[var] = Some(value.clone());
            constraints[ci].unknowns.clear();
            for &other in &var_constraints[var] {
                let c = &mut constraints[other];
                if let Some(pos) = c.unknowns.iter().position(|&v| v == var) {
                    c.unknowns.swap_remove(pos);
                    xor_into(&mut c.value, &value);
                    if c.unknowns.len() == 1 {
                        queue.push(other);
                    }
                }
            }
        }

        // Gaussian-elimination fallback on the residual system (usually tiny).
        if solved[..self.n].iter().any(Option::is_none) {
            let residual_vars: Vec<usize> = (0..composite_count)
                .filter(|&v| solved[v].is_none())
                .collect();
            let var_pos: std::collections::BTreeMap<usize, usize> = residual_vars
                .iter()
                .enumerate()
                .map(|(pos, &v)| (v, pos))
                .collect();
            let mut rows: Vec<(Vec<bool>, Vec<u8>)> = Vec::new();
            for c in &constraints {
                if c.unknowns.is_empty() {
                    continue;
                }
                let mut mask = vec![false; residual_vars.len()];
                for &v in &c.unknowns {
                    mask[var_pos[&v]] ^= true;
                }
                rows.push((mask, c.value.clone()));
            }
            // Forward elimination.
            let mut pivot_of_col: Vec<Option<usize>> = vec![None; residual_vars.len()];
            let mut next_row = 0usize;
            for (col, pivot_slot) in pivot_of_col.iter_mut().enumerate() {
                let Some(pivot) = (next_row..rows.len()).find(|&r| rows[r].0[col]) else {
                    continue;
                };
                rows.swap(next_row, pivot);
                for r in 0..rows.len() {
                    if r != next_row && rows[r].0[col] {
                        let (a, b) = if r < next_row {
                            let (lo, hi) = rows.split_at_mut(next_row);
                            (&mut lo[r], &hi[0])
                        } else {
                            let (lo, hi) = rows.split_at_mut(r);
                            (&mut hi[0], &lo[next_row])
                        };
                        for (x, y) in a.0.iter_mut().zip(b.0.iter()) {
                            *x ^= *y;
                        }
                        xor_into(&mut a.1, &b.1);
                    }
                }
                *pivot_slot = Some(next_row);
                next_row += 1;
            }
            for (col, &var) in residual_vars.iter().enumerate() {
                if let Some(row) = pivot_of_col[col] {
                    // The row must now reference only this column.
                    if rows[row]
                        .0
                        .iter()
                        .enumerate()
                        .all(|(c2, &set)| !set || c2 == col)
                    {
                        solved[var] = Some(rows[row].1.clone());
                    }
                }
            }
        }

        let missing = solved[..self.n].iter().filter(|s| s.is_none()).count();
        if missing > 0 {
            if blocks.len() < self.min_decode_blocks() {
                return Err(DecodeError::NotEnoughBlocks {
                    have: blocks.len(),
                    need: self.min_decode_blocks(),
                });
            }
            return Err(DecodeError::Unrecoverable { missing });
        }
        for (i, src) in solved.iter().take(self.n).flatten().enumerate() {
            let dst = row_mut(out, i, block_size);
            dst.copy_from_slice(&src[..dst.len()]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::EncodedBlock;

    fn sample_chunk(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = DetRng::new(seed);
        (0..len).map(|_| rng.next_u32() as u8).collect()
    }

    fn small_code() -> OnlineCode {
        // Generous redundancy keeps the probabilistic decode reliable at small n.
        OnlineCode::with_overhead(64, 0.01, 3, 1.25)
    }

    #[test]
    fn round_trip_with_all_blocks() {
        let code = small_code();
        let chunk = sample_chunk(10_000, 1);
        let blocks = code.encode(&chunk);
        assert_eq!(blocks.len(), code.encoded_blocks());
        assert_eq!(code.decode(&blocks, chunk.len()).unwrap(), chunk);
    }

    #[test]
    fn round_trip_with_losses() {
        let code = small_code();
        let chunk = sample_chunk(8_192, 2);
        let blocks = code.encode(&chunk);
        // Drop 10% of the check blocks.
        let surviving: Vec<EncodedBlock> = blocks
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 10 != 0)
            .map(|(_, b)| b.clone())
            .collect();
        assert_eq!(code.decode(&surviving, chunk.len()).unwrap(), chunk);
    }

    #[test]
    fn round_trip_from_random_subsets() {
        let code = small_code();
        let chunk = sample_chunk(4_096, 3);
        let blocks = code.encode(&chunk);
        let mut rng = DetRng::new(99);
        for _ in 0..5 {
            let keep = code.min_decode_blocks() + 6;
            let idx = rng.sample_indices(blocks.len(), keep);
            let subset: Vec<EncodedBlock> = idx.iter().map(|&i| blocks[i].clone()).collect();
            assert_eq!(code.decode(&subset, chunk.len()).unwrap(), chunk);
        }
    }

    #[test]
    fn too_few_blocks_is_an_error() {
        let code = small_code();
        let chunk = sample_chunk(2_000, 4);
        let blocks = code.encode(&chunk);
        let few: Vec<EncodedBlock> = blocks.into_iter().take(10).collect();
        match code.decode(&few, chunk.len()) {
            Err(DecodeError::NotEnoughBlocks { have: 10, .. }) => {}
            other => panic!("expected NotEnoughBlocks, got {other:?}"),
        }
    }

    #[test]
    fn storage_overhead_is_low() {
        // The paper reports ~3% overhead for the online code (Table 2).
        let code = OnlineCode::paper_default();
        let overhead = code.storage_overhead();
        assert!(overhead > 1.0 && overhead < 1.06, "overhead {overhead}");
        assert_eq!(code.source_blocks(), 4096);
        assert!(
            code.tolerable_losses() >= 2,
            "must tolerate at least two losses"
        );
    }

    #[test]
    fn degree_distribution_is_a_cdf() {
        let cdf = OnlineCode::build_degree_cdf(0.01);
        assert!(cdf.windows(2).all(|w| w[1] >= w[0] - 1e-12));
        assert!((cdf.last().unwrap() - 1.0).abs() < 1e-12);
        assert!(
            cdf[0] > 0.0 && cdf[0] < 0.05,
            "rho_1 should be small: {}",
            cdf[0]
        );
    }

    #[test]
    fn neighbourhoods_are_deterministic() {
        let code = small_code();
        assert_eq!(code.check_neighbours(5), code.check_neighbours(5));
        assert_eq!(code.aux_assignment(7), code.aux_assignment(7));
        assert_ne!(code.check_neighbours(5), code.check_neighbours(6));
    }

    #[test]
    fn aux_block_count_matches_formula() {
        let code = OnlineCode::with_overhead(1000, 0.01, 3, 1.2);
        assert_eq!(
            code.aux_blocks(),
            (0.55f64 * 3.0 * 0.01 * 1000.0).ceil() as usize
        );
    }

    #[test]
    fn corrupt_index_rejected() {
        let code = small_code();
        let chunk = sample_chunk(512, 5);
        let mut blocks = code.encode(&chunk);
        blocks[0].index = 10_000;
        assert!(matches!(
            code.decode(&blocks, chunk.len()),
            Err(DecodeError::CorruptBlock { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "below the decode threshold")]
    fn rejects_insufficient_check_blocks() {
        let _ = OnlineCode::new(100, 0.01, 3, 50);
    }

    #[test]
    fn empty_chunk_round_trip() {
        let code = small_code();
        let blocks = code.encode(&[]);
        assert_eq!(code.decode(&blocks, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn single_byte_chunk() {
        // Tiny messages are far outside the asymptotic regime online codes are
        // designed for; a wide epsilon and generous redundancy keep the decode
        // deterministic for this edge case.
        let code = OnlineCode::with_overhead(4, 0.5, 2, 6.0);
        let chunk = vec![0xAB];
        let blocks = code.encode(&chunk);
        assert_eq!(code.decode(&blocks, 1).unwrap(), chunk);
    }
}
