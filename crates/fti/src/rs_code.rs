//! Reed–Solomon erasure coding over GF(2⁸).
//!
//! FTI's L3 checkpoints are protected with a Reed–Solomon (RS) erasure code so that a
//! checkpoint group can survive the loss of several of its members. This module is a
//! self-contained, real implementation of a systematic RS code:
//!
//! * arithmetic in GF(2⁸) with the standard AES polynomial `x⁸+x⁴+x³+x+1` (0x11B),
//!   using log/antilog tables;
//! * an `k + m` systematic code built from a Vandermonde-derived encoding matrix whose
//!   top `k×k` block is the identity (data shards are stored verbatim, parity shards
//!   are linear combinations);
//! * decoding by inverting the `k×k` submatrix corresponding to any `k` surviving
//!   shards (Gaussian elimination over GF(2⁸)).
//!
//! The codec works on equally sized shards; [`encode`] pads the input to a multiple of
//! `k` and records the original length so [`decode`] can return exactly the original
//! bytes.
//!
//! ## The fast data path
//!
//! The hot loop of both encode and decode is "XOR `coeff · src` into `dst`" over whole
//! shards. Instead of calling [`gf_mul`] per byte (two table lookups, an add and a
//! zero-check each), the fast kernel builds one 64 Ki-entry *double-byte* product table
//! per distinct matrix coefficient (two bytes are multiplied per lookup; tables are
//! cached process-wide, and an `(k, m)` code only ever uses a handful of distinct
//! coefficients) and streams the shards eight bytes at a time through `u64` words —
//! table lookups for the multiply half, word-wide XOR for the accumulate half, and a
//! pure `u64` XOR loop when the coefficient is 1 (a 32-lane GFNI kernel replaces the
//! tables where the CPU has it). Data shards are zero-copy [`Payload`] views into one
//! shared padded buffer, and encoding makes one tiled pass over them: each data tile is
//! fetched once for all parity rows, which accumulate in an L1-resident scratch tile.
//!
//! The original per-byte, row-at-a-time path lives on in the unit tests as the
//! reference oracle the property tests compare the fast path against bit-for-bit.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use mpisim::Payload;
use parking_lot::Mutex;

/// Errors reported by the Reed–Solomon codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// Fewer than `k` shards survive, so the data cannot be reconstructed.
    NotEnoughShards {
        /// Number of shards still available.
        available: usize,
        /// Number of shards required (the data shard count `k`).
        needed: usize,
    },
    /// Shards have inconsistent lengths.
    ShardSizeMismatch,
    /// Invalid code parameters (zero data shards, or more than 255 total shards).
    InvalidParameters(String),
}

impl fmt::Display for RsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsError::NotEnoughShards { available, needed } => {
                write!(
                    f,
                    "not enough shards to reconstruct: {available} available, {needed} needed"
                )
            }
            RsError::ShardSizeMismatch => write!(f, "shards have inconsistent sizes"),
            RsError::InvalidParameters(msg) => write!(f, "invalid reed-solomon parameters: {msg}"),
        }
    }
}

impl std::error::Error for RsError {}

// --- GF(256) arithmetic -----------------------------------------------------------

/// Log/antilog tables for GF(2⁸) with generator 3 and polynomial 0x11B.
struct Gf256Tables {
    log: [u8; 256],
    exp: [u8; 512],
}

fn tables() -> &'static Gf256Tables {
    static TABLES: OnceLock<Gf256Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut log = [0u8; 256];
        let mut exp = [0u8; 512];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u8;
            // multiply x by the generator 3 = x + 1 in GF(2^8)
            x = (x << 1) ^ x;
            if x & 0x100 != 0 {
                x ^= 0x11B;
            }
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Gf256Tables { log, exp }
    })
}

/// Multiplication in GF(2⁸).
pub fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    let idx = t.log[a as usize] as usize + t.log[b as usize] as usize;
    t.exp[idx]
}

/// Division in GF(2⁸).
///
/// # Panics
///
/// Panics if `b` is zero.
pub fn gf_div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(256)");
    if a == 0 {
        return 0;
    }
    let t = tables();
    let idx = 255 + t.log[a as usize] as usize - t.log[b as usize] as usize;
    t.exp[idx]
}

/// Multiplicative inverse in GF(2⁸).
///
/// # Panics
///
/// Panics if `a` is zero.
pub fn gf_inv(a: u8) -> u8 {
    gf_div(1, a)
}

// --- vectorized slice kernels ------------------------------------------------------

/// Number of entries of a double-byte product table (`u16` input → `u16` product).
const WIDE_TABLE_LEN: usize = 1 << 16;

/// Returns the cached double-byte multiplication table of `coeff`: entry `lo | hi<<8`
/// holds `coeff·lo | (coeff·hi)<<8`. Tables are built once per distinct coefficient and
/// shared process-wide (an erasure code uses only a handful of distinct coefficients,
/// and at most 255 exist).
fn wide_mul_table(coeff: u8) -> Arc<[u16]> {
    static CACHE: OnceLock<Mutex<HashMap<u8, Arc<[u16]>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(t) = cache.lock().get(&coeff) {
        return Arc::clone(t);
    }
    // Build outside the lock: first the 256-entry byte-product row of this
    // coefficient, then the 64 Ki double-byte composition of it.
    let mut row = [0u8; 256];
    for (b, r) in row.iter_mut().enumerate() {
        *r = gf_mul(coeff, b as u8);
    }
    let mut wide = vec![0u16; WIDE_TABLE_LEN];
    for hi in 0..256usize {
        let hv = (row[hi] as u16) << 8;
        let base = hi << 8;
        for lo in 0..256usize {
            wide[base | lo] = hv | row[lo] as u16;
        }
    }
    let arc: Arc<[u16]> = wide.into();
    Arc::clone(cache.lock().entry(coeff).or_insert(arc))
}

/// XOR-accumulates a plain `src` into `dst` eight bytes per iteration.
fn xor_slice(dst: &mut [u8], src: &[u8]) {
    let n = dst.len().min(src.len()) / 8 * 8;
    for (d, s) in dst[..n].chunks_exact_mut(8).zip(src[..n].chunks_exact(8)) {
        let x = u64::from_le_bytes(s.try_into().expect("8-byte chunk"));
        let cur = u64::from_le_bytes((&*d).try_into().expect("8-byte chunk"));
        d.copy_from_slice(&(cur ^ x).to_le_bytes());
    }
    for (d, s) in dst[n..].iter_mut().zip(&src[n..]) {
        *d ^= s;
    }
}

/// Whether the CPU supports the AVX2 + GFNI instructions the SIMD kernel needs
/// (detected once per process).
#[cfg(target_arch = "x86_64")]
fn gfni_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| is_x86_feature_detected!("gfni") && is_x86_feature_detected!("avx2"))
}

/// GFNI multiply–accumulate: `_mm256_gf2p8mul_epi8` multiplies 32 byte lanes at once
/// in GF(2⁸) with the AES reduction polynomial 0x11B — the exact field this module's
/// tables implement, so the products are bit-identical to [`gf_mul`].
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX2 and GFNI (see [`gfni_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "gfni", enable = "avx2")]
unsafe fn gf_mul_slice_xor_gfni(dst: &mut [u8], src: &[u8], coeff: u8) {
    use std::arch::x86_64::{
        __m256i, _mm256_gf2p8mul_epi8, _mm256_loadu_si256, _mm256_set1_epi8, _mm256_storeu_si256,
        _mm256_xor_si256,
    };
    let n = dst.len().min(src.len());
    let vec_end = n / 32 * 32;
    // SAFETY: the caller guarantees AVX2+GFNI; every unaligned load/store below stays
    // within `src[..vec_end]` / `dst[..vec_end]`.
    unsafe {
        let c = _mm256_set1_epi8(coeff as i8);
        let mut i = 0;
        while i < vec_end {
            let s = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
            let d = _mm256_loadu_si256(dst.as_ptr().add(i) as *const __m256i);
            let p = _mm256_gf2p8mul_epi8(s, c);
            _mm256_storeu_si256(
                dst.as_mut_ptr().add(i) as *mut __m256i,
                _mm256_xor_si256(d, p),
            );
            i += 32;
        }
    }
    for (d, s) in dst[vec_end..n].iter_mut().zip(&src[vec_end..n]) {
        *d ^= gf_mul(coeff, *s);
    }
}

/// The fast multiply–accumulate kernel: `dst[i] ^= coeff · src[i]` for every `i`, in
/// GF(2⁸). Dispatches to the 32-lane GFNI SIMD kernel when the CPU has it, and to the
/// portable double-byte-table `u64` kernel ([`gf_mul_slice_xor_tables`]) otherwise.
pub fn gf_mul_slice_xor(dst: &mut [u8], src: &[u8], coeff: u8) {
    debug_assert_eq!(dst.len(), src.len());
    match coeff {
        0 => {}
        1 => xor_slice(dst, src),
        _ => {
            #[cfg(target_arch = "x86_64")]
            if gfni_available() {
                // SAFETY: feature availability checked at runtime just above.
                unsafe { gf_mul_slice_xor_gfni(dst, src, coeff) };
                return;
            }
            gf_mul_slice_xor_tables(dst, src, coeff);
        }
    }
}

/// The portable fast kernel: streams eight bytes per iteration — double-byte table
/// lookups for the multiply half, `u64` XOR for the accumulate half. Used when the
/// CPU lacks GFNI (and verified against the scalar oracle regardless of CPU).
pub fn gf_mul_slice_xor_tables(dst: &mut [u8], src: &[u8], coeff: u8) {
    match coeff {
        0 => {}
        1 => xor_slice(dst, src),
        _ => {
            let table = wide_mul_table(coeff);
            let t: &[u16; WIDE_TABLE_LEN] =
                table[..].try_into().expect("wide table has 65536 entries");
            let n = dst.len().min(src.len()) / 8 * 8;
            for (d, s) in dst[..n].chunks_exact_mut(8).zip(src[..n].chunks_exact(8)) {
                let x = u64::from_le_bytes(s.try_into().expect("8-byte chunk"));
                let y = t[(x & 0xFFFF) as usize] as u64
                    | (t[((x >> 16) & 0xFFFF) as usize] as u64) << 16
                    | (t[((x >> 32) & 0xFFFF) as usize] as u64) << 32
                    | (t[(x >> 48) as usize] as u64) << 48;
                let cur = u64::from_le_bytes((&*d).try_into().expect("8-byte chunk"));
                d.copy_from_slice(&(cur ^ y).to_le_bytes());
            }
            for (d, s) in dst[n..].iter_mut().zip(&src[n..]) {
                // A bare byte indexes the low lane; the high lane multiplies zero.
                *d ^= t[*s as usize] as u8;
            }
        }
    }
}

/// Cache tile for multi-source accumulation: the destination chunk stays resident in
/// L1 while every source row passes over it.
const ACC_TILE: usize = 16 * 1024;

/// Accumulates `dst[i] ^= Σ coeff_j · src_j[i]` over all `(src, coeff)` pairs, tiled
/// so `dst` is read and written once per tile instead of once per source. Byte-wise
/// results are identical to running the kernel per source over the full slices (GF
/// addition is XOR: each byte's contributions commute).
fn accumulate(dst: &mut [u8], sources: &[(&[u8], u8)], kernel: fn(&mut [u8], &[u8], u8)) {
    let len = dst.len();
    let mut off = 0;
    while off < len {
        let end = (off + ACC_TILE).min(len);
        for &(src, coeff) in sources {
            kernel(&mut dst[off..end], &src[off..end], coeff);
        }
        off = end;
    }
}

// --- matrices ---------------------------------------------------------------------

/// A dense matrix over GF(2⁸).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl Matrix {
    fn zero(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    fn identity(n: usize) -> Self {
        let mut m = Self::zero(n, n);
        for i in 0..n {
            m.set(i, i, 1);
        }
        m
    }

    fn get(&self, r: usize, c: usize) -> u8 {
        self.data[r * self.cols + c]
    }

    fn set(&mut self, r: usize, c: usize, v: u8) {
        self.data[r * self.cols + c] = v;
    }

    fn row(&self, r: usize) -> &[u8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Gauss–Jordan inversion. Returns `None` if the matrix is singular.
    fn inverted(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols);
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Find a pivot.
            let pivot = (col..n).find(|&r| a.get(r, col) != 0)?;
            if pivot != col {
                for c in 0..n {
                    let tmp = a.get(col, c);
                    a.set(col, c, a.get(pivot, c));
                    a.set(pivot, c, tmp);
                    let tmp = inv.get(col, c);
                    inv.set(col, c, inv.get(pivot, c));
                    inv.set(pivot, c, tmp);
                }
            }
            // Scale the pivot row.
            let p = a.get(col, col);
            let pinv = gf_inv(p);
            for c in 0..n {
                a.set(col, c, gf_mul(a.get(col, c), pinv));
                inv.set(col, c, gf_mul(inv.get(col, c), pinv));
            }
            // Eliminate the column from all other rows.
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = a.get(r, col);
                if factor == 0 {
                    continue;
                }
                for c in 0..n {
                    let va = a.get(r, c) ^ gf_mul(factor, a.get(col, c));
                    a.set(r, c, va);
                    let vi = inv.get(r, c) ^ gf_mul(factor, inv.get(col, c));
                    inv.set(r, c, vi);
                }
            }
        }
        Some(inv)
    }
}

/// Builds the `(k + m) × k` systematic encoding matrix: identity on top, Vandermonde-
/// derived parity rows below (row `i` of the parity block is `[g^(i·0), g^(i·1), ...]`
/// with distinct evaluation points, which keeps every `k × k` submatrix invertible for
/// the parameter ranges FTI uses).
fn build_encoding_matrix(k: usize, m: usize) -> Matrix {
    // Build a (k+m) x k Vandermonde matrix with distinct points, then normalize its
    // top k x k block to the identity by multiplying with that block's inverse.
    let mut vand = Matrix::zero(k + m, k);
    for r in 0..k + m {
        for c in 0..k {
            // point for row r is r (as a field element), column c is its c-th power
            let point = (r + 1) as u8; // avoid the zero point
            let mut v = 1u8;
            for _ in 0..c {
                v = gf_mul(v, point);
            }
            vand.set(r, c, v);
        }
    }
    // Extract the top k x k block and invert it.
    let mut top = Matrix::zero(k, k);
    for r in 0..k {
        for c in 0..k {
            top.set(r, c, vand.get(r, c));
        }
    }
    let top_inv = top.inverted().expect("vandermonde top block is invertible");
    // encoding = vand * top_inv  -> systematic matrix.
    let mut enc = Matrix::zero(k + m, k);
    for r in 0..k + m {
        for c in 0..k {
            let mut acc = 0u8;
            for i in 0..k {
                acc ^= gf_mul(vand.get(r, i), top_inv.get(i, c));
            }
            enc.set(r, c, acc);
        }
    }
    enc
}

/// The encoding matrix of an `(k, m)` code, cached process-wide: every checkpoint of a
/// run re-uses the same code parameters, so building (and inverting) the Vandermonde
/// system per encode call would be pure overhead.
fn encoding_matrix(k: usize, m: usize) -> Arc<Matrix> {
    type MatrixCache = Mutex<HashMap<(usize, usize), Arc<Matrix>>>;
    static CACHE: OnceLock<MatrixCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(mat) = cache.lock().get(&(k, m)) {
        return Arc::clone(mat);
    }
    let built = Arc::new(build_encoding_matrix(k, m));
    Arc::clone(cache.lock().entry((k, m)).or_insert(built))
}

// --- public codec ------------------------------------------------------------------

/// An encoded set of shards produced by [`encode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedShards {
    /// Number of data shards (`k`).
    pub data_shards: usize,
    /// Number of parity shards (`m`).
    pub parity_shards: usize,
    /// Length of the original input in bytes (the shards carry padding).
    pub original_len: usize,
    /// The `k + m` shards, each of equal length. The `k` data shards are zero-copy
    /// views into one shared padded buffer; cloning any shard is a reference-count
    /// bump.
    pub shards: Vec<Payload>,
}

impl EncodedShards {
    /// Length of each shard in bytes.
    pub fn shard_len(&self) -> usize {
        self.shards.first().map(Payload::len).unwrap_or(0)
    }
}

fn check_params(k: usize, m: usize) -> Result<(), RsError> {
    if k == 0 || m == 0 {
        return Err(RsError::InvalidParameters(
            "need at least one data and one parity shard".into(),
        ));
    }
    if k + m > 255 {
        return Err(RsError::InvalidParameters(format!(
            "k + m = {} exceeds 255",
            k + m
        )));
    }
    Ok(())
}

/// Pads `data` to `k` equal shards inside one shared buffer and returns the buffer
/// plus its per-shard views.
fn data_shards(data: &[u8], k: usize, shard_len: usize) -> Vec<Payload> {
    let mut padded = Vec::with_capacity(shard_len * k);
    padded.extend_from_slice(data);
    padded.resize(shard_len * k, 0);
    let padded = Payload::from(padded);
    (0..k)
        .map(|i| padded.slice(i * shard_len..(i + 1) * shard_len))
        .collect()
}

/// Encodes `data` into `k` data shards plus `m` parity shards (fast path).
///
/// # Errors
///
/// Returns [`RsError::InvalidParameters`] if `k` is zero, `m` is zero, or `k + m`
/// exceeds 255 (the field size limits the number of distinct evaluation points).
pub fn encode(data: &[u8], k: usize, m: usize) -> Result<EncodedShards, RsError> {
    check_params(k, m)?;
    let shard_len = data.len().div_ceil(k).max(1);
    Ok(finish_encode(
        data_shards(data, k, shard_len),
        data.len(),
        k,
        m,
    ))
}

/// Encodes an already-shared [`Payload`]. When the payload length is a multiple of
/// `k` (the common case for checkpoint payloads), the data shards are zero-copy views
/// of the caller's buffer — only the `m` parity shards are materialized. Produces
/// bit-identical shards to [`encode`].
///
/// # Errors
///
/// Same error conditions as [`encode`].
pub fn encode_payload(payload: &Payload, k: usize, m: usize) -> Result<EncodedShards, RsError> {
    check_params(k, m)?;
    let shard_len = payload.len().div_ceil(k).max(1);
    if payload.len() == shard_len * k {
        let shards: Vec<Payload> = (0..k)
            .map(|i| payload.slice(i * shard_len..(i + 1) * shard_len))
            .collect();
        Ok(finish_encode(shards, payload.len(), k, m))
    } else {
        encode(payload, k, m)
    }
}

/// Computes the `m` parity shards over prepared data shards and assembles the result,
/// in one pass over the data: for each [`ACC_TILE`] tile, every parity row zeroes a
/// scratch tile that stays in L1, accumulates every data shard's tile into it, and
/// appends it to that row's parity buffer. Each data tile is fetched from memory once
/// for all `m` rows, and no parity buffer is zero-filled up front. Bytes are identical
/// to accumulating row by row over whole shards: GF(2⁸) addition is XOR, so each
/// byte's contributions commute.
fn finish_encode(
    mut shards: Vec<Payload>,
    original_len: usize,
    k: usize,
    m: usize,
) -> EncodedShards {
    let shard_len = shards.first().map(Payload::len).unwrap_or(0);
    let enc = encoding_matrix(k, m);
    let mut parity: Vec<Vec<u8>> = (0..m).map(|_| Vec::with_capacity(shard_len)).collect();
    let mut scratch = vec![0u8; ACC_TILE.min(shard_len)];
    let mut off = 0;
    while off < shard_len {
        let end = (off + ACC_TILE).min(shard_len);
        let tile = &mut scratch[..end - off];
        for (row, out) in parity.iter_mut().enumerate() {
            tile.fill(0);
            for (data, &coeff) in shards.iter().zip(enc.row(k + row)) {
                gf_mul_slice_xor(tile, &data[off..end], coeff);
            }
            out.extend_from_slice(tile);
        }
        off = end;
    }
    shards.extend(parity.into_iter().map(Payload::from));
    EncodedShards {
        data_shards: k,
        parity_shards: m,
        original_len,
        shards,
    }
}

/// Reconstructs the original data from surviving shards (fast path).
///
/// `shards[i]` must be `Some` for surviving shard `i` (in the same order produced by
/// [`encode`]: data shards first, then parity) and `None` for lost shards. At least `k`
/// shards must survive. Any byte-slice shard representation is accepted (`Vec<u8>`,
/// [`Payload`], ...).
///
/// # Errors
///
/// Returns [`RsError::NotEnoughShards`] if fewer than `k` shards survive,
/// [`RsError::ShardSizeMismatch`] if the surviving shards disagree on length, and
/// [`RsError::InvalidParameters`] for parameter errors.
pub fn decode<S: AsRef<[u8]>>(
    shards: &[Option<S>],
    k: usize,
    m: usize,
    original_len: usize,
) -> Result<Vec<u8>, RsError> {
    decode_with_kernel(shards, k, m, original_len, gf_mul_slice_xor)
}

fn decode_with_kernel<S: AsRef<[u8]>>(
    shards: &[Option<S>],
    k: usize,
    m: usize,
    original_len: usize,
    kernel: fn(&mut [u8], &[u8], u8),
) -> Result<Vec<u8>, RsError> {
    if k == 0 || m == 0 || k + m > 255 {
        return Err(RsError::InvalidParameters("bad k/m".into()));
    }
    if shards.len() != k + m {
        return Err(RsError::InvalidParameters(format!(
            "expected {} shard slots, got {}",
            k + m,
            shards.len()
        )));
    }
    let shard = |i: usize| shards[i].as_ref().map(S::as_ref);
    let available: Vec<usize> = (0..k + m).filter(|&i| shards[i].is_some()).collect();
    if available.len() < k {
        return Err(RsError::NotEnoughShards {
            available: available.len(),
            needed: k,
        });
    }
    let shard_len = shard(available[0]).expect("available shard").len();
    for &i in &available {
        if shard(i).expect("available shard").len() != shard_len {
            return Err(RsError::ShardSizeMismatch);
        }
    }

    // Fast path: all data shards survive.
    if (0..k).all(|i| shards[i].is_some()) {
        let mut out = Vec::with_capacity(k * shard_len);
        for i in 0..k {
            out.extend_from_slice(shard(i).expect("data shard present"));
        }
        out.truncate(original_len);
        return Ok(out);
    }

    // General path: pick the first k surviving shards, invert the corresponding rows of
    // the encoding matrix, and recompute the data shards.
    let enc = encoding_matrix(k, m);
    let chosen = &available[..k];
    let mut sub = Matrix::zero(k, k);
    for (r, &shard_idx) in chosen.iter().enumerate() {
        for c in 0..k {
            sub.set(r, c, enc.get(shard_idx, c));
        }
    }
    let inv = sub.inverted().ok_or(RsError::ShardSizeMismatch)?;

    let mut out = vec![0u8; k * shard_len];
    for (data_idx, chunk) in out.chunks_exact_mut(shard_len).enumerate() {
        let sources: Vec<(&[u8], u8)> = chosen
            .iter()
            .enumerate()
            .map(|(r, &shard_idx)| {
                (
                    shard(shard_idx).expect("chosen shard"),
                    inv.get(data_idx, r),
                )
            })
            .collect();
        accumulate(chunk, &sources, kernel);
    }
    out.truncate(original_len);
    Ok(out)
}

/// Number of GF(2⁸) multiply–accumulate operations performed to encode `bytes` bytes
/// with an `(k, m)` code — used by the machine model to charge encoding time.
pub fn encode_work(bytes: usize, k: usize, m: usize) -> f64 {
    let shard_len = bytes.div_ceil(k.max(1)).max(1);
    (shard_len * k * m) as f64
}

/// The reference kernel the fast path is verified against: one [`gf_mul`] per byte.
#[cfg(test)]
fn gf_mul_slice_xor_scalar(dst: &mut [u8], src: &[u8], coeff: u8) {
    if coeff == 0 {
        return;
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= gf_mul(coeff, *s);
    }
}

/// Encodes with the original per-byte GF multiply loop, one parity row at a time over
/// whole shards: the reference oracle the property tests require the tiled fast path
/// to match shard for shard.
#[cfg(test)]
fn encode_scalar(data: &[u8], k: usize, m: usize) -> Result<EncodedShards, RsError> {
    check_params(k, m)?;
    let shard_len = data.len().div_ceil(k).max(1);
    let mut shards = data_shards(data, k, shard_len);
    let enc = encoding_matrix(k, m);
    for r in k..k + m {
        let mut parity = vec![0u8; shard_len];
        for (c, &coeff) in enc.row(r).iter().enumerate() {
            gf_mul_slice_xor_scalar(&mut parity, &shards[c], coeff);
        }
        shards.push(parity.into());
    }
    Ok(EncodedShards {
        data_shards: k,
        parity_shards: m,
        original_len: data.len(),
        shards,
    })
}

/// Decodes with the original per-byte GF multiply loop (see [`encode_scalar`]).
#[cfg(test)]
fn decode_scalar<S: AsRef<[u8]>>(
    shards: &[Option<S>],
    k: usize,
    m: usize,
    original_len: usize,
) -> Result<Vec<u8>, RsError> {
    decode_with_kernel(shards, k, m, original_len, gf_mul_slice_xor_scalar)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf_field_properties() {
        // 1 is the multiplicative identity.
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, 1), a);
            assert_eq!(gf_mul(1, a), a);
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a * a^-1 must be 1 for a = {a}");
            assert_eq!(gf_div(a, a), 1);
        }
        assert_eq!(gf_mul(0, 77), 0);
        assert_eq!(gf_div(0, 5), 0);
        // Commutativity and a known product: 2 * 3 = 6 in GF(256).
        assert_eq!(gf_mul(2, 3), 6);
        assert_eq!(gf_mul(3, 2), 6);
    }

    #[test]
    fn matrix_inversion_round_trip() {
        let m = encoding_matrix(4, 2);
        // The top block of a systematic matrix is the identity.
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(m.get(r, c), if r == c { 1 } else { 0 });
            }
        }
    }

    #[test]
    fn fast_kernel_matches_scalar_kernel() {
        let src: Vec<u8> = (0..1037u32).map(|i| (i * 31 % 256) as u8).collect();
        for coeff in [0u8, 1, 2, 29, 128, 255] {
            let mut fast = vec![0xA5u8; src.len()];
            let mut scalar = fast.clone();
            gf_mul_slice_xor(&mut fast, &src, coeff);
            gf_mul_slice_xor_scalar(&mut scalar, &src, coeff);
            assert_eq!(fast, scalar, "kernel mismatch for coeff {coeff}");
        }
    }

    #[test]
    fn fast_encode_is_bit_identical_to_scalar() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 13 % 256) as u8).collect();
        for &(k, m) in &[(4usize, 2usize), (8, 3), (2, 1)] {
            let fast = encode(&data, k, m).unwrap();
            let scalar = encode_scalar(&data, k, m).unwrap();
            assert_eq!(fast, scalar, "encode mismatch for k={k} m={m}");
        }
    }

    #[test]
    fn data_shards_share_one_buffer() {
        let data = vec![3u8; 4096];
        let enc = encode(&data, 4, 2).unwrap();
        for i in 1..4 {
            assert!(
                enc.shards[0].same_buffer(&enc.shards[i]),
                "data shard {i} should be a view into the shared padded buffer"
            );
        }
        assert!(!enc.shards[0].same_buffer(&enc.shards[4]));
    }

    #[test]
    fn aligned_payload_encode_is_zero_copy() {
        // A payload whose length divides evenly by k must not be copied at all: the
        // data shards are views of the caller's buffer.
        let payload: Payload = vec![9u8; 4096].into();
        let enc = encode_payload(&payload, 4, 2).unwrap();
        for i in 0..4 {
            assert!(
                enc.shards[i].same_buffer(&payload),
                "data shard {i} should alias the input payload"
            );
        }
        // Unaligned payloads fall back to the padded-copy path but stay correct.
        let odd: Payload = vec![7u8; 4097].into();
        let enc = encode_payload(&odd, 4, 2).unwrap();
        assert_eq!(enc, encode(&odd, 4, 2).unwrap());
        assert!(!enc.shards[0].same_buffer(&odd));
    }

    #[test]
    fn encode_decode_no_loss() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let enc = encode(&data, 4, 2).unwrap();
        assert_eq!(enc.shards.len(), 6);
        let shards: Vec<Option<Payload>> = enc.shards.iter().cloned().map(Some).collect();
        let dec = decode(&shards, 4, 2, enc.original_len).unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn recovers_from_parity_worth_of_erasures() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 7 % 256) as u8).collect();
        let k = 4;
        let m = 2;
        let enc = encode(&data, k, m).unwrap();
        // Erase any two shards (including data shards) and reconstruct.
        for lost_a in 0..k + m {
            for lost_b in (lost_a + 1)..k + m {
                let mut shards: Vec<Option<Payload>> =
                    enc.shards.iter().cloned().map(Some).collect();
                shards[lost_a] = None;
                shards[lost_b] = None;
                let dec = decode(&shards, k, m, enc.original_len)
                    .unwrap_or_else(|e| panic!("losing {lost_a},{lost_b}: {e}"));
                assert_eq!(dec, data, "losing shards {lost_a} and {lost_b}");
            }
        }
    }

    #[test]
    fn too_many_erasures_is_detected() {
        let data = vec![9u8; 100];
        let enc = encode(&data, 3, 2).unwrap();
        let mut shards: Vec<Option<Payload>> = enc.shards.iter().cloned().map(Some).collect();
        shards[0] = None;
        shards[1] = None;
        shards[2] = None;
        let err = decode(&shards, 3, 2, enc.original_len).unwrap_err();
        assert_eq!(
            err,
            RsError::NotEnoughShards {
                available: 2,
                needed: 3
            }
        );
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(matches!(
            encode(&[1], 0, 1),
            Err(RsError::InvalidParameters(_))
        ));
        assert!(matches!(
            encode(&[1], 1, 0),
            Err(RsError::InvalidParameters(_))
        ));
        assert!(matches!(
            encode(&[1], 200, 100),
            Err(RsError::InvalidParameters(_))
        ));
        assert!(decode::<Payload>(&[], 2, 1, 0).is_err());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let enc = encode(&[], 4, 2).unwrap();
        let shards: Vec<Option<Payload>> = enc.shards.iter().cloned().map(Some).collect();
        assert_eq!(decode(&shards, 4, 2, 0).unwrap(), Vec::<u8>::new());

        let enc = encode(&[42], 4, 2).unwrap();
        let mut shards: Vec<Option<Payload>> = enc.shards.iter().cloned().map(Some).collect();
        shards[0] = None; // the shard holding the only byte
        assert_eq!(decode(&shards, 4, 2, 1).unwrap(), vec![42]);
    }

    #[test]
    fn encode_work_scales() {
        assert!(encode_work(1 << 20, 4, 2) > encode_work(1 << 10, 4, 2));
        assert!(encode_work(1 << 20, 4, 4) > encode_work(1 << 20, 4, 2));
    }

    #[test]
    fn shard_accessors() {
        let enc = encode(&[1, 2, 3, 4, 5, 6, 7, 8], 4, 2).unwrap();
        assert_eq!(enc.shard_len(), 2);
        assert_eq!(enc.shards.iter().map(Payload::len).sum::<usize>(), 12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Erases up to `m` pseudo-randomly chosen shards.
    fn erase(shards: &mut [Option<Payload>], m: usize, seed: u64) {
        let mut state = seed | 1;
        let mut erased = 0;
        while erased < m {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let idx = (state >> 33) as usize % shards.len();
            if shards[idx].is_some() {
                shards[idx] = None;
                erased += 1;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Encoding and decoding with any erasure pattern of at most `m` lost shards
        /// reproduces the original data exactly.
        #[test]
        fn round_trips_under_any_tolerable_erasure(
            data in proptest::collection::vec(any::<u8>(), 0..2000),
            k in 2usize..8,
            m in 1usize..4,
            erase_seed in any::<u64>(),
        ) {
            let encoded = encode(&data, k, m).unwrap();
            let mut shards: Vec<Option<Payload>> = encoded.shards.iter().cloned().map(Some).collect();
            erase(&mut shards, m, erase_seed);
            let decoded = decode(&shards, k, m, encoded.original_len).unwrap();
            prop_assert_eq!(decoded, data);
        }

        /// The fast encode path produces bit-identical shards to the scalar oracle
        /// (and so does the zero-copy payload path), and under random erasures of up
        /// to `m` shards the fast and scalar decoders also agree bit-for-bit (both
        /// with the original data).
        #[test]
        fn fast_path_matches_scalar_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..3000),
            k in 2usize..8,
            m in 1usize..4,
            erase_seed in any::<u64>(),
        ) {
            let fast = encode(&data, k, m).unwrap();
            let scalar = encode_scalar(&data, k, m).unwrap();
            prop_assert_eq!(&fast, &scalar, "fast and scalar encode must be bit-identical");
            let from_payload = encode_payload(&Payload::from(data.clone()), k, m).unwrap();
            prop_assert_eq!(&from_payload, &scalar, "payload and scalar encode must agree");

            let mut shards: Vec<Option<Payload>> = fast.shards.iter().cloned().map(Some).collect();
            erase(&mut shards, m, erase_seed);
            let fast_dec = decode(&shards, k, m, fast.original_len).unwrap();
            let scalar_dec = decode_scalar(&shards, k, m, fast.original_len).unwrap();
            prop_assert_eq!(&fast_dec, &scalar_dec, "fast and scalar decode must agree");
            prop_assert_eq!(fast_dec, data);
        }

        /// The fast multiply–accumulate kernel (whatever the dispatcher picks on this
        /// CPU) and the portable table kernel both agree with the per-byte oracle for
        /// every coefficient and any slice length (including ragged tails).
        #[test]
        fn kernel_matches_oracle(
            src in proptest::collection::vec(any::<u8>(), 0..200),
            init in any::<u8>(),
            coeff in any::<u8>(),
        ) {
            let mut scalar = vec![init; src.len()];
            gf_mul_slice_xor_scalar(&mut scalar, &src, coeff);

            let mut fast = vec![init; src.len()];
            gf_mul_slice_xor(&mut fast, &src, coeff);
            prop_assert_eq!(&fast, &scalar, "dispatched kernel diverges from oracle");

            let mut tables = vec![init; src.len()];
            gf_mul_slice_xor_tables(&mut tables, &src, coeff);
            prop_assert_eq!(&tables, &scalar, "table kernel diverges from oracle");
        }

        /// The tiled parity pass matches the untiled per-byte oracle when shards end
        /// one byte short of a tile, one byte past it, and a few bytes into a fourth
        /// tile — with at least two parity rows sharing each scratch tile, and both
        /// with an unpadded (zero-copy) payload and a padded one.
        #[test]
        fn tiled_encode_matches_the_oracle_across_tile_edges(
            k in 2usize..6,
            m in 2usize..4,
            shape in 0usize..3,
            short in 0usize..6,
            seed in any::<u64>(),
        ) {
            let shard_len = [ACC_TILE - 1, ACC_TILE + 1, 3 * ACC_TILE + 5][shape];
            // Shorter than k·shard_len by less than k: the shard length is unchanged.
            let len = shard_len * k - short % k;
            let mut state = seed | 1;
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (state >> 56) as u8
                })
                .collect();
            let scalar = encode_scalar(&data, k, m).unwrap();
            prop_assert_eq!(scalar.shard_len(), shard_len);
            prop_assert_eq!(&encode(&data, k, m).unwrap(), &scalar);
            prop_assert_eq!(&encode_payload(&Payload::from(data), k, m).unwrap(), &scalar);
        }

        /// GF(256) multiplication is commutative and distributes over XOR (addition).
        #[test]
        fn gf256_field_laws(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
            prop_assert_eq!(gf_mul(a, b), gf_mul(b, a));
            prop_assert_eq!(gf_mul(a, gf_mul(b, c)), gf_mul(gf_mul(a, b), c));
            prop_assert_eq!(gf_mul(a, b ^ c), gf_mul(a, b) ^ gf_mul(a, c));
        }
    }
}
