//! Cache-blocked, SIMD-dispatched, thread-parallel matrix multiplication.
//!
//! Three layouts cover everything the autograd engine needs:
//!
//! * [`matmul`]       — `C = A · B`        (forward pass)
//! * [`matmul_a_bt`]  — `C = A · Bᵀ`       (input gradient: `dX = dY · Wᵀ`)
//! * [`matmul_at_b`]  — `C = Aᵀ · B`       (weight gradient: `dW = Xᵀ · dY`)
//!
//! Each kernel has an `_into` variant that writes into a caller-supplied
//! output tensor, reusing its buffer when uniquely owned and correctly
//! sized (otherwise one is drawn from the [`pool`](crate::pool)). The
//! allocating forms are thin wrappers over the `_into` forms.
//!
//! # SIMD path
//!
//! When [`simd::active_level`] is not scalar, all three layouts run a
//! register-blocked microkernel: B is packed into `NR`-column panels
//! (pool-backed scratch, zero-padded at the right edge), and each
//! `MR × NR` output tile accumulates in 8 vector registers while
//! streaming the panel once. All three layouts share one generic kernel —
//! the A operand is viewed through `(row_stride, k_stride)` so `Aᵀ·B` is
//! just a different stride pair, and `A·Bᵀ` packs the panels from `B`'s
//! rows instead of its columns.
//!
//! # Packed operand
//!
//! Packing costs about as much as a few-row product, so a small product
//! against a fixed B is mostly repacking. [`PackedB`] packs B once
//! ([`PackedB::pack`], or [`PackedB::pack_t`] for a transposed operand)
//! and [`matmul_packed_into`] multiplies against it any number of times;
//! the recurrent layers pack their hidden-to-hidden weight once per pass
//! instead of once per timestep. [`matmul_into`] is itself pack + packed
//! product, so there is one SIMD path, not two. Under the scalar level
//! a `PackedB` only holds B (transposed, for `pack_t`) and the product is
//! the scalar kernel.
//!
//! Bit-exactness: lanes are output columns, so each output element still
//! accumulates its `k` terms in ascending order with separate mul/add
//! instructions (no FMA contraction), and the per-`(row, k)` zero-skip of
//! the scalar `matmul` / `matmul_at_b` kernels is preserved (`matmul_a_bt`
//! never skipped). The SIMD result is therefore bit-identical to the
//! scalar path for every input, which the property tests in
//! `tests/simd_properties.rs` assert.
//!
//! All kernels view their inputs through [`Shape::as_matrix`], so
//! higher-rank activations (`[batch, seq, hidden]`) multiply 2-D weights
//! directly.
//!
//! Zero-sized inputs (any dimension 0) are valid and produce the
//! corresponding empty output.

#[cfg(target_arch = "x86_64")]
use crate::simd::A8;
#[cfg(target_arch = "aarch64")]
use crate::simd::N8;
use crate::simd::{self, dispatch_call, trampolines, Level, V};
use crate::Tensor;

/// Rows per pool task. Small enough to load-balance the micro-batch
/// sizes used in the experiments, large enough to amortize the fork-join
/// overhead.
const PAR_ROW_CHUNK: usize = 16;

/// Serial/parallel cutoff in total multiply-adds. Retuned from
/// `32 * 1024` when the SIMD microkernels landed: a vectorized kernel
/// finishes small products several times faster, so the fork-join
/// overhead only pays for itself on proportionally larger problems.
/// Row chunking never changes per-element accumulation order, so this
/// affects wall-clock only, never results.
const PAR_THRESHOLD: usize = 128 * 1024;

/// Runs `kernel(chunk_index, rows)` over `PAR_ROW_CHUNK`-row chunks of
/// `obuf`, serially for small problems and on the [`par`](crate::par)
/// pool otherwise. `flops` is the total multiply-add count used for the
/// cutoff.
fn for_each_row_chunk<F>(obuf: &mut [f32], bn: usize, flops: usize, kernel: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if flops < PAR_THRESHOLD {
        obuf.chunks_mut(PAR_ROW_CHUNK * bn).enumerate().for_each(|(i, c)| kernel(i, c));
    } else {
        crate::par::for_each_chunk_mut(obuf, PAR_ROW_CHUNK * bn, kernel);
    }
}

// ---------------------------------------------------------------------
// Packed SIMD microkernel, shared by all three layouts.
// ---------------------------------------------------------------------

/// Output-tile rows per microkernel invocation.
const MR: usize = 4;
/// Output-tile columns per microkernel invocation (two 8-lane vectors).
const NR: usize = 2 * simd::LANES;

/// Packs the `kd × bn` operand `Bop` into `NR`-column panels laid out
/// `panel[k * NR + j]`, reading `Bop[k, j] = bsrc[k * k_stride + j *
/// j_stride]`. `(k_stride, j_stride) = (bn, 1)` packs `B` as stored (each
/// panel row is one contiguous copy); `(1, bk)` packs `Bᵀ` from a
/// `[bn, bk]` tensor. The right-edge panel is zero-padded so the
/// microkernel can always run full vectors (the padded lanes are
/// computed but never stored).
fn pack_panels(bsrc: &[f32], kd: usize, bn: usize, k_stride: usize, j_stride: usize) -> Vec<f32> {
    let n_panels = bn.div_ceil(NR);
    let mut packed = crate::pool::take_buf(n_panels * kd * NR);
    for p in 0..n_panels {
        let j0 = p * NR;
        let w = NR.min(bn - j0);
        let panel = &mut packed[p * kd * NR..(p + 1) * kd * NR];
        for k in 0..kd {
            let row = &mut panel[k * NR..(k + 1) * NR];
            let src = k * k_stride + j0 * j_stride;
            if j_stride == 1 {
                row[..w].copy_from_slice(&bsrc[src..src + w]);
            } else {
                for (jj, slot) in row[..w].iter_mut().enumerate() {
                    *slot = bsrc[src + jj * j_stride];
                }
            }
            row[w..].fill(0.0);
        }
    }
    packed
}

/// Computes `rows` output rows (global row offset `row0`) of a product
/// against pre-packed panels. `A[i, k] = adata[i * ais + k * ats]`;
/// `skip` reproduces the scalar kernels' per-`(i, k)` zero-skip.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn packed_rows_impl<Vv: V>(
    out: &mut [f32],
    row0: usize,
    adata: &[f32],
    ais: usize,
    ats: usize,
    packed: &[f32],
    kd: usize,
    bn: usize,
    skip: bool,
) {
    let rows = out.len() / bn;
    let n_panels = bn.div_ceil(NR);
    let mut i = 0;
    while i < rows {
        let mr = (rows - i).min(MR);
        match mr {
            4 => tile_row::<Vv, 4>(out, i, row0, adata, ais, ats, packed, kd, bn, n_panels, skip),
            3 => tile_row::<Vv, 3>(out, i, row0, adata, ais, ats, packed, kd, bn, n_panels, skip),
            2 => tile_row::<Vv, 2>(out, i, row0, adata, ais, ats, packed, kd, bn, n_panels, skip),
            _ => tile_row::<Vv, 1>(out, i, row0, adata, ais, ats, packed, kd, bn, n_panels, skip),
        }
        i += mr;
    }
}

/// One `MR_ × bn` strip: for each panel, accumulate an `MR_ × NR` tile in
/// registers over the full `k` range, then store the live columns.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_row<Vv: V, const MR_: usize>(
    out: &mut [f32],
    i: usize,
    row0: usize,
    adata: &[f32],
    ais: usize,
    ats: usize,
    packed: &[f32],
    kd: usize,
    bn: usize,
    n_panels: usize,
    skip: bool,
) {
    let ap = adata.as_ptr();
    let op = out.as_mut_ptr();
    for p in 0..n_panels {
        let j0 = p * NR;
        let w = NR.min(bn - j0);
        let panel = packed.as_ptr().add(p * kd * NR);
        let mut acc0 = [Vv::zero(); MR_];
        let mut acc1 = [Vv::zero(); MR_];
        for k in 0..kd {
            let b0 = Vv::load(panel.add(k * NR));
            let b1 = Vv::load(panel.add(k * NR + simd::LANES));
            for ii in 0..MR_ {
                let aval = *ap.add((row0 + i + ii) * ais + k * ats);
                if skip && aval == 0.0 {
                    continue;
                }
                let av = Vv::splat(aval);
                acc0[ii] = acc0[ii].add(av.mul(b0));
                acc1[ii] = acc1[ii].add(av.mul(b1));
            }
        }
        for ii in 0..MR_ {
            let orow = op.add((i + ii) * bn + j0);
            if w == NR {
                acc0[ii].store(orow);
                acc1[ii].store(orow.add(simd::LANES));
            } else {
                let mut tmp = [0.0f32; NR];
                acc0[ii].store(tmp.as_mut_ptr());
                acc1[ii].store(tmp.as_mut_ptr().add(simd::LANES));
                std::ptr::copy_nonoverlapping(tmp.as_ptr(), orow, w);
            }
        }
    }
}

trampolines!(packed_rows_impl / packed_rows_avx2 / packed_rows_neon(
    out: &mut [f32], row0: usize, adata: &[f32], ais: usize, ats: usize,
    packed: &[f32], kd: usize, bn: usize, skip: bool
));

#[allow(clippy::too_many_arguments)]
fn packed_rows(
    out: &mut [f32],
    row0: usize,
    adata: &[f32],
    ais: usize,
    ats: usize,
    packed: &[f32],
    kd: usize,
    bn: usize,
    skip: bool,
) {
    dispatch_call!(
        packed_rows_impl
            / packed_rows_avx2
            / packed_rows_neon(out, row0, adata, ais, ats, packed, kd, bn, skip)
    )
}

/// The product against pre-packed panels: fills `obuf` chunk-parallel
/// through the microkernel. The one SIMD path: every layout, and
/// [`matmul_packed_into`], ends here.
#[allow(clippy::too_many_arguments)]
fn packed_product(
    obuf: &mut [f32],
    adata: &[f32],
    ais: usize,
    ats: usize,
    packed: &[f32],
    kd: usize,
    bn: usize,
    skip: bool,
) {
    if kd == 0 {
        // No terms to accumulate: the product is exactly zero.
        obuf.fill(0.0);
        return;
    }
    let rows = obuf.len() / bn;
    let kernel = move |i0: usize, chunk: &mut [f32]| {
        packed_rows(chunk, i0 * PAR_ROW_CHUNK, adata, ais, ats, packed, kd, bn, skip);
    };
    for_each_row_chunk(obuf, bn, rows * kd * bn, kernel);
}

/// A one-off SIMD product: packs the `kd × bn` B-operand, runs
/// [`packed_product`], recycles the panels.
#[allow(clippy::too_many_arguments)]
fn simd_matmul(
    obuf: &mut [f32],
    adata: &[f32],
    ais: usize,
    ats: usize,
    bsrc: &[f32],
    b_k_stride: usize,
    b_j_stride: usize,
    kd: usize,
    bn: usize,
    skip: bool,
) {
    let packed = pack_panels(bsrc, kd, bn, b_k_stride, b_j_stride);
    packed_product(obuf, adata, ais, ats, &packed, kd, bn, skip);
    crate::pool::recycle(packed);
}

/// The scalar `A · B` kernel (ikj order, per-`(row, k)` zero-skip).
fn scalar_matmul(obuf: &mut [f32], adata: &[f32], ak: usize, bdata: &[f32], bn: usize) {
    obuf.fill(0.0);
    let ar = obuf.len() / bn;
    let kernel = |i0: usize, chunk: &mut [f32]| {
        let row0 = i0 * PAR_ROW_CHUNK;
        for (local, row) in chunk.chunks_mut(bn).enumerate() {
            let arow = &adata[(row0 + local) * ak..(row0 + local + 1) * ak];
            // ikj loop order: stream through B rows, accumulate into `row`.
            for (k, &aval) in arow.iter().enumerate() {
                if aval == 0.0 {
                    continue;
                }
                let brow = &bdata[k * bn..(k + 1) * bn];
                for (c, &bval) in row.iter_mut().zip(brow) {
                    *c += aval * bval;
                }
            }
        }
    };
    for_each_row_chunk(obuf, bn, ar * ak * bn, kernel);
}

/// A right-hand operand `B` (`kd × bn`) laid out once for many products,
/// such as a recurrent weight multiplied at every timestep.
///
/// Under a SIMD level it holds the `NR`-column panels the microkernel
/// streams, so [`matmul_packed_into`] skips the per-call repack that
/// [`matmul_into`] pays. Under the scalar level it only holds `B` and
/// [`matmul_packed_into`] runs the scalar kernel. Either way the result
/// is bit-identical to [`matmul_into`] against the same `B`: packing only
/// moves data.
pub struct PackedB {
    kd: usize,
    bn: usize,
    layout: Layout,
}

enum Layout {
    /// Microkernel panels (pool-backed; recycled on drop).
    Panels(Vec<f32>),
    /// `B` as a row-major `[kd, bn]` tensor, for the scalar kernel.
    Plain(Tensor),
}

impl PackedB {
    /// Packs `B[k, n]` as stored.
    pub fn pack(b: &Tensor) -> PackedB {
        let (kd, bn) = b.shape().as_matrix();
        if simd::active_level() == Level::Scalar {
            // A shared view, not a copy: tensors are copy-on-write.
            return PackedB { kd, bn, layout: Layout::Plain(b.clone()) };
        }
        PackedB { kd, bn, layout: Layout::Panels(pack_panels(b.data(), kd, bn, bn, 1)) }
    }

    /// Packs `Bᵀ` from a `[n, k]` tensor without materializing the
    /// transpose (under a SIMD level): the operand of `A · Bᵀ`.
    pub fn pack_t(b: &Tensor) -> PackedB {
        let (bn, kd) = b.shape().as_matrix();
        if simd::active_level() == Level::Scalar {
            return PackedB { kd, bn, layout: Layout::Plain(crate::transpose(b)) };
        }
        PackedB { kd, bn, layout: Layout::Panels(pack_panels(b.data(), kd, bn, 1, kd)) }
    }
}

impl Drop for PackedB {
    fn drop(&mut self) {
        if let Layout::Panels(panels) = &mut self.layout {
            crate::pool::recycle(std::mem::take(panels));
        }
    }
}

/// `C[r, n] = A[r, k] · B[k, n]` against a [`PackedB`], written into
/// `out`. Bit-identical to [`matmul_into`] with the `B` that was packed.
pub fn matmul_packed_into(a: &Tensor, b: &PackedB, out: &mut Tensor) {
    let (ar, ak) = a.shape().as_matrix();
    assert_eq!(ak, b.kd, "matmul inner dims differ: {ak} vs {}", b.kd);
    out.prepare_out(&[ar, b.bn]);
    let obuf = out.data_mut();
    if obuf.is_empty() {
        // Zero-sized output: nothing to compute (and chunks_mut(0) would
        // panic when bn == 0).
        return;
    }
    match &b.layout {
        Layout::Panels(panels) => packed_product(obuf, a.data(), ak, 1, panels, ak, b.bn, true),
        Layout::Plain(plain) => scalar_matmul(obuf, a.data(), ak, plain.data(), b.bn),
    }
}

/// `C[r, n] = A[r, k] · B[k, n]`, written into `out`.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (_, ak) = a.shape().as_matrix();
    let (bk, _) = b.shape().as_matrix();
    assert_eq!(ak, bk, "matmul inner dims differ: {ak} vs {bk}");
    matmul_packed_into(a, &PackedB::pack(b), out);
}

/// `C[r, n] = A[r, k] · B[k, n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(&[0]);
    matmul_into(a, b, &mut out);
    out
}

/// `C[r, n] = A[r, k] · B[n, k]ᵀ` — i.e. `A · Bᵀ` without materializing the
/// transpose — written into `out`.
pub fn matmul_a_bt_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (ar, ak) = a.shape().as_matrix();
    let (bn, bk) = b.shape().as_matrix();
    assert_eq!(ak, bk, "matmul_a_bt inner dims differ: {ak} vs {bk}");
    out.prepare_out(&[ar, bn]);
    let obuf = out.data_mut();
    if obuf.is_empty() {
        return;
    }
    let adata = a.data();
    let bdata = b.data();
    if simd::active_level() != Level::Scalar {
        // Pack Bᵀ panels straight out of B's rows; no zero-skip, matching
        // the scalar kernel below.
        simd_matmul(obuf, adata, ak, 1, bdata, 1, bk, ak, bn, false);
        return;
    }
    obuf.fill(0.0);
    // Materialize Bᵀ in pooled scratch so the hot loop streams rows of
    // both operands and vectorizes across the output row. Each output
    // element still accumulates its k terms in ascending order (with no
    // zero-skip), so the result is bit-identical to the row-dot form —
    // that form serializes on a single scalar accumulator, which is what
    // made this the slowest of the three kernels.
    let bt = crate::transpose(b);
    let btref = bt.data();
    let kernel = |i0: usize, chunk: &mut [f32]| {
        let row0 = i0 * PAR_ROW_CHUNK;
        for (local, row) in chunk.chunks_mut(bn).enumerate() {
            let arow = &adata[(row0 + local) * ak..(row0 + local + 1) * ak];
            for (k, &aval) in arow.iter().enumerate() {
                let btrow = &btref[k * bn..(k + 1) * bn];
                for (c, &bval) in row.iter_mut().zip(btrow) {
                    *c += aval * bval;
                }
            }
        }
    };
    for_each_row_chunk(obuf, bn, ar * ak * bn, kernel);
}

/// `C[r, n] = A[r, k] · B[n, k]ᵀ` — i.e. `A · Bᵀ` without materializing the
/// transpose.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(&[0]);
    matmul_a_bt_into(a, b, &mut out);
    out
}

/// `C[k, n] = A[r, k]ᵀ · B[r, n]` — the weight-gradient layout — written
/// into `out`.
pub fn matmul_at_b_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (ar, ak) = a.shape().as_matrix();
    let (br, bn) = b.shape().as_matrix();
    assert_eq!(ar, br, "matmul_at_b outer dims differ: {ar} vs {br}");
    out.prepare_out(&[ak, bn]);
    let obuf = out.data_mut();
    if obuf.is_empty() {
        return;
    }
    let adata = a.data();
    let bdata = b.data();
    if simd::active_level() != Level::Scalar {
        // Output rows are the k dimension, so A is viewed with strides
        // (1, ak): element (out_row, contraction r) is adata[r * ak +
        // out_row]. Zero-skip preserved from the scalar kernel.
        simd_matmul(obuf, adata, 1, ak, bdata, bn, 1, ar, bn, true);
        return;
    }
    obuf.fill(0.0);
    // Parallelize over output rows (the k dimension); each output row k is
    // a weighted sum of B's rows with weights A[:, k].
    let kernel = |k0: usize, chunk: &mut [f32]| {
        let row0 = k0 * PAR_ROW_CHUNK;
        for (local, row) in chunk.chunks_mut(bn).enumerate() {
            let k = row0 + local;
            for r in 0..ar {
                let aval = adata[r * ak + k];
                if aval == 0.0 {
                    continue;
                }
                let brow = &bdata[r * bn..(r + 1) * bn];
                for (c, &bval) in row.iter_mut().zip(brow) {
                    *c += aval * bval;
                }
            }
        }
    };
    for_each_row_chunk(obuf, bn, ar * ak * bn, kernel);
}

/// `C[k, n] = A[r, k]ᵀ · B[r, n]` — the weight-gradient layout.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(&[0]);
    matmul_at_b_into(a, b, &mut out);
    out
}

/// Outer product of two vectors: `C[i, j] = a[i] * b[j]`.
pub fn outer(a: &Tensor, b: &Tensor) -> Tensor {
    let n = a.numel();
    let m = b.numel();
    let mut out = crate::pool::take_cleared(n * m);
    for &x in a.data() {
        for &y in b.data() {
            out.push(x * y);
        }
    }
    Tensor::from_vec(out, &[n, m])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{allclose, transpose};

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (ar, ak) = a.shape().as_matrix();
        let (_, bn) = b.shape().as_matrix();
        let mut out = Tensor::zeros(&[ar, bn]);
        for i in 0..ar {
            for j in 0..bn {
                let mut acc = 0.0;
                for k in 0..ak {
                    acc += a.data()[i * ak + k] * b.data()[k * bn + j];
                }
                out.set(&[i, j], acc);
            }
        }
        out
    }

    fn seq_tensor(dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec((0..n).map(|i| (i as f32 * 0.37).sin()).collect(), dims)
    }

    #[test]
    fn matmul_matches_naive() {
        let a = seq_tensor(&[5, 7]);
        let b = seq_tensor(&[7, 3]);
        assert!(allclose(&matmul(&a, &b), &naive(&a, &b), 1e-5));
    }

    #[test]
    fn matmul_large_parallel_path() {
        let a = seq_tensor(&[70, 40]);
        let b = seq_tensor(&[40, 50]);
        assert!(allclose(&matmul(&a, &b), &naive(&a, &b), 1e-4));
    }

    #[test]
    fn matmul_a_bt_matches_transpose() {
        let a = seq_tensor(&[6, 8]);
        let b = seq_tensor(&[5, 8]);
        let expect = naive(&a, &transpose(&b));
        assert!(allclose(&matmul_a_bt(&a, &b), &expect, 1e-5));
    }

    #[test]
    fn matmul_at_b_matches_transpose() {
        let a = seq_tensor(&[6, 8]);
        let b = seq_tensor(&[6, 4]);
        let expect = naive(&transpose(&a), &b);
        assert!(allclose(&matmul_at_b(&a, &b), &expect, 1e-5));
    }

    #[test]
    fn higher_rank_inputs_use_matrix_view() {
        let a = seq_tensor(&[2, 3, 4]); // viewed as [6, 4]
        let b = seq_tensor(&[4, 5]);
        let c = matmul(&a, &b);
        assert_eq!(c.dims(), &[6, 5]);
    }

    #[test]
    fn outer_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0], &[3]);
        let c = outer(&a, &b);
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.data(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    #[should_panic]
    fn matmul_rejects_dim_mismatch() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn zero_column_output_is_empty_not_panic() {
        // Regression: bn == 0 used to reach chunks_mut(0) and panic.
        // A rank-1 empty tensor views as (1, 0), a [0, c] tensor as (0, c).
        let a = seq_tensor(&[4, 1]);
        let c = matmul(&a, &Tensor::zeros(&[0]));
        assert_eq!(c.dims(), &[4, 0]);
        assert_eq!(c.numel(), 0);
        let a = seq_tensor(&[4, 3]);
        let c = matmul_a_bt(&a, &Tensor::zeros(&[0, 3]));
        assert_eq!(c.dims(), &[4, 0]);
        let c = matmul_at_b(&seq_tensor(&[1, 3]), &Tensor::zeros(&[0]));
        assert_eq!(c.dims(), &[3, 0]);
    }

    #[test]
    fn zero_row_and_zero_inner_dims() {
        let c = matmul(&Tensor::zeros(&[0, 3]), &seq_tensor(&[3, 2]));
        assert_eq!(c.dims(), &[0, 2]);
        // Inner dim 0 (empty rank-1 views as (1, 0)): defined, all-zero.
        let c = matmul(&Tensor::zeros(&[0]), &Tensor::zeros(&[0, 3]));
        assert_eq!(c.dims(), &[1, 3]);
        assert!(c.data().iter().all(|&x| x == 0.0));
        let c = matmul_a_bt(&Tensor::zeros(&[0]), &Tensor::zeros(&[0]));
        assert_eq!(c.dims(), &[1, 1]);
        assert!(c.data().iter().all(|&x| x == 0.0));
        let c = matmul_at_b(&Tensor::zeros(&[0, 2]), &Tensor::zeros(&[0, 3]));
        assert_eq!(c.dims(), &[2, 3]);
        assert!(c.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn into_variants_reuse_the_output_buffer() {
        let a = seq_tensor(&[5, 7]);
        let b = seq_tensor(&[7, 3]);
        let mut out = Tensor::zeros(&[5, 3]);
        let ptr = out.data().as_ptr();
        matmul_into(&a, &b, &mut out);
        assert_eq!(out.data().as_ptr(), ptr, "right-sized unique buffer is reused");
        assert!(allclose(&out, &naive(&a, &b), 1e-5));
        // Wrong-sized output gets replaced, not resized in place.
        let mut out = Tensor::zeros(&[2, 2]);
        matmul_into(&a, &b, &mut out);
        assert_eq!(out.dims(), &[5, 3]);
        assert!(allclose(&out, &naive(&a, &b), 1e-5));
    }

    #[test]
    fn into_variants_overwrite_stale_contents() {
        let a = seq_tensor(&[6, 8]);
        let b = seq_tensor(&[5, 8]);
        let mut out = Tensor::full(&[6, 5], f32::NAN);
        matmul_a_bt_into(&a, &b, &mut out);
        assert!(!out.has_non_finite());
        let expect = naive(&a, &transpose(&b));
        assert!(allclose(&out, &expect, 1e-5));
        let mut out = Tensor::full(&[8, 4], f32::NAN);
        let b2 = seq_tensor(&[6, 4]);
        matmul_at_b_into(&a, &b2, &mut out);
        assert!(!out.has_non_finite());
    }
}
