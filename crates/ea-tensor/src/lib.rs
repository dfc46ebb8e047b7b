//! Dense `f32` tensor kernels for the AvgPipe reproduction.
//!
//! This crate provides the numeric substrate for the from-scratch autodiff
//! engine in `ea-autograd`: contiguous row-major tensors, thread-parallel
//! matrix multiplication, element-wise kernels, reductions and softmax.
//!
//! Design goals, in order:
//!
//! 1. **Determinism** — every random initializer takes an explicit seed;
//!    reductions use a fixed summation order so repeated runs of the
//!    statistical-efficiency experiments are bit-identical.
//! 2. **Simplicity** — tensors are always contiguous and row-major. The
//!    handful of layouts needed by the NN modules (matmul with either side
//!    transposed, batched matmul) are provided as dedicated kernels rather
//!    than a general stride system.
//! 3. **Throughput** — the matmul kernel is cache-blocked and parallelized
//!    over row blocks on a small persistent thread pool, which is what keeps the real-execution
//!    (threads-as-GPUs) experiments fast enough to converge.

mod init;
mod matmul;
mod ops;
mod par;
pub mod pool;
mod rng;
mod shape;
pub mod simd;
mod tensor;

pub use init::{kaiming_uniform, uniform, xavier_uniform};
pub use matmul::{
    matmul, matmul_a_bt, matmul_a_bt_into, matmul_at_b, matmul_at_b_into, matmul_into,
    matmul_packed_into, outer, PackedB,
};
pub use ops::{
    argmax_rows, col_sums, log_softmax_rows, log_softmax_rows_into, row_sums, softmax_rows,
    softmax_rows_into, transpose, transpose_into,
};
pub use rng::TensorRng;
pub use shape::Shape;
pub use tensor::Tensor;

/// Absolute tolerance used by the test-suites of the numeric crates.
pub const TEST_EPS: f32 = 1e-4;

/// Returns true if `a` and `b` have identical shape and are element-wise
/// close within a relative/absolute tolerance `tol`.
pub fn allclose(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allclose_detects_shape_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 2]);
        assert!(!allclose(&a, &b, 1e-6));
    }

    #[test]
    fn allclose_tolerates_small_differences() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.0 + 1e-7, 2.0 - 1e-7], &[2]);
        assert!(allclose(&a, &b, 1e-5));
        let c = Tensor::from_vec(vec![1.1, 2.0], &[2]);
        assert!(!allclose(&a, &c, 1e-5));
    }
}
