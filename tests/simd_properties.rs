//! Property-based tests of the SIMD kernel layer (DESIGN.md §13): every
//! vectorized kernel must produce results bit-identical to the forced
//! scalar path — or, for the explicitly reassociated reductions, results
//! that are level-independent by construction — across hostile shapes:
//! zero dimensions, 1-row/1-column matrices, and lengths that are not a
//! multiple of the 8-wide lane count. The recurrent layers' outputs and
//! gradients are also pinned to golden hashes at both levels.

use ea_autograd::{ForwardCtx, GruSeq, Layer, LstmSeq};
use ea_prop::{prop_assert, prop_assert_eq, prop_assume, properties, Strategy};
use ea_tensor::{
    col_sums, log_softmax_rows_into, matmul_a_bt_into, matmul_at_b_into, matmul_into,
    matmul_packed_into, row_sums, simd, softmax_rows_into, transpose, PackedB, Tensor, TensorRng,
};
use std::sync::Mutex;

/// `force_level` is process-global, so comparisons must not interleave
/// across test threads.
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

/// Resets the forced dispatch level even if an assertion unwinds.
struct ForceGuard;

impl Drop for ForceGuard {
    fn drop(&mut self) {
        simd::force_level(None);
    }
}

/// Runs `f` once under forced-scalar dispatch and once under the
/// auto-detected level, returning both results for comparison.
fn on_both_levels<T>(mut f: impl FnMut() -> T) -> (T, T) {
    let _lock = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = ForceGuard;
    simd::force_level(Some(simd::Level::Scalar));
    let scalar = f();
    simd::force_level(None);
    let vector = f();
    (scalar, vector)
}

#[track_caller]
fn assert_bits_eq(scalar: &[f32], vector: &[f32]) {
    assert_eq!(scalar.len(), vector.len());
    for (i, (a, b)) in scalar.iter().zip(vector).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "element {i} differs: scalar {a} vs vector {b}");
    }
}

/// Lengths that straddle every lane-handling edge: empty, sub-lane,
/// exact-lane, lane+1, and larger non-multiples of 8.
const LENS: [usize; 14] = [0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100, 137];

/// Matrix dims covering zero, one (single row / single column), and the
/// microkernel's MR=4 / NR=16 block edges.
const DIMS: [usize; 10] = [0, 1, 2, 3, 4, 5, 15, 16, 17, 31];

fn len_strategy() -> impl Strategy<Value = usize> {
    (0usize..LENS.len()).prop_map(|i| LENS[i])
}

fn dim_strategy() -> impl Strategy<Value = usize> {
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

/// Deterministic pseudo-random fill in [-3, 3): SplitMix64 stream keyed by
/// `seed`, so each property case gets fresh data at any length.
fn fill(seed: u64, n: usize) -> Vec<f32> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            ((z >> 40) as f32 / (1u64 << 24) as f32) * 6.0 - 3.0
        })
        .collect()
}

fn mat(seed: u64, r: usize, c: usize) -> Tensor {
    Tensor::from_vec(fill(seed, r * c), &[r, c])
}

/// Like [`mat`], with every third element exactly zero, so the product
/// kernels' per-`(row, k)` zero-skip is exercised.
fn sparse_mat(seed: u64, r: usize, c: usize) -> Tensor {
    let mut t = mat(seed, r, c);
    t.data_mut().iter_mut().step_by(3).for_each(|v| *v = 0.0);
    t
}

/// A hostile output tensor (wrong shape, NaN contents) that the `_into`
/// kernels must fully overwrite.
fn dirty_out() -> Tensor {
    Tensor::from_vec(vec![f32::NAN; 3], &[3])
}

properties! {
    #![cases(48)]

    #[test]
    fn elementwise_kernels_match_scalar(n in len_strategy(), seed in 0u64..u64::MAX, s in -2.0f32..2.0) {
        let a = fill(seed, n);
        let b = fill(seed ^ 0x5555_5555, n);
        let (sc, ve) = on_both_levels(|| {
            let mut x = a.clone();
            let mut y = b.clone();
            let mut out = vec![f32::NAN; n];
            simd::scale(&mut x, s);
            simd::axpy(&mut y, s, &a);
            simd::add_assign(&mut y, &a);
            simd::add_slices(&mut out, &x, &y);
            simd::sub_slices(&mut x, &out, &b);
            simd::mul_slices(&mut y, &x, &out);
            simd::sub_scalar(&mut y, s);
            (x, y, out)
        });
        assert_bits_eq(&sc.0, &ve.0);
        assert_bits_eq(&sc.1, &ve.1);
        assert_bits_eq(&sc.2, &ve.2);
    }

    #[test]
    fn reductions_are_level_independent(n in len_strategy(), seed in 0u64..u64::MAX) {
        // sum_f32 / sum_squares use the fixed lane-blocked tree at every
        // level, so even these reassociated reductions must agree exactly.
        let x = fill(seed, n);
        let (sc, ve) = on_both_levels(|| {
            (simd::sum_f32(&x), simd::sum_squares(&x), simd::max_value(&x))
        });
        prop_assert_eq!(sc.0.to_bits(), ve.0.to_bits());
        prop_assert_eq!(sc.1.to_bits(), ve.1.to_bits());
        prop_assert_eq!(sc.2.to_bits(), ve.2.to_bits());
    }

    #[test]
    fn optimizer_kernels_match_scalar(n in len_strategy(), seed in 0u64..u64::MAX, lr in 1e-4f32..0.5) {
        let p0 = fill(seed, n);
        let g = fill(seed ^ 0xAAAA, n);
        let m0 = fill(seed ^ 0xBBBB, n);
        let v0: Vec<f32> = fill(seed ^ 0xCCCC, n).iter().map(|v| v.abs()).collect();
        let (sc, ve) = on_both_levels(|| {
            let mut p_sgd = p0.clone();
            simd::sgd_step(&mut p_sgd, &g, lr);
            let mut p_mom = p0.clone();
            let mut vel = m0.clone();
            simd::momentum_step(&mut p_mom, &mut vel, &g, lr, 0.9);
            let mut p_adam = p0.clone();
            let mut m = m0.clone();
            let mut v = v0.clone();
            simd::adam_step(&mut p_adam, &mut m, &mut v, &g, lr, 0.9, 0.999, 1e-8, 0.1, 0.001);
            let mut avg = m0.clone();
            simd::asgd_avg_update(&mut avg, &p0, 0.25);
            (p_sgd, p_mom, vel, p_adam, m, v, avg)
        });
        assert_bits_eq(&sc.0, &ve.0);
        assert_bits_eq(&sc.1, &ve.1);
        assert_bits_eq(&sc.2, &ve.2);
        assert_bits_eq(&sc.3, &ve.3);
        assert_bits_eq(&sc.4, &ve.4);
        assert_bits_eq(&sc.5, &ve.5);
        assert_bits_eq(&sc.6, &ve.6);
    }

    #[test]
    fn elastic_kernels_match_scalar(n in len_strategy(), seed in 0u64..u64::MAX, alpha in 0.0f32..1.0) {
        let w0 = fill(seed, n);
        let d0 = fill(seed ^ 0x1111, n);
        let r = fill(seed ^ 0x2222, n);
        let (sc, ve) = on_both_levels(|| {
            let mut w = w0.clone();
            simd::elastic_pull(&mut w, &r, alpha);
            let mut wf = w0.clone();
            let mut d = d0.clone();
            simd::delta_pull(&mut wf, &mut d, &r, alpha);
            (w, wf, d)
        });
        assert_bits_eq(&sc.0, &ve.0);
        assert_bits_eq(&sc.1, &ve.1);
        assert_bits_eq(&sc.2, &ve.2);
    }

    #[test]
    fn matmul_matches_scalar(m in dim_strategy(), k in dim_strategy(), n in dim_strategy(), seed in 0u64..u64::MAX) {
        let a = mat(seed, m, k);
        let b = mat(seed ^ 0x3333, k, n);
        let (sc, ve) = on_both_levels(|| {
            let mut out = dirty_out();
            matmul_into(&a, &b, &mut out);
            out.data().to_vec()
        });
        assert_bits_eq(&sc, &ve);
    }

    #[test]
    fn matmul_transposed_variants_match_scalar(m in dim_strategy(), k in dim_strategy(), n in dim_strategy(), seed in 0u64..u64::MAX) {
        // A zero dim makes `Shape::as_matrix` collapse [r, 0] to (0, 0),
        // which the kernels' own shape asserts reject for mixed-transpose
        // operands; zero-dim coverage lives in `matmul_matches_scalar`.
        prop_assume!(m > 0 && k > 0 && n > 0);
        let a = mat(seed, m, k);
        let w = mat(seed ^ 0x4444, k, n);
        let c = mat(seed ^ 0x6666, m, n);
        let (sc, ve) = on_both_levels(|| {
            // dx = dy · Wᵀ and dw = Aᵀ · dy: the two backward kernels.
            let mut dx = dirty_out();
            matmul_a_bt_into(&c, &w, &mut dx);
            let mut dw = dirty_out();
            matmul_at_b_into(&a, &c, &mut dw);
            (dx.data().to_vec(), dw.data().to_vec())
        });
        assert_bits_eq(&sc.0, &ve.0);
        assert_bits_eq(&sc.1, &ve.1);
    }

    #[test]
    fn packed_product_matches_matmul_into(m in dim_strategy(), k in dim_strategy(), n in dim_strategy(), seed in 0u64..u64::MAX) {
        // DIMS covers 0 and 1 rows, odd row counts, `n` off the 16-column
        // panel width, and k = 0 (an all-zero product).
        let a = sparse_mat(seed, m, k);
        let a2 = sparse_mat(seed ^ 0x5151, m + 3, k);
        let mut b = mat(seed ^ 0x7777, k, n);
        // An infinity in B turns a product term into NaN unless the zero
        // in the same column of A is skipped, as `matmul_into` does.
        if let Some(v) = b.data_mut().first_mut() {
            *v = f32::INFINITY;
        }
        let bt = transpose(&b);
        let (sc, ve) = on_both_levels(|| {
            let product = |a: &Tensor, b: &PackedB| {
                let mut out = dirty_out();
                matmul_packed_into(a, b, &mut out);
                out.data().to_vec()
            };
            let plain = |a: &Tensor| {
                let mut out = dirty_out();
                matmul_into(a, &b, &mut out);
                out.data().to_vec()
            };
            let packed = PackedB::pack(&b);
            let packed_t = PackedB::pack_t(&bt);
            // One packing serves several products.
            [plain(&a), product(&a, &packed), product(&a, &packed_t), plain(&a2), product(&a2, &packed)]
        });
        for level in [&sc, &ve] {
            assert_bits_eq(&level[0], &level[1]);
            assert_bits_eq(&level[0], &level[2]);
            assert_bits_eq(&level[3], &level[4]);
        }
        assert_bits_eq(&sc[0], &ve[0]);
    }

    #[test]
    fn softmax_and_sums_match_scalar(r in dim_strategy(), c in dim_strategy(), seed in 0u64..u64::MAX) {
        let t = mat(seed, r, c);
        let (sc, ve) = on_both_levels(|| {
            let mut sm = dirty_out();
            softmax_rows_into(&t, &mut sm);
            let mut lsm = dirty_out();
            log_softmax_rows_into(&t, &mut lsm);
            (
                sm.data().to_vec(),
                lsm.data().to_vec(),
                row_sums(&t).data().to_vec(),
                col_sums(&t).data().to_vec(),
            )
        });
        assert_bits_eq(&sc.0, &ve.0);
        assert_bits_eq(&sc.1, &ve.1);
        assert_bits_eq(&sc.2, &ve.2);
        assert_bits_eq(&sc.3, &ve.3);
    }
}

properties! {
    /// The vectorized log-softmax is consistent with softmax in *value*
    /// (not just level-independent in bits): each row's logsumexp is 0
    /// and `log_softmax ≈ ln(softmax)` elementwise. Guards against a
    /// kernel that is bit-identical across levels but simply wrong.
    #[test]
    fn log_softmax_is_log_of_softmax(r in 1usize..16, c in 1usize..40, seed in 0u64..u64::MAX) {
        let t = mat(seed, r, c);
        let mut sm = dirty_out();
        softmax_rows_into(&t, &mut sm);
        let mut lsm = dirty_out();
        log_softmax_rows_into(&t, &mut lsm);
        for i in 0..r {
            let row = &lsm.data()[i * c..(i + 1) * c];
            let lse: f32 = row.iter().map(|v| v.exp()).sum::<f32>().ln();
            prop_assert!(lse.abs() < 1e-5, "row {i}: logsumexp {lse}");
            for (j, &got) in row.iter().enumerate() {
                let want = sm.data()[i * c + j].ln();
                // ln of a subnormal softmax output is noisy; compare
                // where softmax has headroom.
                if want > -80.0 {
                    prop_assert!((got - want).abs() < 1e-4,
                        "({i},{j}): log_softmax {got} vs ln(softmax) {want}");
                }
            }
        }
    }
}

/// Fixed regression shapes: the microkernel's partial-tile paths (1-row,
/// 1-col, sub-NR right edge, k = 0) must all agree with scalar exactly.
#[test]
fn matmul_partial_tiles_match_scalar() {
    for (m, k, n) in [
        (1usize, 1usize, 1usize),
        (1, 8, 16),
        (4, 0, 16), // k = 0: output must be all zeros at every level
        (0, 5, 7),
        (5, 3, 1),
        (3, 17, 15),
        (4, 4, 33),
        (7, 9, 31),
    ] {
        let a = mat(m as u64 * 31 + k as u64, m, k);
        let b = mat(k as u64 * 17 + n as u64, k, n);
        let (sc, ve) = on_both_levels(|| {
            let mut out = dirty_out();
            matmul_into(&a, &b, &mut out);
            out.data().to_vec()
        });
        assert_eq!(
            sc.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            ve.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "shape ({m},{k},{n}) diverged"
        );
        if k == 0 {
            assert!(ve.iter().all(|&v| v == 0.0), "k=0 must produce zeros");
        }
    }
}

/// Zero-skip semantics: sparse A rows must take the same skip branches at
/// every level (matmul and at_b skip zero A elements; a_bt does not).
#[test]
fn matmul_zero_skip_matches_scalar() {
    let m = 6;
    let k = 11;
    let n = 19;
    let mut adata = fill(7, m * k);
    for (i, v) in adata.iter_mut().enumerate() {
        if i % 3 == 0 {
            *v = 0.0;
        }
    }
    let a = Tensor::from_vec(adata, &[m, k]);
    let b = mat(11, k, n);
    let (sc, ve) = on_both_levels(|| {
        let mut out = dirty_out();
        matmul_into(&a, &b, &mut out);
        out.data().to_vec()
    });
    assert_bits_eq(&sc, &ve);
}

// ---------------------------------------------------------------------
// Golden outputs of the recurrent layers. `LstmSeq` and `GruSeq` pack
// their recurrent weight once per pass instead of once per timestep;
// packing only moves data, so the forward output, the input gradient
// and every weight gradient must keep the exact bits the per-timestep
// kernels produced. The hashes below were computed by those kernels.
// ---------------------------------------------------------------------

/// FNV-1a over the bit patterns, so a single flipped bit anywhere changes
/// the hash.
fn fnv(xs: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A uniform tensor with every fifth element forced to exactly zero, so
/// the product kernels' zero-skip is exercised.
fn input(rng: &mut TensorRng, dims: &[usize]) -> Tensor {
    let mut t = ea_tensor::uniform(dims, -1.0, 1.0, rng);
    for (i, v) in t.data_mut().iter_mut().enumerate() {
        if i % 5 == 0 {
            *v = 0.0;
        }
    }
    t
}

/// Hashes of `[y, dx, grads...]` for one forward + backward pass.
fn run(mut layer: impl Layer, rng: &mut TensorRng, rows: usize, in_dim: usize) -> Vec<u64> {
    let x = input(rng, &[rows, in_dim]);
    let (y, saved) = layer.forward(&x, &ForwardCtx::train(0, 0));
    let dy = input(rng, y.dims());
    let dx = layer.backward(&saved, &dy);
    let mut hashes = vec![fnv(y.data()), fnv(dx.data())];
    layer.visit_params(&mut |p| hashes.push(fnv(p.grad.data())));
    hashes
}

/// `(seq, in_dim, hidden, batch)`: odd and single-row batches, widths
/// that are not a multiple of the 16-column panel, and the serving
/// model's 32-wide hidden state.
const CASES: [(usize, usize, usize, usize); 4] =
    [(5, 6, 5, 3), (4, 3, 7, 1), (8, 32, 32, 1), (8, 32, 32, 6)];

/// Hashes for every case, the layer built by `make` from a per-case seed.
fn hashes<L: Layer>(
    seed: u64,
    make: fn(usize, usize, usize, &mut TensorRng) -> L,
) -> Vec<Vec<u64>> {
    CASES
        .iter()
        .zip(seed..)
        .map(|(&(seq, in_dim, hidden, batch), seed)| {
            let mut rng = TensorRng::seed_from_u64(seed);
            let layer = make(seq, in_dim, hidden, &mut rng);
            run(layer, &mut rng, seq * batch, in_dim)
        })
        .collect()
}

/// `[y, dx, d(wx), d(wh), d(b)]` per case, from the per-timestep kernels.
#[rustfmt::skip]
const LSTM_GOLDEN: [[u64; 5]; 4] = [
    [0xf1e5141fce4941d3, 0x409c4cc9631a2a92, 0x277cae294a75243d, 0xa6ab0c1c7d653fed, 0xea7568cd97cb7218],
    [0x46795f2265447522, 0x34a3369cd6859872, 0xb849d4895a8c202e, 0x84c0b78652272038, 0x69c8e790306fbcc1],
    [0x2a425aa9f1f6259f, 0xfb41f89a8e57bc63, 0x030d9bfee23f2cd1, 0x6e012496f07df519, 0xcfad0500d3d1a87f],
    [0x835c46f0977ced09, 0xcf76cef3fd8c6a8f, 0xc891f29e90eb8dd5, 0x72d284e3a15ff5d3, 0x509acf66f9ca5373],
];

/// `[y, dx, d(wx), d(wh), d(b)]` per case, from the per-timestep kernels.
#[rustfmt::skip]
const GRU_GOLDEN: [[u64; 5]; 4] = [
    [0x81aeaeb687791408, 0x9ccb769e59ed594e, 0x710bb86974c84014, 0x27a1d1e2f79af47f, 0x62dee8ad0766fa43],
    [0xc78d74a4df93702f, 0x71198675a95a6918, 0x46c350bb24cd0d3e, 0xd23b88e87b8fefd3, 0x3b8684bd42f6932e],
    [0x2f83757ccdec7070, 0x511fa0cab4d86758, 0x9de14e9b244a06b2, 0x6219a5612e98146b, 0x0b4cafd7c84f6bbe],
    [0xdd0d11930a6f1f0d, 0x31d4a79457ebc01c, 0xa47f503b8128148e, 0x83c591c05957f615, 0x0bae782c9af5b9ef],
];

#[track_caller]
fn assert_golden(layer: &str, got: (Vec<Vec<u64>>, Vec<Vec<u64>>), golden: &[[u64; 5]; 4]) {
    const NAMES: [&str; 5] = ["y", "dx", "d(wx)", "d(wh)", "d(b)"];
    for (level, hashes) in [("scalar", got.0), ("detected", got.1)] {
        for (case, (got, want)) in hashes.iter().zip(golden).enumerate() {
            for ((g, w), name) in got.iter().zip(want).zip(NAMES) {
                assert_eq!(
                    g, w,
                    "{layer} case {case} {name} at the {level} level: {g:#x} != {w:#x}"
                );
            }
        }
    }
}

#[test]
fn lstm_forward_and_gradients_match_golden() {
    assert_golden("lstm", on_both_levels(|| hashes(100, LstmSeq::new)), &LSTM_GOLDEN);
}

#[test]
fn gru_forward_and_gradients_match_golden() {
    assert_golden("gru", on_both_levels(|| hashes(200, GruSeq::new)), &GRU_GOLDEN);
}
