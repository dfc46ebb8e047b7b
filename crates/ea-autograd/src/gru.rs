//! Sequence GRU layer with in-layer BPTT — the lighter-weight sibling of
//! [`crate::LstmSeq`], useful for seq2seq variants of the analogue
//! models.

use crate::{ForwardCtx, Layer, Param, Saved};
use ea_tensor::{
    col_sums, matmul_a_bt_into, matmul_at_b_into, matmul_into, matmul_packed_into, pool,
    xavier_uniform, PackedB, Tensor, TensorRng,
};

/// A single-direction GRU unrolled over a fixed sequence length.
///
/// Same interface and layout as [`crate::LstmSeq`]: inputs
/// `[batch*seq, in_dim]` batch-major, outputs `[batch*seq, hidden]`.
///
/// Gate equations (gate order within the 3h width: `[r, z, n]`):
///
/// ```text
/// r_t = σ(x_t·W_xr + h_{t-1}·W_hr + b_r)
/// z_t = σ(x_t·W_xz + h_{t-1}·W_hz + b_z)
/// n_t = tanh(x_t·W_xn + r_t ⊙ (h_{t-1}·W_hn) + b_n)
/// h_t = (1 − z_t) ⊙ n_t + z_t ⊙ h_{t-1}
/// ```
pub struct GruSeq {
    wx: Param,
    wh: Param,
    b: Param,
    seq: usize,
    in_dim: usize,
    hidden: usize,
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl GruSeq {
    /// Creates a GRU over sequences of length `seq`.
    pub fn new(seq: usize, in_dim: usize, hidden: usize, rng: &mut TensorRng) -> Self {
        GruSeq {
            wx: Param::new("gru.wx", xavier_uniform(in_dim, 3 * hidden, rng)),
            wh: Param::new("gru.wh", xavier_uniform(hidden, 3 * hidden, rng)),
            b: Param::new("gru.b", Tensor::zeros(&[3 * hidden])),
            seq,
            in_dim,
            hidden,
        }
    }

    fn gather_t_into(&self, x: &Tensor, t: usize, batch: usize, width: usize, out: &mut Tensor) {
        out.prepare_out(&[batch, width]);
        let obuf = out.data_mut();
        let data = x.data();
        for b in 0..batch {
            let r = b * self.seq + t;
            obuf[b * width..(b + 1) * width].copy_from_slice(&data[r * width..(r + 1) * width]);
        }
    }

    fn scatter_t(&self, dst: &mut [f32], block: &Tensor, t: usize, batch: usize, width: usize) {
        for b in 0..batch {
            let r = b * self.seq + t;
            dst[r * width..(r + 1) * width]
                .copy_from_slice(&block.data()[b * width..(b + 1) * width]);
        }
    }
}

impl Layer for GruSeq {
    fn forward(&self, x: &Tensor, _ctx: &ForwardCtx) -> (Tensor, Saved) {
        let (rows, c) = x.shape().as_matrix();
        assert_eq!(c, self.in_dim, "gru input width mismatch");
        assert_eq!(rows % self.seq, 0, "rows must be a multiple of seq");
        let batch = rows / self.seq;
        let h = self.hidden;

        let mut h_prev = Tensor::zeros(&[batch, h]);
        // Stash post-activation gates [r, z, n] and the raw h-side
        // contribution to the candidate gate (needed for backward). Every
        // element is overwritten by the scatter loop, so the stashes can
        // start from pooled buffers with stale contents.
        let mut h_all = pool::take_buf(rows * h);
        let mut gates_all = pool::take_buf(rows * 3 * h);
        let mut hn_all = pool::take_buf(rows * h);

        // The x-side pre-activations have no recurrent dependency: one
        // batched matmul covers every timestep (per-row results identical
        // to the per-step calls).
        let mut xpre_all = Tensor::zeros(&[0]);
        matmul_into(x, &self.wx.value, &mut xpre_all);
        xpre_all.add_row_broadcast_assign(&self.b.value);

        // Wh is the right-hand operand of every step: pack it once.
        let wh = PackedB::pack(&self.wh.value);
        // Per-timestep scratch reused across the unroll.
        let mut xpre = Tensor::zeros(&[0]);
        let mut hpre = Tensor::zeros(&[0]);
        let mut gates = Tensor::zeros(&[0]);
        let mut ht = Tensor::zeros(&[0]);
        let mut hn = Tensor::zeros(&[0]);
        for t in 0..self.seq {
            self.gather_t_into(&xpre_all, t, batch, 3 * h, &mut xpre);
            matmul_packed_into(&h_prev, &wh, &mut hpre);
            gates.prepare_out(&[batch, 3 * h]);
            ht.prepare_out(&[batch, h]);
            hn.prepare_out(&[batch, h]);
            {
                let xp = xpre.data();
                let hp = hpre.data();
                let hpv = h_prev.data();
                let gbuf = gates.data_mut();
                let htbuf = ht.data_mut();
                let hnbuf = hn.data_mut();
                for bi in 0..batch {
                    let base = bi * 3 * h;
                    for j in 0..h {
                        let r = sigmoid(xp[base + j] + hp[base + j]);
                        let z = sigmoid(xp[base + h + j] + hp[base + h + j]);
                        let hn_j = hp[base + 2 * h + j];
                        let n = (xp[base + 2 * h + j] + r * hn_j).tanh();
                        gbuf[base + j] = r;
                        gbuf[base + h + j] = z;
                        gbuf[base + 2 * h + j] = n;
                        hnbuf[bi * h + j] = hn_j;
                        htbuf[bi * h + j] = (1.0 - z) * n + z * hpv[bi * h + j];
                    }
                }
            }
            self.scatter_t(&mut h_all, &ht, t, batch, h);
            self.scatter_t(&mut gates_all, &gates, t, batch, 3 * h);
            self.scatter_t(&mut hn_all, &hn, t, batch, h);
            std::mem::swap(&mut h_prev, &mut ht);
        }

        let y = Tensor::from_vec(h_all, &[rows, h]);
        let saved = Saved::new(vec![
            x.clone(),
            y.clone(),
            Tensor::from_vec(gates_all, &[rows, 3 * h]),
            Tensor::from_vec(hn_all, &[rows, h]),
        ]);
        (y, saved)
    }

    fn backward(&mut self, saved: &Saved, dy: &Tensor) -> Tensor {
        let x = saved.get(0);
        let h_all = saved.get(1);
        let gates_all = saved.get(2);
        let hn_all = saved.get(3);
        let (rows, _) = x.shape().as_matrix();
        let batch = rows / self.seq;
        let h = self.hidden;

        // Pre-activation gradients for every timestep, assembled by the
        // scatter below (fully overwritten); the input gradient falls out
        // of one batched matmul at the end.
        let mut dxpre_all = pool::take_buf(rows * 3 * h);
        let mut dh_next = Tensor::zeros(&[batch, h]);

        // Whᵀ is loop-invariant: pack it once, straight from Wh's rows.
        let wht = PackedB::pack_t(&self.wh.value);

        // Per-timestep scratch reused across the unroll (`dw` is shared by
        // both weight gradients).
        let mut gates = Tensor::zeros(&[0]);
        let mut hn = Tensor::zeros(&[0]);
        let mut h_prev = Tensor::zeros(&[0]);
        let mut dy_t = Tensor::zeros(&[0]);
        let mut dxpre = Tensor::zeros(&[0]);
        let mut dhpre = Tensor::zeros(&[0]);
        let mut dh_prev_direct = Tensor::zeros(&[0]);
        let mut xt = Tensor::zeros(&[0]);
        let mut dw = Tensor::zeros(&[0]);

        for t in (0..self.seq).rev() {
            self.gather_t_into(gates_all, t, batch, 3 * h, &mut gates);
            self.gather_t_into(hn_all, t, batch, h, &mut hn);
            if t == 0 {
                h_prev.prepare_out(&[batch, h]);
                h_prev.data_mut().fill(0.0);
            } else {
                self.gather_t_into(h_all, t - 1, batch, h, &mut h_prev);
            }
            self.gather_t_into(dy, t, batch, h, &mut dy_t);

            // Gradients w.r.t. the x-side and h-side pre-activations.
            dxpre.prepare_out(&[batch, 3 * h]);
            dhpre.prepare_out(&[batch, 3 * h]);
            dh_prev_direct.prepare_out(&[batch, h]);
            {
                let gbuf = gates.data();
                let hnbuf = hn.data();
                let hpbuf = h_prev.data();
                let dybuf = dy_t.data();
                let dhnbuf = dh_next.data();
                let dxpbuf = dxpre.data_mut();
                let dhpbuf = dhpre.data_mut();
                let dhdbuf = dh_prev_direct.data_mut();
                for bi in 0..batch {
                    let base = bi * 3 * h;
                    for j in 0..h {
                        let r = gbuf[base + j];
                        let z = gbuf[base + h + j];
                        let n = gbuf[base + 2 * h + j];
                        let hn_j = hnbuf[bi * h + j];
                        let hp = hpbuf[bi * h + j];
                        let dh = dybuf[bi * h + j] + dhnbuf[bi * h + j];

                        let dn = dh * (1.0 - z);
                        let dz = dh * (hp - n);
                        let dpre_n = dn * (1.0 - n * n);
                        let dr = dpre_n * hn_j;
                        let dpre_r = dr * r * (1.0 - r);
                        let dpre_z = dz * z * (1.0 - z);

                        dxpbuf[base + j] = dpre_r;
                        dxpbuf[base + h + j] = dpre_z;
                        dxpbuf[base + 2 * h + j] = dpre_n;
                        // h-side: r and z share pre-activations with x-side;
                        // the candidate's h contribution is gated by r.
                        dhpbuf[base + j] = dpre_r;
                        dhpbuf[base + h + j] = dpre_z;
                        dhpbuf[base + 2 * h + j] = dpre_n * r;
                        dhdbuf[bi * h + j] = dh * z;
                    }
                }
            }

            self.gather_t_into(x, t, batch, self.in_dim, &mut xt);
            matmul_at_b_into(&xt, &dxpre, &mut dw);
            self.wx.accumulate_grad(&dw);
            matmul_at_b_into(&h_prev, &dhpre, &mut dw);
            self.wh.accumulate_grad(&dw);
            self.b.accumulate_grad(&col_sums(&dxpre));
            self.scatter_t(&mut dxpre_all, &dxpre, t, batch, 3 * h);
            matmul_packed_into(&dhpre, &wht, &mut dh_next);
            dh_next.add_assign(&dh_prev_direct);
        }

        // dX = dXPre · Wxᵀ row by row, so all timesteps batch into one call.
        let dxpre_all = Tensor::from_vec(dxpre_all, &[rows, 3 * h]);
        let mut dx = Tensor::zeros(&[0]);
        matmul_a_bt_into(&dxpre_all, &self.wx.value, &mut dx);
        dx.reshape(x.dims())
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.wx);
        f(&self.wh);
        f(&self.b);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.wx);
        f(&mut self.wh);
        f(&mut self.b);
    }

    fn name(&self) -> &'static str {
        "GruSeq"
    }

    fn flops_per_row(&self) -> u64 {
        2 * 3 * self.hidden as u64 * (self.in_dim + self.hidden) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck_layer;

    #[test]
    fn forward_shapes_and_bounded_state() {
        let mut rng = TensorRng::seed_from_u64(0);
        let gru = GruSeq::new(4, 3, 5, &mut rng);
        let x = ea_tensor::uniform(&[2 * 4, 3], -1.0, 1.0, &mut rng);
        let (y, s) = gru.forward(&x, &ForwardCtx::eval());
        assert_eq!(y.dims(), &[8, 5]);
        assert_eq!(s.len(), 4);
        // GRU hidden state is a convex combination of tanh outputs and
        // stays in (-1, 1).
        assert!(y.abs_max() <= 1.0);
    }

    #[test]
    fn state_propagates_through_time() {
        let mut rng = TensorRng::seed_from_u64(1);
        let gru = GruSeq::new(3, 2, 4, &mut rng);
        // Constant inputs: outputs still differ across time because the
        // hidden state evolves.
        let x = Tensor::ones(&[3, 2]);
        let (y, _) = gru.forward(&x, &ForwardCtx::eval());
        assert_ne!(y.row(0), y.row(1));
        assert_ne!(y.row(1), y.row(2));
    }

    #[test]
    fn gradcheck_short_sequence() {
        let mut rng = TensorRng::seed_from_u64(2);
        let gru = GruSeq::new(2, 3, 2, &mut rng);
        gradcheck_layer(gru, &[2 * 2, 3], 5e-2, 23);
    }

    #[test]
    fn gradcheck_longer_sequence_multi_batch() {
        let mut rng = TensorRng::seed_from_u64(3);
        let gru = GruSeq::new(3, 2, 3, &mut rng);
        gradcheck_layer(gru, &[2 * 3, 2], 5e-2, 24);
    }

    #[test]
    fn gru_has_three_quarters_of_lstm_parameters() {
        let mut rng = TensorRng::seed_from_u64(4);
        let gru = GruSeq::new(4, 8, 8, &mut rng);
        let lstm = crate::LstmSeq::new(4, 8, 8, &mut rng);
        let count = |l: &dyn Layer| {
            let mut n = 0;
            l.visit_params(&mut |p| n += p.numel());
            n
        };
        assert_eq!(4 * count(&gru), 3 * count(&lstm));
    }
}
