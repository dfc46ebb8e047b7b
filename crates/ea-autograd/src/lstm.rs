//! Sequence LSTM layer with in-layer BPTT.

use crate::{ForwardCtx, Layer, Param, Saved};
use ea_tensor::{
    col_sums, matmul_a_bt_into, matmul_at_b_into, matmul_into, matmul_packed_into, pool,
    xavier_uniform, PackedB, Tensor, TensorRng,
};

/// A single-direction LSTM unrolled over a fixed sequence length.
///
/// Inputs are `[batch*seq, in_dim]` laid out batch-major (row `b*seq + t`
/// is token `t` of sample `b`); outputs are `[batch*seq, hidden]` with the
/// hidden state at every step. Truncated BPTT runs inside the layer, so a
/// pipeline stage can treat an LSTM exactly like any feed-forward layer —
/// this mirrors how GNMT/AWD stages are pipelined in the paper.
pub struct LstmSeq {
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

impl LstmSeq {
    /// Creates an LSTM over sequences of length `seq`.
    pub fn new(seq: usize, in_dim: usize, hidden: usize, rng: &mut TensorRng) -> Self {
        LstmSeq {
            wx: Param::new("lstm.wx", xavier_uniform(in_dim, 4 * hidden, rng)),
            wh: Param::new("lstm.wh", xavier_uniform(hidden, 4 * hidden, rng)),
            b: Param::new("lstm.b", Tensor::zeros(&[4 * hidden])),
            seq,
            in_dim,
            hidden,
        }
    }

    /// Gathers the rows of timestep `t` into a `[batch, width]` block,
    /// written into a reusable scratch tensor.
    fn gather_t_into(&self, x: &Tensor, t: usize, batch: usize, width: usize, out: &mut Tensor) {
        out.prepare_out(&[batch, width]);
        let obuf = out.data_mut();
        let data = x.data();
        for b in 0..batch {
            let r = b * self.seq + t;
            obuf[b * width..(b + 1) * width].copy_from_slice(&data[r * width..(r + 1) * width]);
        }
    }

    /// Scatters a `[batch, width]` block back into rows of timestep `t`.
    fn scatter_t(&self, dst: &mut [f32], block: &Tensor, t: usize, batch: usize, width: usize) {
        for b in 0..batch {
            let r = b * self.seq + t;
            dst[r * width..(r + 1) * width]
                .copy_from_slice(&block.data()[b * width..(b + 1) * width]);
        }
    }
}

impl Layer for LstmSeq {
    fn forward(&self, x: &Tensor, _ctx: &ForwardCtx) -> (Tensor, Saved) {
        let (rows, c) = x.shape().as_matrix();
        assert_eq!(c, self.in_dim, "lstm input width mismatch");
        assert_eq!(rows % self.seq, 0, "rows must be a multiple of seq");
        let batch = rows / self.seq;
        let h = self.hidden;

        let mut h_prev = Tensor::zeros(&[batch, h]);
        let mut c_prev = Tensor::zeros(&[batch, h]);
        // Every element is overwritten by the scatter loop below, so the
        // stashes can start from pooled buffers with stale contents.
        let mut h_all = pool::take_buf(rows * h);
        let mut c_all = pool::take_buf(rows * h);
        let mut gates_all = pool::take_buf(rows * 4 * h);
        let mut tanh_c_all = pool::take_buf(rows * h);

        // The x-side contribution x_t·Wx + b has no recurrent dependency,
        // so it is computed for every timestep in one batched matmul
        // (per-row results are identical to the per-step calls); only the
        // h-side term below runs step by step.
        let mut pre_all = Tensor::zeros(&[0]);
        matmul_into(x, &self.wx.value, &mut pre_all);
        pre_all.add_row_broadcast_assign(&self.b.value);

        // Wh is the right-hand operand of every step: pack it once.
        let wh = PackedB::pack(&self.wh.value);
        // Per-timestep scratch reused across the unroll.
        let mut hh = Tensor::zeros(&[0]);
        let mut gates = Tensor::zeros(&[0]);
        let mut ct = Tensor::zeros(&[0]);
        let mut ht = Tensor::zeros(&[0]);
        let mut tct = Tensor::zeros(&[0]);
        for t in 0..self.seq {
            // Gate order within the 4h width: [i, f, g, o].
            self.gather_t_into(&pre_all, t, batch, 4 * h, &mut gates);
            matmul_packed_into(&h_prev, &wh, &mut hh);
            gates.add_assign(&hh);
            ct.prepare_out(&[batch, h]);
            ht.prepare_out(&[batch, h]);
            tct.prepare_out(&[batch, h]);
            let gbuf = gates.data_mut();
            let cpbuf = c_prev.data();
            let ctbuf = ct.data_mut();
            let htbuf = ht.data_mut();
            let tcbuf = tct.data_mut();
            for bi in 0..batch {
                let base = bi * 4 * h;
                for j in 0..h {
                    let i = sigmoid(gbuf[base + j]);
                    let f = sigmoid(gbuf[base + h + j]);
                    let g = gbuf[base + 2 * h + j].tanh();
                    let o = sigmoid(gbuf[base + 3 * h + j]);
                    gbuf[base + j] = i;
                    gbuf[base + h + j] = f;
                    gbuf[base + 2 * h + j] = g;
                    gbuf[base + 3 * h + j] = o;
                    let cv = f * cpbuf[bi * h + j] + i * g;
                    let tcv = cv.tanh();
                    ctbuf[bi * h + j] = cv;
                    tcbuf[bi * h + j] = tcv;
                    htbuf[bi * h + j] = o * tcv;
                }
            }
            self.scatter_t(&mut h_all, &ht, t, batch, h);
            self.scatter_t(&mut c_all, &ct, t, batch, h);
            self.scatter_t(&mut gates_all, &gates, t, batch, 4 * h);
            self.scatter_t(&mut tanh_c_all, &tct, t, batch, h);
            std::mem::swap(&mut h_prev, &mut ht);
            std::mem::swap(&mut c_prev, &mut ct);
        }

        let y = Tensor::from_vec(h_all, &[rows, h]);
        let saved = Saved::new(vec![
            x.clone(),
            y.clone(),
            Tensor::from_vec(c_all, &[rows, h]),
            Tensor::from_vec(gates_all, &[rows, 4 * h]),
            // tanh(c_t) is stashed so backward reuses the forward values
            // instead of recomputing rows·h tanh calls.
            Tensor::from_vec(tanh_c_all, &[rows, h]),
        ]);
        (y, saved)
    }

    fn backward(&mut self, saved: &Saved, dy: &Tensor) -> Tensor {
        let x = saved.get(0);
        let h_all = saved.get(1);
        let c_all = saved.get(2);
        let gates_all = saved.get(3);
        let tanh_c_all = saved.get(4);
        let (rows, _) = x.shape().as_matrix();
        let batch = rows / self.seq;
        let h = self.hidden;

        // Pre-activation gradients for every timestep, assembled by the
        // scatter below (fully overwritten); the input gradient falls out
        // of one batched matmul at the end.
        let mut dpre_all = pool::take_buf(rows * 4 * h);
        let mut dh_next = Tensor::zeros(&[batch, h]);
        let mut dc_next = Tensor::zeros(&[batch, h]);

        // Whᵀ is loop-invariant: pack it once, straight from Wh's rows.
        let wht = PackedB::pack_t(&self.wh.value);

        // Per-timestep scratch reused across the unroll (`dw` is shared by
        // both weight gradients).
        let mut gates = Tensor::zeros(&[0]);
        let mut tc_t = Tensor::zeros(&[0]);
        let mut c_prev = Tensor::zeros(&[0]);
        let mut h_prev = Tensor::zeros(&[0]);
        let mut dy_t = Tensor::zeros(&[0]);
        let mut dpre = Tensor::zeros(&[0]);
        let mut dc_prev = Tensor::zeros(&[0]);
        let mut xt = Tensor::zeros(&[0]);
        let mut dw = Tensor::zeros(&[0]);

        for t in (0..self.seq).rev() {
            self.gather_t_into(gates_all, t, batch, 4 * h, &mut gates);
            self.gather_t_into(tanh_c_all, t, batch, h, &mut tc_t);
            if t == 0 {
                c_prev.prepare_out(&[batch, h]);
                c_prev.data_mut().fill(0.0);
                h_prev.prepare_out(&[batch, h]);
                h_prev.data_mut().fill(0.0);
            } else {
                self.gather_t_into(c_all, t - 1, batch, h, &mut c_prev);
                self.gather_t_into(h_all, t - 1, batch, h, &mut h_prev);
            }
            self.gather_t_into(dy, t, batch, h, &mut dy_t);

            dpre.prepare_out(&[batch, 4 * h]);
            dc_prev.prepare_out(&[batch, h]);
            {
                let gbuf = gates.data();
                let tcbuf = tc_t.data();
                let cpbuf = c_prev.data();
                let dybuf = dy_t.data();
                let dhnbuf = dh_next.data();
                let dcnbuf = dc_next.data();
                let dprebuf = dpre.data_mut();
                let dcpbuf = dc_prev.data_mut();
                for bi in 0..batch {
                    let gbase = bi * 4 * h;
                    for j in 0..h {
                        let i = gbuf[gbase + j];
                        let f = gbuf[gbase + h + j];
                        let g = gbuf[gbase + 2 * h + j];
                        let o = gbuf[gbase + 3 * h + j];
                        let tc = tcbuf[bi * h + j];
                        let dh = dybuf[bi * h + j] + dhnbuf[bi * h + j];
                        let mut dc = dcnbuf[bi * h + j] + dh * o * (1.0 - tc * tc);
                        let d_o = dh * tc;
                        let d_i = dc * g;
                        let d_g = dc * i;
                        let d_f = dc * cpbuf[bi * h + j];
                        dc *= f;
                        dcpbuf[bi * h + j] = dc;
                        dprebuf[gbase + j] = d_i * i * (1.0 - i);
                        dprebuf[gbase + h + j] = d_f * f * (1.0 - f);
                        dprebuf[gbase + 2 * h + j] = d_g * (1.0 - g * g);
                        dprebuf[gbase + 3 * h + j] = d_o * o * (1.0 - o);
                    }
                }
            }

            self.gather_t_into(x, t, batch, self.in_dim, &mut xt);
            matmul_at_b_into(&xt, &dpre, &mut dw);
            self.wx.accumulate_grad(&dw);
            matmul_at_b_into(&h_prev, &dpre, &mut dw);
            self.wh.accumulate_grad(&dw);
            self.b.accumulate_grad(&col_sums(&dpre));
            self.scatter_t(&mut dpre_all, &dpre, t, batch, 4 * h);
            matmul_packed_into(&dpre, &wht, &mut dh_next);
            std::mem::swap(&mut dc_next, &mut dc_prev);
        }

        // dX = dPre · Wxᵀ row by row, so all timesteps batch into one call.
        let dpre_all = Tensor::from_vec(dpre_all, &[rows, 4 * h]);
        let mut dx = Tensor::zeros(&[0]);
        matmul_a_bt_into(&dpre_all, &self.wx.value, &mut dx);
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
        "LstmSeq"
    }

    fn flops_per_row(&self) -> u64 {
        2 * 4 * self.hidden as u64 * (self.in_dim + self.hidden) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck_layer;

    #[test]
    fn forward_shapes_and_state_propagation() {
        let mut rng = TensorRng::seed_from_u64(0);
        let lstm = LstmSeq::new(3, 2, 4, &mut rng);
        let x = ea_tensor::uniform(&[2 * 3, 2], -1.0, 1.0, &mut rng);
        let (y, s) = lstm.forward(&x, &ForwardCtx::eval());
        assert_eq!(y.dims(), &[6, 4]);
        assert_eq!(s.len(), 5);
        // Hidden state at t=1 differs from t=0 (state actually propagates).
        assert_ne!(y.row(0), y.row(1));
    }

    #[test]
    fn zero_input_keeps_bounded_output() {
        let mut rng = TensorRng::seed_from_u64(1);
        let lstm = LstmSeq::new(5, 3, 3, &mut rng);
        let x = Tensor::zeros(&[5, 3]);
        let (y, _) = lstm.forward(&x, &ForwardCtx::eval());
        assert!(y.abs_max() <= 1.0, "lstm hidden state must stay in (-1,1)");
    }

    #[test]
    fn gradcheck_short_sequence() {
        let mut rng = TensorRng::seed_from_u64(2);
        let lstm = LstmSeq::new(2, 3, 2, &mut rng);
        gradcheck_layer(lstm, &[2 * 2, 3], 5e-2, 21);
    }

    #[test]
    fn gradcheck_longer_sequence_multi_batch() {
        let mut rng = TensorRng::seed_from_u64(3);
        let lstm = LstmSeq::new(3, 2, 3, &mut rng);
        gradcheck_layer(lstm, &[2 * 3, 2], 5e-2, 22);
    }
}
