//! The pre-optimization closure-driven forward scatter, kept as the
//! equivalence oracle for `mimonet_fec::ViterbiDecoder` (the proptests
//! and integration tests of `mimonet-fec`) and as the "before" side of
//! the hot-path benchmark. Allocates fresh metric and survivor buffers
//! and invokes the reward closure twice per branch — 256 calls per
//! trellis step.
//!
//! Its trellis table is its own, built from the public
//! [`encode_step`]: the oracle shares no table with the decoder it
//! checks.

// Index-based loops here are the clearer expression of the trellis
// sweep; silence the iterator-style suggestion.
#![allow(clippy::needless_range_loop)]
use mimonet_fec::conv::{encode_step, NUM_STATES, TAIL_BITS};
use mimonet_fec::viterbi::{Symbol, ViterbiError};

const NEG: f64 = f64::NEG_INFINITY;

/// `[state][input bit] → (a, b, next state)`: the coded pair the encoder
/// emits and the state it moves to.
fn trellis() -> [[(u8, u8, u8); 2]; NUM_STATES] {
    let mut table = [[(0, 0, 0); 2]; NUM_STATES];
    for (s, row) in table.iter_mut().enumerate() {
        for (bit, entry) in row.iter_mut().enumerate() {
            *entry = encode_step(s as u8, bit as u8);
        }
    }
    table
}

fn search(num_steps: usize, bit_reward: impl Fn(usize, u8) -> f64, terminated: bool) -> Vec<u8> {
    let tr = trellis();
    let mut metric = vec![NEG; NUM_STATES];
    metric[0] = 0.0;
    let mut survivor: Vec<[(u8, u8); NUM_STATES]> = Vec::with_capacity(num_steps);

    let mut next_metric = vec![NEG; NUM_STATES];
    for t in 0..num_steps {
        next_metric.fill(NEG);
        let mut surv = [(0u8, 0u8); NUM_STATES];
        for s in 0..NUM_STATES {
            let m = metric[s];
            if m == NEG {
                continue;
            }
            for bit in 0..2usize {
                let (a, b, ns) = tr[s][bit];
                let ns = ns as usize;
                let r = bit_reward(2 * t, a) + bit_reward(2 * t + 1, b);
                let cand = m + r;
                if cand > next_metric[ns] {
                    next_metric[ns] = cand;
                    surv[ns] = (s as u8, bit as u8);
                }
            }
        }
        survivor.push(surv);
        std::mem::swap(&mut metric, &mut next_metric);
    }

    let mut state = if terminated {
        0usize
    } else {
        metric
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0)
    };

    let mut bits = vec![0u8; num_steps];
    for t in (0..num_steps).rev() {
        let (prev, bit) = survivor[t][state];
        bits[t] = bit;
        state = prev as usize;
    }
    bits
}

fn hard_reward(coded: &[Symbol]) -> impl Fn(usize, u8) -> f64 + '_ {
    |idx, hyp| match coded[idx] {
        Symbol::Erased => 0.0,
        Symbol::Bit(rx) => {
            if rx == hyp {
                1.0
            } else {
                0.0
            }
        }
    }
}

fn soft_reward(llrs: &[f64]) -> impl Fn(usize, u8) -> f64 + '_ {
    |idx, hyp| {
        let l = llrs[idx];
        if hyp == 0 {
            0.5 * l
        } else {
            -0.5 * l
        }
    }
}

/// Reference counterpart of `mimonet_fec::decode_hard`.
pub fn decode_hard(coded: &[Symbol]) -> Result<Vec<u8>, ViterbiError> {
    if !coded.len().is_multiple_of(2) {
        return Err(ViterbiError::OddLength(coded.len()));
    }
    let steps = coded.len() / 2;
    if steps < TAIL_BITS {
        return Err(ViterbiError::TooShort(coded.len()));
    }
    let bits = search(steps, hard_reward(coded), true);
    Ok(bits[..steps - TAIL_BITS].to_vec())
}

/// Reference counterpart of `mimonet_fec::decode_hard_unterminated`.
pub fn decode_hard_unterminated(coded: &[Symbol]) -> Result<Vec<u8>, ViterbiError> {
    if !coded.len().is_multiple_of(2) {
        return Err(ViterbiError::OddLength(coded.len()));
    }
    let steps = coded.len() / 2;
    if steps == 0 {
        return Ok(Vec::new());
    }
    Ok(search(steps, hard_reward(coded), false))
}

/// Reference counterpart of `mimonet_fec::decode_soft_unterminated`.
pub fn decode_soft_unterminated(llrs: &[f64]) -> Result<Vec<u8>, ViterbiError> {
    if !llrs.len().is_multiple_of(2) {
        return Err(ViterbiError::OddLength(llrs.len()));
    }
    let steps = llrs.len() / 2;
    if steps == 0 {
        return Ok(Vec::new());
    }
    Ok(search(steps, soft_reward(llrs), false))
}

/// Reference counterpart of `mimonet_fec::decode_soft`.
pub fn decode_soft(llrs: &[f64]) -> Result<Vec<u8>, ViterbiError> {
    if !llrs.len().is_multiple_of(2) {
        return Err(ViterbiError::OddLength(llrs.len()));
    }
    let steps = llrs.len() / 2;
    if steps < TAIL_BITS {
        return Err(ViterbiError::TooShort(llrs.len()));
    }
    let bits = search(steps, soft_reward(llrs), true);
    Ok(bits[..steps - TAIL_BITS].to_vec())
}
