//! The recording tap: flattening [`ActivityCounters`] to and from the
//! serializable word layout of [`distfront_trace::record`].
//!
//! The engine records one flattened counter vector per interval boundary;
//! replay reverses the flattening bit-exactly (every counter is a `u64`,
//! so there is no precision to lose). The canonical order is part of the
//! trace format: any change here must bump
//! [`TRACE_FORMAT_VERSION`](distfront_trace::record::TRACE_FORMAT_VERSION),
//! and a test pins the layout length to
//! [`TraceShape::flat_len`](distfront_trace::record::TraceShape::flat_len).
//!
//! Layout (all lengths from the machine shape): 12 scalars (`cycles`,
//! `committed_uops`, `tc_fills`, `bp_accesses`, `itlb_accesses`,
//! `decoded_uops`, `steer_lookups`, `copy_requests`, `ul2_accesses`,
//! `bus_transfers`, `disamb_broadcasts`, `link_flits`), the per-bank
//! `tc_bank_accesses`, six per-partition vectors (`rat_reads`,
//! `rat_writes`, `rob_writes`, `rob_reads`, `rob_rl_writes`,
//! `rob_rl_reads`), then 15 counters per backend cluster in declaration
//! order.

use crate::activity::{ActivityCounters, BackendActivity};

/// Number of `u64` words a flattened record occupies for a machine shape.
pub const fn flat_len(partitions: usize, backends: usize, tc_banks: usize) -> usize {
    12 + tc_banks + 6 * partitions + 15 * backends
}

/// Appends the canonical flattening of `act` to `out`.
pub fn flatten_into(act: &ActivityCounters, out: &mut Vec<u64>) {
    out.reserve(flat_len(
        act.partitions(),
        act.backends.len(),
        act.tc_bank_accesses.len(),
    ));
    out.extend_from_slice(&[
        act.cycles,
        act.committed_uops,
        act.tc_fills,
        act.bp_accesses,
        act.itlb_accesses,
        act.decoded_uops,
        act.steer_lookups,
        act.copy_requests,
        act.ul2_accesses,
        act.bus_transfers,
        act.disamb_broadcasts,
        act.link_flits,
    ]);
    out.extend_from_slice(&act.tc_bank_accesses);
    for v in [
        &act.rat_reads,
        &act.rat_writes,
        &act.rob_writes,
        &act.rob_reads,
        &act.rob_rl_writes,
        &act.rob_rl_reads,
    ] {
        out.extend_from_slice(v);
    }
    for b in &act.backends {
        out.extend_from_slice(&[
            b.iq_writes,
            b.iq_issues,
            b.fpq_writes,
            b.fpq_issues,
            b.copy_ops,
            b.mob_allocs,
            b.mob_searches,
            b.irf_reads,
            b.irf_writes,
            b.fprf_reads,
            b.fprf_writes,
            b.int_fu_ops,
            b.fp_fu_ops,
            b.dl1_accesses,
            b.dtlb_accesses,
        ]);
    }
}

/// The canonical flattening of `act` as a fresh vector.
pub fn flatten(act: &ActivityCounters) -> Vec<u64> {
    let mut out = Vec::new();
    flatten_into(act, &mut out);
    out
}

/// Reverses [`flatten`] for the given machine shape.
///
/// # Errors
///
/// Returns a description of the mismatch when `flat` is not exactly
/// [`flat_len`] words long.
pub fn unflatten(
    partitions: usize,
    backends: usize,
    tc_banks: usize,
    flat: &[u64],
) -> Result<ActivityCounters, String> {
    let mut act = ActivityCounters::new(partitions, backends, tc_banks);
    unflatten_into(&mut act, partitions, backends, tc_banks, flat)?;
    Ok(act)
}

/// [`unflatten`] into an existing `act`, which takes the given shape.
/// Its vectors keep their allocations, so a replay loop that reuses one
/// `act` for a machine allocates nothing per interval.
///
/// # Errors
///
/// Returns a description of the mismatch when `flat` is not exactly
/// [`flat_len`] words long; `act` is then left unchanged.
pub fn unflatten_into(
    act: &mut ActivityCounters,
    partitions: usize,
    backends: usize,
    tc_banks: usize,
    flat: &[u64],
) -> Result<(), String> {
    let expect = flat_len(partitions, backends, tc_banks);
    if flat.len() != expect {
        return Err(format!(
            "flattened record holds {} words, shape ({partitions} partitions, \
             {backends} backends, {tc_banks} banks) needs {expect}",
            flat.len()
        ));
    }
    let (scalars, rest) = flat.split_at(12);
    [
        act.cycles,
        act.committed_uops,
        act.tc_fills,
        act.bp_accesses,
        act.itlb_accesses,
        act.decoded_uops,
        act.steer_lookups,
        act.copy_requests,
        act.ul2_accesses,
        act.bus_transfers,
        act.disamb_broadcasts,
        act.link_flits,
    ] = <[u64; 12]>::try_from(scalars).expect("length checked above");
    let (banks, mut rest) = rest.split_at(tc_banks);
    refill(&mut act.tc_bank_accesses, banks);
    for v in [
        &mut act.rat_reads,
        &mut act.rat_writes,
        &mut act.rob_writes,
        &mut act.rob_reads,
        &mut act.rob_rl_writes,
        &mut act.rob_rl_reads,
    ] {
        let (row, tail) = rest.split_at(partitions);
        refill(v, row);
        rest = tail;
    }
    act.backends.clear();
    act.backends
        .extend(rest.chunks_exact(15).map(|b| BackendActivity {
            iq_writes: b[0],
            iq_issues: b[1],
            fpq_writes: b[2],
            fpq_issues: b[3],
            copy_ops: b[4],
            mob_allocs: b[5],
            mob_searches: b[6],
            irf_reads: b[7],
            irf_writes: b[8],
            fprf_reads: b[9],
            fprf_writes: b[10],
            int_fu_ops: b[11],
            fp_fu_ops: b[12],
            dl1_accesses: b[13],
            dtlb_accesses: b[14],
        }));
    Ok(())
}

/// Overwrites `v` with `src`, reusing its allocation.
fn refill(v: &mut Vec<u64>, src: &[u64]) {
    v.clear();
    v.extend_from_slice(src);
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfront_trace::record::TraceShape;

    /// Fills every counter with a distinct value so a misordered
    /// flattening cannot round-trip.
    fn dense(partitions: usize, backends: usize, tc_banks: usize) -> ActivityCounters {
        let mut act = ActivityCounters::new(partitions, backends, tc_banks);
        let mut n = 1u64;
        let mut next = || {
            n += 1;
            n
        };
        act.cycles = next();
        act.committed_uops = next();
        act.tc_fills = next();
        act.bp_accesses = next();
        act.itlb_accesses = next();
        act.decoded_uops = next();
        act.steer_lookups = next();
        act.copy_requests = next();
        act.ul2_accesses = next();
        act.bus_transfers = next();
        act.disamb_broadcasts = next();
        act.link_flits = next();
        for v in &mut act.tc_bank_accesses {
            *v = next();
        }
        for p in 0..partitions {
            act.rat_reads[p] = next();
            act.rat_writes[p] = next();
            act.rob_writes[p] = next();
            act.rob_reads[p] = next();
            act.rob_rl_writes[p] = next();
            act.rob_rl_reads[p] = next();
        }
        for b in &mut act.backends {
            b.iq_writes = next();
            b.iq_issues = next();
            b.fpq_writes = next();
            b.fpq_issues = next();
            b.copy_ops = next();
            b.mob_allocs = next();
            b.mob_searches = next();
            b.irf_reads = next();
            b.irf_writes = next();
            b.fprf_reads = next();
            b.fprf_writes = next();
            b.int_fu_ops = next();
            b.fp_fu_ops = next();
            b.dl1_accesses = next();
            b.dtlb_accesses = next();
        }
        act
    }

    #[test]
    fn flatten_unflatten_roundtrip_over_shapes() {
        for (p, b, t) in [(1, 4, 2), (2, 4, 3), (4, 8, 8), (1, 1, 1)] {
            let act = dense(p, b, t);
            let flat = flatten(&act);
            assert_eq!(flat.len(), flat_len(p, b, t));
            let back = unflatten(p, b, t, &flat).unwrap();
            assert_eq!(back, act, "shape ({p},{b},{t})");
        }
    }

    #[test]
    fn flat_len_matches_the_trace_format_formula() {
        // The trace codec validates record lengths against
        // TraceShape::flat_len; the uarch flattening must agree with it
        // for every shape, or recorded traces would fail to decode.
        for (p, b, t) in [(1, 4, 2), (2, 4, 3), (4, 8, 8), (3, 2, 5)] {
            let shape = TraceShape {
                partitions: p as u32,
                backends: b as u32,
                tc_banks: t as u32,
            };
            assert_eq!(flat_len(p, b, t), shape.flat_len(), "shape ({p},{b},{t})");
            assert_eq!(flatten(&dense(p, b, t)).len(), shape.flat_len());
        }
    }

    #[test]
    fn wrong_length_is_a_clear_error() {
        let act = dense(2, 4, 3);
        let flat = flatten(&act);
        let err = unflatten(1, 4, 3, &flat).unwrap_err();
        assert!(err.contains("needs"), "unhelpful error: {err}");
        assert!(unflatten(2, 4, 3, &flat[..flat.len() - 1]).is_err());
    }

    proptest::proptest! {
        /// `unflatten_into` gives what `unflatten` gives, over every
        /// shape up to 31 backends, into a buffer last filled at another
        /// random shape; a row one word short or long is an `Err` that
        /// leaves the buffer as it was.
        #[test]
        fn unflatten_into_equals_unflatten(
            shape in (1usize..5, 1usize..32, 1usize..9),
            prev in (1usize..5, 1usize..32, 1usize..9),
            long in proptest::bool::ANY,
        ) {
            let (p, b, t) = shape;
            let flat = flatten(&dense(p, b, t));
            let mut act = dense(prev.0, prev.1, prev.2);
            unflatten_into(&mut act, p, b, t, &flat)?;
            proptest::prop_assert_eq!(&act, &unflatten(p, b, t, &flat)?);

            let before = act.clone();
            let mut wrong = flat.clone();
            if long {
                wrong.push(7);
            } else {
                wrong.pop();
            }
            proptest::prop_assert!(unflatten_into(&mut act, p, b, t, &wrong).is_err());
            proptest::prop_assert!(unflatten(p, b, t, &wrong).is_err());
            proptest::prop_assert_eq!(act, before);
        }
    }

    #[test]
    fn flatten_into_appends() {
        let act = dense(1, 4, 2);
        let mut out = vec![99u64];
        flatten_into(&act, &mut out);
        assert_eq!(out[0], 99);
        assert_eq!(&out[1..], flatten(&act).as_slice());
    }
}
