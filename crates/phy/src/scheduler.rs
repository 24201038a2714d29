//! Scheduling-based OTFS: signaling/data coexistence (paper §5.1).
//!
//! OTFS needs a *contiguous* `M x N` grid, but 4G/5G multiplexes
//! signaling and data freely over the OFDM grid. REM's insight is that
//! signaling radio bearers are already strictly prioritised, so the
//! scheduler can always carve a contiguous sub-grid for OTFS-modulated
//! signaling first and hand the remaining resource elements to
//! OFDM-modulated data — no 4G/5G redesign, no extra delay or spectrum.
//!
//! This module implements that scheduler over per-subframe grids. The
//! invariants the paper relies on (and our tests assert):
//!
//! 1. signaling is always served before any data,
//! 2. signaling always lands in one contiguous sub-grid,
//! 3. data occupies only the slots signaling left over,
//! 4. backlog carries over FIFO when a subframe fills up.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Kinds of signaling messages REM places in the overlay.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MessageKind {
    /// Uplink measurement feedback (trigger phase).
    MeasurementReport,
    /// Downlink handover command (execute phase).
    HandoverCommand,
    /// Measurement (re)configuration.
    RrcReconfiguration,
    /// Delay-Doppler reference signals for channel estimation.
    ReferenceSignal,
    /// Anything else on the signaling radio bearer.
    Other,
}

/// A pending signaling message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignalingMessage {
    /// Monotone message id (assigned by [`Scheduler::enqueue_signaling`]).
    pub id: u64,
    /// What the message is.
    pub kind: MessageKind,
    /// Encoded payload.
    pub payload: Vec<u8>,
}

/// A contiguous sub-grid allocation: `cols` whole columns starting at
/// column `n0` of the subframe grid (each column spans all `M'` rows,
/// so the region is trivially contiguous and OTFS-able as an
/// `M' x cols` grid).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubGridAlloc {
    /// First column (OFDM symbol index) of the region.
    pub n0: usize,
    /// Number of columns.
    pub cols: usize,
    /// Rows (always the full subcarrier dimension `M'`).
    pub rows: usize,
}

impl SubGridAlloc {
    /// Resource elements covered.
    pub fn slots(&self) -> usize {
        self.rows * self.cols
    }
}

/// The outcome of scheduling one subframe.
#[derive(Clone, Debug, PartialEq)]
pub struct SubframePlan {
    /// The OTFS signaling sub-grid, if any signaling was pending.
    pub signaling_region: Option<SubGridAlloc>,
    /// Signaling messages transmitted this subframe (FIFO order).
    pub signaling: Vec<SignalingMessage>,
    /// Data bytes transmitted this subframe.
    pub data_bytes: usize,
    /// Resource elements left for data.
    pub data_slots: usize,
}

/// The REM-adapted MAC scheduler.
#[derive(Debug)]
pub struct Scheduler {
    grid_m: usize,
    grid_n: usize,
    bits_per_slot: usize,
    next_id: u64,
    signaling_q: VecDeque<SignalingMessage>,
    data_backlog_bytes: usize,
}

impl Scheduler {
    /// Creates a scheduler for `grid_m x grid_n` subframes carrying
    /// `bits_per_slot` *information* bits per resource element (i.e.
    /// after modulation and coding; QPSK rate-1/2 carries 1).
    ///
    /// # Panics
    /// Panics if any parameter is zero.
    pub fn new(grid_m: usize, grid_n: usize, bits_per_slot: usize) -> Self {
        assert!(grid_m > 0 && grid_n > 0 && bits_per_slot > 0);
        Self {
            grid_m,
            grid_n,
            bits_per_slot,
            next_id: 0,
            signaling_q: VecDeque::new(),
            data_backlog_bytes: 0,
        }
    }

    /// LTE defaults: 12 x 14 subframe, QPSK rate-1/2 (1 bit/slot).
    pub fn lte_default() -> Self {
        Self::new(12, 14, 1)
    }

    /// Queues a signaling message; returns its id.
    pub fn enqueue_signaling(&mut self, kind: MessageKind, payload: Vec<u8>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.signaling_q.push_back(SignalingMessage { id, kind, payload });
        id
    }

    /// Adds data bytes to the (infinite, byte-granular) data backlog.
    pub fn enqueue_data(&mut self, bytes: usize) {
        self.data_backlog_bytes += bytes;
    }

    /// Pending signaling messages.
    pub fn signaling_backlog(&self) -> usize {
        self.signaling_q.len()
    }

    fn slots_for_bits(&self, bits: usize) -> usize {
        bits.div_ceil(self.bits_per_slot)
    }

    /// Schedules one subframe: signaling first into a contiguous
    /// column-aligned sub-grid, data into the remainder.
    pub fn schedule_subframe(&mut self) -> SubframePlan {
        let total_slots = self.grid_m * self.grid_n;

        // Admit whole signaling messages FIFO while they fit.
        let mut sig: Vec<SignalingMessage> = Vec::new();
        let mut sig_bits = 0usize;
        while let Some(front) = self.signaling_q.front() {
            let bits = front.payload.len() * 8;
            let needed = self.slots_for_bits(sig_bits + bits);
            if needed > total_slots {
                break;
            }
            sig_bits += bits;
            sig.push(self.signaling_q.pop_front().unwrap());
        }

        // Column-aligned contiguous region sized to the admitted bits.
        let signaling_region = if sig.is_empty() {
            None
        } else {
            let slots = self.slots_for_bits(sig_bits).max(1);
            let cols = slots.div_ceil(self.grid_m).min(self.grid_n);
            Some(SubGridAlloc { n0: 0, cols, rows: self.grid_m })
        };

        let sig_slots = signaling_region.map_or(0, |r| r.slots());
        let data_slots = total_slots - sig_slots;
        let data_capacity_bytes = data_slots * self.bits_per_slot / 8;
        let data_bytes = self.data_backlog_bytes.min(data_capacity_bytes);
        self.data_backlog_bytes -= data_bytes;

        SubframePlan { signaling_region, signaling: sig, data_bytes, data_slots }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(n: usize) -> Vec<u8> {
        vec![0xA5u8; n]
    }

    #[test]
    fn empty_scheduler_gives_all_slots_to_data() {
        let mut s = Scheduler::lte_default();
        s.enqueue_data(1000);
        let plan = s.schedule_subframe();
        assert!(plan.signaling_region.is_none());
        assert_eq!(plan.data_slots, 12 * 14);
        assert_eq!(plan.data_bytes, 12 * 14 / 8);
    }

    #[test]
    fn signaling_served_before_data() {
        let mut s = Scheduler::lte_default();
        s.enqueue_data(10_000);
        s.enqueue_signaling(MessageKind::MeasurementReport, msg(4));
        let plan = s.schedule_subframe();
        let region = plan.signaling_region.expect("signaling must be scheduled");
        assert_eq!(plan.signaling.len(), 1);
        // Data only gets what signaling left over.
        assert_eq!(plan.data_slots, 12 * 14 - region.slots());
    }

    #[test]
    fn region_is_contiguous_and_within_grid() {
        let mut s = Scheduler::lte_default();
        s.enqueue_signaling(MessageKind::HandoverCommand, msg(10));
        let plan = s.schedule_subframe();
        let r = plan.signaling_region.unwrap();
        assert_eq!(r.rows, 12);
        assert!(r.n0 + r.cols <= 14);
        // 80 bits -> 80 slots -> ceil(80/12) = 7 columns.
        assert_eq!(r.cols, 7);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut s = Scheduler::lte_default();
        let a = s.enqueue_signaling(MessageKind::MeasurementReport, msg(2));
        let b = s.enqueue_signaling(MessageKind::HandoverCommand, msg(2));
        let plan = s.schedule_subframe();
        assert_eq!(plan.signaling.iter().map(|m| m.id).collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    fn oversize_signaling_carries_over() {
        let mut s = Scheduler::lte_default(); // capacity 168 bits
        s.enqueue_signaling(MessageKind::Other, msg(20)); // 160 bits, fits
        s.enqueue_signaling(MessageKind::Other, msg(20)); // would exceed
        let p1 = s.schedule_subframe();
        assert_eq!(p1.signaling.len(), 1);
        assert_eq!(s.signaling_backlog(), 1);
        let p2 = s.schedule_subframe();
        assert_eq!(p2.signaling.len(), 1);
        assert_eq!(s.signaling_backlog(), 0);
    }

    #[test]
    fn message_larger_than_subframe_is_never_silently_dropped() {
        let mut s = Scheduler::lte_default();
        s.enqueue_signaling(MessageKind::Other, msg(100)); // 800 bits > 168
        let p = s.schedule_subframe();
        // It cannot fit; it stays queued (a real stack would segment at
        // RLC — out of scope) and data proceeds.
        assert!(p.signaling.is_empty());
        assert_eq!(s.signaling_backlog(), 1);
        assert_eq!(p.data_slots, 168);
    }

    #[test]
    fn heavy_signaling_starves_data_by_design() {
        let mut s = Scheduler::lte_default();
        s.enqueue_data(10_000);
        for _ in 0..4 {
            s.enqueue_signaling(MessageKind::MeasurementReport, msg(5));
        }
        let p = s.schedule_subframe();
        // 4 * 40 = 160 bits -> 160 slots -> ceil(160/12)=14 columns: all.
        assert_eq!(p.signaling.len(), 4);
        assert_eq!(p.signaling_region.unwrap().cols, 14);
        assert_eq!(p.data_slots, 0);
        assert_eq!(p.data_bytes, 0);
    }

    #[test]
    fn data_backlog_drains_over_subframes() {
        let mut s = Scheduler::lte_default();
        s.enqueue_data(50);
        let p1 = s.schedule_subframe();
        assert_eq!(p1.data_bytes, 21); // 168 bits / 8
        let p2 = s.schedule_subframe();
        assert_eq!(p2.data_bytes, 21);
        let p3 = s.schedule_subframe();
        assert_eq!(p3.data_bytes, 8);
        assert_eq!(s.data_backlog_bytes, 0);
    }

    #[test]
    fn ids_are_monotone() {
        let mut s = Scheduler::lte_default();
        let a = s.enqueue_signaling(MessageKind::Other, msg(1));
        let b = s.enqueue_signaling(MessageKind::Other, msg(1));
        assert!(b > a);
    }
}
