//! Open-loop schedule arithmetic.
//!
//! An open loop sends op `i` when it is due, `i / rate` after the start,
//! whether or not earlier ops have been acknowledged. Each op's latency is
//! timed from its due time, so a stall that delays later sends is charged
//! to them, and the generator's own lateness is reported separately.
//! All times are nanoseconds since the loop started.

/// When op `i` is due at `rate` ops per second.
pub fn due_ns(i: u64, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate).round() as u64
}

/// How late the generator started an op that was due at `due`.
pub fn lateness_ns(due: u64, started: u64) -> u64 {
    started.saturating_sub(due)
}

/// Due time to acknowledgement, where the op was pushed at `pushed` and
/// its ticket resolved `lag` after the push.
pub fn ack_latency_ns(due: u64, pushed: u64, lag: u64) -> u64 {
    (pushed + lag).saturating_sub(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_are_due_on_a_fixed_grid() {
        assert_eq!(due_ns(0, 1000.0), 0);
        assert_eq!(due_ns(1, 1000.0), 1_000_000);
        assert_eq!(due_ns(2500, 1000.0), 2_500_000_000);
        assert_eq!(due_ns(3, 3.0), 1_000_000_000);
    }

    #[test]
    fn lateness_is_zero_when_on_time() {
        assert_eq!(lateness_ns(5_000, 4_000), 0);
        assert_eq!(lateness_ns(5_000, 5_000), 0);
        assert_eq!(lateness_ns(5_000, 7_500), 2_500);
    }

    #[test]
    fn ack_latency_charges_generator_stalls_to_the_op() {
        // On time: latency is the ticket's own lag.
        assert_eq!(ack_latency_ns(1_000, 1_000, 300), 300);
        // Pushed 2 µs late: the stall is part of what the op waited.
        assert_eq!(ack_latency_ns(1_000, 3_000, 300), 2_300);
        // A stall that delays a whole burst charges each op its own wait.
        let rate = 1_000_000.0; // one op per µs
        let pushed = 10_000; // all five sent together, 10 µs in
        let lat: Vec<u64> = (0..5).map(|i| ack_latency_ns(due_ns(i, rate), pushed, 500)).collect();
        assert_eq!(lat, vec![10_500, 9_500, 8_500, 7_500, 6_500]);
    }
}
