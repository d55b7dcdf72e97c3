//! A microservice: a load-balanced set of replicas plus scaling state.

use callgraph::ServiceSpec;
use simnet::SimTime;

use crate::replica::Replica;

/// Runtime state of one microservice.
#[derive(Debug, Clone)]
pub(crate) struct Service {
    pub spec: ServiceSpec,
    pub replicas: Vec<Replica>,
    /// Round-robin cursor used to break load ties deterministically.
    pub rr_cursor: usize,
    /// A scale-up is in flight (provisioning delay pending).
    pub scaling_in_flight: bool,
    /// Consecutive 1 s samples above the scale-up threshold.
    pub hot_seconds: u32,
    /// Consecutive 1 s samples below the scale-down threshold.
    pub cold_seconds: u32,
}

impl Service {
    pub(crate) fn new(spec: ServiceSpec, now: SimTime) -> Self {
        let replicas = (0..spec.replicas)
            .map(|_| Replica::new(spec.threads, spec.cores, now))
            .collect();
        Service {
            spec,
            replicas,
            rr_cursor: 0,
            scaling_in_flight: false,
            hot_seconds: 0,
            cold_seconds: 0,
        }
    }

    /// Picks the replica a new request should go to: least-loaded, with a
    /// rotating cursor breaking ties so equal replicas share work evenly.
    /// Draining replicas are skipped.
    pub(crate) fn pick_replica(&mut self) -> usize {
        let n = self.replicas.len();
        debug_assert!(n > 0, "service with no replicas");
        debug_assert!(self.rr_cursor < n, "replicas never shrink");
        let mut best: Option<(usize, usize)> = None; // (load, index)
        let mut idx = self.rr_cursor;
        for _ in 0..n {
            let r = &self.replicas[idx];
            if !r.draining {
                let load = r.load();
                match best {
                    Some((l, _)) if l <= load => {}
                    _ => best = Some((load, idx)),
                }
            }
            idx = if idx + 1 == n { 0 } else { idx + 1 };
        }
        let (_, idx) = best.expect("all replicas draining");
        self.rr_cursor = if idx + 1 == n { 0 } else { idx + 1 };
        idx
    }

    /// Number of replicas accepting work.
    pub(crate) fn active_replicas(&self) -> usize {
        self.replicas.iter().filter(|r| !r.draining).count()
    }

    /// Total active cores (for utilisation normalisation).
    pub(crate) fn active_cores(&self) -> u32 {
        self.replicas
            .iter()
            .filter(|r| !r.draining)
            .map(|r| r.cores)
            .sum()
    }

    /// Sum of admitted requests across replicas (thread slots in use).
    pub(crate) fn total_admitted(&self) -> u32 {
        self.replicas.iter().map(|r| r.admitted).sum()
    }

    /// Sum of requests waiting for a thread slot across replicas.
    pub(crate) fn total_waiting(&self) -> usize {
        self.replicas.iter().map(|r| r.wait_queue.len()).sum()
    }

    /// Completes a scale-up: reactivates a draining replica when one
    /// exists (cancelling its drain), otherwise adds a fresh one. Replicas
    /// are never removed from the vector — in-flight work and scheduled
    /// events reference them by index.
    pub(crate) fn add_replica(&mut self, now: SimTime) {
        if let Some(r) = self.replicas.iter_mut().find(|r| r.draining) {
            r.draining = false;
            r.update_busy(now);
            return;
        }
        self.replicas
            .push(Replica::new(self.spec.threads, self.spec.cores, now));
    }

    /// Starts draining the least-loaded non-draining replica (scale-down).
    /// Returns `false` when only one active replica remains (never drained).
    pub(crate) fn drain_one(&mut self) -> bool {
        if self.active_replicas() <= 1 {
            return false;
        }
        let idx = self
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.draining)
            .min_by_key(|(i, r)| (r.load(), *i))
            .map(|(i, _)| i)
            .expect("at least one active replica");
        self.replicas[idx].draining = true;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc(replicas: u32) -> Service {
        Service::new(
            ServiceSpec::new("s").threads(4).cores(1).replicas(replicas),
            SimTime::ZERO,
        )
    }

    #[test]
    fn pick_replica_prefers_least_loaded() {
        let mut s = svc(2);
        s.replicas[0].try_admit();
        s.replicas[0].try_admit();
        assert_eq!(s.pick_replica(), 1);
    }

    #[test]
    fn pick_replica_rotates_on_ties() {
        let mut s = svc(3);
        let first = s.pick_replica();
        let second = s.pick_replica();
        assert_ne!(first, second, "tied replicas should rotate");
    }

    #[test]
    fn pick_replica_skips_draining() {
        let mut s = svc(2);
        s.replicas[0].draining = true;
        for _ in 0..4 {
            assert_eq!(s.pick_replica(), 1);
        }
    }

    #[test]
    fn pick_replica_rotates_past_a_draining_replica() {
        // Four idle replicas, the second draining: ties rotate through the
        // active ones in index order, wrapping around the end.
        let mut s = svc(4);
        s.replicas[1].draining = true;
        let picks: Vec<usize> = (0..7).map(|_| s.pick_replica()).collect();
        assert_eq!(picks, [0, 2, 3, 0, 2, 3, 0]);
        // A busier replica is skipped without disturbing the rotation.
        s.replicas[2].try_admit();
        let picks: Vec<usize> = (0..4).map(|_| s.pick_replica()).collect();
        assert_eq!(picks, [3, 0, 3, 0]);
    }

    #[test]
    fn drain_one_keeps_last_replica() {
        let mut s = svc(2);
        assert!(s.drain_one());
        assert_eq!(s.active_replicas(), 1);
        assert!(!s.drain_one());
    }

    #[test]
    fn drained_replicas_stay_in_place() {
        // Indices must remain valid for in-flight work: draining never
        // shrinks the vector.
        let mut s = svc(2);
        s.drain_one();
        assert_eq!(s.replicas.len(), 2);
        assert_eq!(s.active_replicas(), 1);
    }

    #[test]
    fn scale_up_reactivates_draining_replica() {
        let mut s = svc(2);
        s.drain_one();
        s.add_replica(SimTime::from_secs(1));
        assert_eq!(s.replicas.len(), 2, "drain cancelled, no growth");
        assert_eq!(s.active_replicas(), 2);
        // With no draining replica, scale-up grows the vector.
        s.add_replica(SimTime::from_secs(2));
        assert_eq!(s.replicas.len(), 3);
    }

    #[test]
    fn counters_aggregate() {
        let mut s = svc(2);
        s.replicas[0].try_admit();
        s.replicas[1].try_admit();
        s.replicas[1].wait_queue.push_back((0, 0));
        assert_eq!(s.total_admitted(), 2);
        assert_eq!(s.total_waiting(), 1);
        assert_eq!(s.active_cores(), 2);
    }
}
