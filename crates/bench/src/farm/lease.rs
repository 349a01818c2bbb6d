//! The lease table: a pure, clock-injected state machine over a fixed
//! set of cells.
//!
//! Every method takes `now: Instant` instead of reading the clock, so
//! expiry, stolen-completion, and heartbeat semantics are testable
//! deterministically — the satellite tests replay whole worker-crash
//! scenarios without sleeping.
//!
//! Cell lifecycle:
//!
//! ```text
//!           grant                complete(Fresh|Stolen)
//! Pending ────────▶ Leased ──────────────────────────▶ Done
//!    ▲                │  fail (live lease)
//!    │   deadline     │──────────────────▶ Failed
//!    └────────────────┘
//!        (expiry re-queues the cell; the stale lease id lives on
//!         only as a potential Stolen/Duplicate completion)
//! ```

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use ril_serve::farm::LeaseGrant;

use crate::cache::CacheKey;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellState {
    Pending,
    Leased,
    Done,
    Failed,
}

#[derive(Debug)]
struct Active {
    cell: usize,
    deadline: Instant,
    issued: Instant,
}

/// How the table disposed of a completion (or failure) report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Settle {
    /// The lease was live and matched: the cell is now settled, and the
    /// payload should be persisted. Carries the lease-to-completion
    /// wall time as observed by the coordinator.
    Fresh(Duration),
    /// The lease had expired (or was superseded), but no peer had
    /// finished the cell yet — the late result still wins and should be
    /// persisted.
    Stolen,
    /// The cell was already settled by someone else; the payload must
    /// be dropped (first write wins).
    Duplicate,
    /// The key is not one of this sweep's cells, or does not match the
    /// lease it claims — a worker bug; nothing changes.
    Unknown,
}

/// A snapshot of cell states, for status lines and end-of-phase checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarmCounts {
    /// Cells waiting for a lease.
    pub pending: usize,
    /// Cells currently out under a live lease.
    pub leased: usize,
    /// Cells completed with a persisted payload.
    pub done: usize,
    /// Cells permanently failed (reported by a live leaseholder).
    pub failed: usize,
}

impl FarmCounts {
    /// Total number of cells in the sweep.
    #[must_use]
    pub fn total(&self) -> usize {
        self.pending + self.leased + self.done + self.failed
    }

    /// Whether every cell has reached a terminal state.
    #[must_use]
    pub fn settled(&self) -> bool {
        self.pending == 0 && self.leased == 0
    }
}

/// The coordinator's ledger of cells and outstanding leases.
pub struct LeaseTable {
    keys: Vec<CacheKey>,
    state: Vec<CellState>,
    by_key: HashMap<String, usize>,
    pending: VecDeque<usize>,
    active: HashMap<u64, Active>,
    next_id: u64,
    lease: Duration,
}

impl LeaseTable {
    /// A fresh table over `keys`, all pending, with the given lease
    /// duration. Duplicate keys collapse to one cell.
    #[must_use]
    pub fn new(keys: Vec<CacheKey>, lease: Duration) -> LeaseTable {
        let mut table = LeaseTable {
            keys: Vec::new(),
            state: Vec::new(),
            by_key: HashMap::new(),
            pending: VecDeque::new(),
            active: HashMap::new(),
            next_id: 1,
            lease,
        };
        for key in keys {
            if table.by_key.contains_key(key.canonical()) {
                continue;
            }
            let idx = table.keys.len();
            table.by_key.insert(key.canonical().to_string(), idx);
            table.keys.push(key);
            table.state.push(CellState::Pending);
            table.pending.push_back(idx);
        }
        table
    }

    /// The configured lease duration.
    #[must_use]
    pub fn lease_duration(&self) -> Duration {
        self.lease
    }

    /// Expires every lease whose deadline has passed, re-queueing its
    /// cell at the front (crashed workers' cells should not wait behind
    /// the whole backlog). Returns how many leases expired.
    pub fn expire(&mut self, now: Instant) -> usize {
        let overdue: Vec<u64> = self
            .active
            .iter()
            .filter(|(_, a)| a.deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in &overdue {
            if let Some(a) = self.active.remove(id) {
                if self.state[a.cell] == CellState::Leased {
                    self.state[a.cell] = CellState::Pending;
                    self.pending.push_front(a.cell);
                }
            }
        }
        overdue.len()
    }

    /// Grants up to `max` leases, expiring overdue leases first. The
    /// second tuple element is the number of expiries.
    pub fn grant(&mut self, max: usize, now: Instant) -> (Vec<LeaseGrant>, usize) {
        let expired = self.expire(now);
        let mut grants = Vec::new();
        while grants.len() < max {
            let Some(cell) = self.pending.pop_front() else {
                break;
            };
            self.state[cell] = CellState::Leased;
            let id = self.next_id;
            self.next_id += 1;
            self.active.insert(
                id,
                Active {
                    cell,
                    deadline: now + self.lease,
                    issued: now,
                },
            );
            grants.push(LeaseGrant {
                lease_id: id,
                key: self.keys[cell].canonical().to_string(),
            });
        }
        (grants, expired)
    }

    /// Settles a completion report for `(lease_id, key)`.
    pub fn complete(&mut self, lease_id: u64, key: &str, now: Instant) -> Settle {
        self.expire(now);
        let Some(&cell) = self.by_key.get(key) else {
            return Settle::Unknown;
        };
        if let Some(a) = self.active.get(&lease_id) {
            if a.cell != cell {
                return Settle::Unknown;
            }
            let a = self.active.remove(&lease_id).expect("checked above");
            self.state[cell] = CellState::Done;
            return Settle::Fresh(now.saturating_duration_since(a.issued));
        }
        // The lease is gone (expired, or this is a replay). The result
        // still wins the cell if nobody else settled it.
        match self.state[cell] {
            CellState::Pending | CellState::Leased => {
                // A peer may hold a re-issued lease on this cell; cancel
                // it so its eventual completion lands as Duplicate.
                let superseded: Vec<u64> = self
                    .active
                    .iter()
                    .filter(|(_, a)| a.cell == cell)
                    .map(|(&id, _)| id)
                    .collect();
                for id in superseded {
                    self.active.remove(&id);
                }
                if self.state[cell] == CellState::Pending {
                    self.pending.retain(|&c| c != cell);
                }
                self.state[cell] = CellState::Done;
                Settle::Stolen
            }
            CellState::Done | CellState::Failed => Settle::Duplicate,
        }
    }

    /// Settles a failure report. Only a live, matching leaseholder can
    /// fail a cell permanently — a stale failure is ignored (a peer may
    /// yet succeed). Returns `true` if the cell was retired now.
    pub fn fail(&mut self, lease_id: u64, key: &str, now: Instant) -> bool {
        self.expire(now);
        let matches = self
            .active
            .get(&lease_id)
            .is_some_and(|a| self.keys[a.cell].canonical() == key);
        if !matches {
            return false;
        }
        let a = self.active.remove(&lease_id).expect("checked above");
        self.state[a.cell] = CellState::Failed;
        true
    }

    /// Renews the given leases' deadlines. Returns `(renewed, lost)` —
    /// a lease is lost when it already expired or was superseded; the
    /// worker should abandon that cell.
    pub fn heartbeat(&mut self, lease_ids: &[u64], now: Instant) -> (Vec<u64>, Vec<u64>) {
        self.expire(now);
        let mut renewed = Vec::new();
        let mut lost = Vec::new();
        for &id in lease_ids {
            match self.active.get_mut(&id) {
                Some(a) => {
                    a.deadline = now + self.lease;
                    renewed.push(id);
                }
                None => lost.push(id),
            }
        }
        (renewed, lost)
    }

    /// Current cell-state tallies.
    #[must_use]
    pub fn counts(&self) -> FarmCounts {
        let mut c = FarmCounts {
            pending: 0,
            leased: 0,
            done: 0,
            failed: 0,
        };
        for s in &self.state {
            match s {
                CellState::Pending => c.pending += 1,
                CellState::Leased => c.leased += 1,
                CellState::Done => c.done += 1,
                CellState::Failed => c.failed += 1,
            }
        }
        c
    }

    /// Whether every cell has reached `Done` or `Failed`.
    #[must_use]
    pub fn is_settled(&self) -> bool {
        self.counts().settled()
    }

    /// The canonical keys of cells that did **not** finish `Done` —
    /// the driver computes these locally after the farm phase.
    #[must_use]
    pub fn unfinished(&self) -> Vec<CacheKey> {
        self.keys
            .iter()
            .zip(&self.state)
            .filter(|(_, s)| **s != CellState::Done)
            .map(|(k, _)| k.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<CacheKey> {
        (0..n)
            .map(|i| CacheKey::new("test").field("cell", i))
            .collect()
    }

    #[test]
    fn leases_expire_and_cells_are_reissued() {
        let t0 = Instant::now();
        let mut table = LeaseTable::new(keys(2), Duration::from_secs(10));
        let (grants, _) = table.grant(2, t0);
        assert_eq!(grants.len(), 2);
        assert_eq!(table.counts().leased, 2);

        // Heartbeat inside the window renews; nothing expires.
        let ids: Vec<u64> = grants.iter().map(|g| g.lease_id).collect();
        let (renewed, lost) = table.heartbeat(&ids, t0 + Duration::from_secs(5));
        assert_eq!((renewed.len(), lost.len()), (2, 0));

        // Silence past the renewed deadline: both leases expire and the
        // cells go back to pending, claimable by a peer.
        let late = t0 + Duration::from_secs(16);
        let (regrants, expired) = table.grant(2, late);
        assert_eq!(expired, 2);
        assert_eq!(regrants.len(), 2);
        let mut rekeys: Vec<String> = regrants.iter().map(|g| g.key.clone()).collect();
        let mut keys: Vec<String> = grants.iter().map(|g| g.key.clone()).collect();
        rekeys.sort();
        keys.sort();
        assert_eq!(
            rekeys, keys,
            "the same cells come back, re-issued under new lease ids"
        );
        assert!(regrants.iter().all(|g| !ids.contains(&g.lease_id)));
    }

    #[test]
    fn duplicate_completion_is_idempotent_and_counted() {
        let t0 = Instant::now();
        let mut table = LeaseTable::new(keys(1), Duration::from_secs(10));
        let (g, _) = table.grant(1, t0);
        let key = g[0].key.clone();

        let first = table.complete(g[0].lease_id, &key, t0 + Duration::from_secs(1));
        assert!(matches!(first, Settle::Fresh(d) if d == Duration::from_secs(1)));
        assert!(table.is_settled());

        // The same report again (network replay): dropped as Duplicate.
        let again = table.complete(g[0].lease_id, &key, t0 + Duration::from_secs(2));
        assert_eq!(again, Settle::Duplicate);
        assert_eq!(table.counts().done, 1);
    }

    #[test]
    fn late_completion_steals_the_cell_and_supersedes_the_reissue() {
        let t0 = Instant::now();
        let mut table = LeaseTable::new(keys(1), Duration::from_secs(10));
        let (g0, _) = table.grant(1, t0);

        // w0 goes silent; the cell is re-leased to w1.
        let late = t0 + Duration::from_secs(11);
        let (g1, expired) = table.grant(1, late);
        assert_eq!(expired, 1);
        assert_eq!(g1.len(), 1);

        // w0's completion arrives after expiry but before w1 finishes:
        // it wins the cell (Stolen) and cancels w1's lease.
        let settle = table.complete(g0[0].lease_id, &g0[0].key, late + Duration::from_secs(1));
        assert_eq!(settle, Settle::Stolen);
        assert!(table.is_settled());

        // w1's completion now lands as Duplicate, and its heartbeat
        // reports the lease as lost.
        let settle = table.complete(g1[0].lease_id, &g1[0].key, late + Duration::from_secs(2));
        assert_eq!(settle, Settle::Duplicate);
        let (renewed, lost) = table.heartbeat(&[g1[0].lease_id], late + Duration::from_secs(2));
        assert!(renewed.is_empty());
        assert_eq!(lost, vec![g1[0].lease_id]);
    }

    #[test]
    fn only_live_leaseholders_can_fail_a_cell() {
        let t0 = Instant::now();
        let mut table = LeaseTable::new(keys(1), Duration::from_secs(10));
        let (g, _) = table.grant(1, t0);

        // A stale failure (after expiry) is ignored; the cell is pending
        // again and a peer can still succeed.
        assert!(!table.fail(g[0].lease_id, &g[0].key, t0 + Duration::from_secs(11)));
        assert_eq!(table.counts().pending, 1);

        // A live leaseholder's failure retires the cell.
        let (g2, _) = table.grant(1, t0 + Duration::from_secs(12));
        assert!(table.fail(g2[0].lease_id, &g2[0].key, t0 + Duration::from_secs(13)));
        assert!(table.is_settled());
        assert_eq!(table.counts().failed, 1);
        assert_eq!(
            table.unfinished().len(),
            1,
            "failed cells need local compute"
        );
    }

    #[test]
    fn unknown_keys_and_mismatched_leases_change_nothing() {
        let t0 = Instant::now();
        let mut table = LeaseTable::new(keys(2), Duration::from_secs(10));
        let (g, _) = table.grant(2, t0);
        assert_eq!(
            table.complete(g[0].lease_id, "v1|exp=bogus", t0),
            Settle::Unknown
        );
        // Lease id 1 paired with lease 2's key: rejected.
        assert_eq!(
            table.complete(g[0].lease_id, &g[1].key, t0),
            Settle::Unknown
        );
        assert_eq!(table.counts().leased, 2);
    }
}
