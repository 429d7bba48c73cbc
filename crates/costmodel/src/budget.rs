//! A thread-shared evaluation-budget ledger.
//!
//! Search procedures spend cost-model evaluations the way training spends
//! gradient steps: they are the unit of work every searcher is compared in.
//! The [`EvalBudget`] is one shared atomic ledger that several spenders
//! (batch workers, whole searches, service requests) charge against, so
//! they can be held to a *common* budget instead of each bringing its own.
//! The evaluation cache keeps no ledger: a spender charges what it decides
//! to count (the service, each run's lookups).
//!
//! The ledger is deliberately minimal: a monotone spend counter and an
//! optional cap. It never blocks or fails a lookup — enforcement is the
//! spender's job (the service admits requests with [`EvalBudget::try_admit`]
//! in submission order and refunds what a finished request did not spend).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared ledger of evaluation spend with an optional cap.
///
/// Cloning shares the ledger: every clone charges the same counter, which is
/// what makes it a *common* budget across threads and searchers.
#[derive(Debug, Clone)]
pub struct EvalBudget {
    spent: Arc<AtomicU64>,
    /// `u64::MAX` means unlimited.
    cap: u64,
}

impl EvalBudget {
    /// A ledger capped at `cap` units of spend.
    pub fn limited(cap: u64) -> Self {
        Self {
            spent: Arc::new(AtomicU64::new(0)),
            cap,
        }
    }

    /// A ledger that only accounts (never exhausts).
    pub fn unlimited() -> Self {
        Self::limited(u64::MAX)
    }

    /// Charges `amount` units and returns the total spend after the charge.
    /// Charging never fails — the ledger may go over its cap; spenders
    /// decide what to do about exhaustion at their own safe points.
    pub fn charge(&self, amount: u64) -> u64 {
        self.spent
            .fetch_add(amount, Ordering::Relaxed)
            .saturating_add(amount)
    }

    /// The admission hook: atomically charges `amount` **only if** the
    /// ledger has not yet reached its cap, returning the total spend after
    /// the charge, or `Err` with the current spend when the ledger was
    /// already exhausted. Unlike [`EvalBudget::charge`], two racing
    /// admitters cannot both slip past an exhausted cap — at most the
    /// admissions that observed spend below the cap go through (the last
    /// admitted spender may still overshoot, matching `charge` semantics).
    /// `try_admit(0)` is a pure gate: it charges nothing and reports
    /// whether a new spender would currently be admitted.
    pub fn try_admit(&self, amount: u64) -> Result<u64, u64> {
        match self
            .spent
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |spent| {
                (spent < self.cap || self.cap == u64::MAX).then(|| spent.saturating_add(amount))
            }) {
            Ok(before) => Ok(before.saturating_add(amount)),
            Err(spent) => Err(spent),
        }
    }

    /// Returns `amount` units to the ledger, saturating at zero spend. The
    /// reconciliation half of reservation-style admission: an admitter
    /// charges a cost *estimate* up front with [`EvalBudget::try_admit`]
    /// and, once the real spend is known, refunds the over-estimate (or
    /// [`EvalBudget::charge`]s the shortfall). Refunding more than was ever
    /// charged is a no-op beyond zero — the ledger never underflows into a
    /// huge unsigned spend.
    pub fn refund(&self, amount: u64) -> u64 {
        self.spent
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |spent| {
                Some(spent.saturating_sub(amount))
            })
            .expect("refund update never fails")
            .saturating_sub(amount)
    }

    /// Total units charged so far, across every clone of the ledger.
    pub fn spent(&self) -> u64 {
        self.spent.load(Ordering::Relaxed)
    }

    /// The cap, or `None` when unlimited.
    pub fn cap(&self) -> Option<u64> {
        (self.cap != u64::MAX).then_some(self.cap)
    }

    /// Units left before the cap (`None` when unlimited, 0 when overspent).
    pub fn remaining(&self) -> Option<u64> {
        self.cap().map(|cap| cap.saturating_sub(self.spent()))
    }
}

impl Default for EvalBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charging_accumulates_across_clones() {
        let ledger = EvalBudget::limited(10);
        let clone = ledger.clone();
        assert_eq!(ledger.charge(4), 4);
        assert_eq!(clone.charge(3), 7);
        assert_eq!(ledger.spent(), 7);
        assert_eq!(ledger.remaining(), Some(3));
        assert!(ledger.try_admit(0).is_ok());
        clone.charge(5);
        assert!(ledger.try_admit(0).is_err());
        assert_eq!(ledger.remaining(), Some(0));
        assert_eq!(
            EvalBudget::limited(10).spent(),
            0,
            "a new ledger is separate"
        );
    }

    #[test]
    fn try_admit_gates_at_the_cap() {
        let ledger = EvalBudget::limited(10);
        assert_eq!(ledger.try_admit(6), Ok(6));
        // Spend is below the cap, so the next admitter may still overshoot
        // (charge semantics) ...
        assert_eq!(ledger.try_admit(8), Ok(14));
        // ... but once at/over the cap nobody else is admitted, even for 0.
        assert_eq!(ledger.try_admit(1), Err(14));
        assert_eq!(ledger.try_admit(0), Err(14));
        assert_eq!(ledger.spent(), 14);
        // The unlimited ledger admits forever.
        let open = EvalBudget::unlimited();
        assert_eq!(open.try_admit(u64::MAX / 2), Ok(u64::MAX / 2));
        assert!(open.try_admit(0).is_ok());
    }

    #[test]
    fn refund_reconciles_reservations_and_saturates_at_zero() {
        let ledger = EvalBudget::limited(10);
        // Reserve an estimate, then reconcile down to the real spend.
        assert_eq!(ledger.try_admit(8), Ok(8));
        assert_eq!(ledger.refund(3), 5);
        assert_eq!(ledger.spent(), 5);
        assert_eq!(ledger.remaining(), Some(5));
        // A refund reopens admission that the reservation had closed.
        ledger.charge(5);
        assert!(ledger.try_admit(1).is_err());
        ledger.refund(1);
        assert!(ledger.try_admit(1).is_ok());
        // Saturating underflow: refunding more than was charged pins the
        // ledger at zero instead of wrapping to u64::MAX.
        let ledger = EvalBudget::limited(10);
        ledger.charge(4);
        assert_eq!(ledger.refund(100), 0);
        assert_eq!(ledger.spent(), 0);
        assert_eq!(ledger.refund(1), 0);
        assert_eq!(ledger.remaining(), Some(10));
        assert!(ledger.try_admit(2).is_ok());
    }

    #[test]
    fn unlimited_ledger_never_exhausts() {
        let ledger = EvalBudget::unlimited();
        ledger.charge(u64::MAX / 2);
        assert!(ledger.try_admit(0).is_ok());
        assert_eq!(ledger.cap(), None);
        assert_eq!(ledger.remaining(), None);
    }

    #[test]
    fn concurrent_charges_are_all_counted() {
        let ledger = EvalBudget::limited(1_000_000);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let ledger = ledger.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        ledger.charge(1);
                    }
                });
            }
        });
        assert_eq!(ledger.spent(), 4000);
    }
}
