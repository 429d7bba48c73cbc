//! The service's queue as a plain value: per-client lanes, priorities,
//! deficit-weighted round-robin, the in-flight quota, the depth bound and
//! the `paused` / `shutdown` switches — no threads, no clock, no locks. The
//! service wraps one [`Queue`] in its `Mutex` + `Condvar`; the unit tests
//! below push and pop values and assert the exact dispatch order.
//!
//! A lane exists only while its client has work: it is created by the
//! client's first [`Queue::admit`] and dropped by the [`Queue::complete`]
//! that leaves it with nothing queued and nothing in flight, so the state
//! — and the scan in [`Queue::pop`] — is O(clients with work), however many
//! client ids the outside world invents over the service's lifetime.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound::{Excluded, Included, Unbounded};

use super::ServiceConfig;

/// What the queue needs to know about an item to route and order it.
pub(super) trait Routed {
    /// Client id: items of one client share a lane (`""` = anonymous).
    fn client(&self) -> &str;
    /// Higher priorities leave their lane first.
    fn priority(&self) -> i32;
    /// Submission order: breaks priority ties first-in first-out.
    fn id(&self) -> u64;
}

/// One client's slice of the queue: its pending items, its
/// deficit-round-robin credit and its in-flight count (against the quota).
struct Lane<T> {
    client: String,
    /// Pending items by (priority, FIFO): the first entry is the highest
    /// priority's earliest submission.
    pending: BTreeMap<(Reverse<i32>, u64), T>,
    weight: u64,
    credit: u64,
    in_flight: usize,
}

/// Why [`Queue::refusal`] would turn a submit away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Refusal {
    /// [`Queue::shut_down`] was called.
    Shutdown,
    /// The queue holds its `capacity` of items already.
    Full(usize),
}

/// What the dispatcher found when it asked for work.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Popped<T> {
    /// An item to run, plus its lane (for [`Queue::complete`]).
    Job(T, u64),
    /// Items are queued but every lane with work is at its in-flight
    /// quota: wait for a completion, then try again.
    Blocked,
    /// Nothing to dispatch right now: the queue is empty, or paused.
    Idle,
    /// Shut down and drained: nothing will ever be dispatched again.
    Closed,
}

pub(super) struct Queue<T> {
    /// Lanes by id. Ids count lanes ever created, so iterating in id order
    /// is iterating in creation (first-submission) order.
    lanes: BTreeMap<u64, Lane<T>>,
    /// Client id → id of its live lane.
    index: HashMap<String, u64>,
    /// Lanes ever created — the id of the next one.
    created: u64,
    /// Deficit-round-robin scan position: the lane id to start from.
    cursor: u64,
    /// Total queued (not yet dispatched) items across all lanes.
    depth: usize,
    capacity: Option<usize>,
    quota: Option<usize>,
    weights: Vec<(String, u64)>,
    paused: bool,
    shutdown: bool,
}

impl<T: Routed> Queue<T> {
    /// An empty queue with `config`'s depth bound, in-flight quota, client
    /// weights and paused start.
    pub(super) fn new(config: &ServiceConfig) -> Self {
        Self {
            lanes: BTreeMap::new(),
            index: HashMap::new(),
            created: 0,
            cursor: 0,
            depth: 0,
            capacity: config.queue_capacity,
            quota: config.client_quota,
            weights: config.client_weights.clone(),
            paused: config.start_paused,
            shutdown: false,
        }
    }

    /// Why the next [`Queue::admit`] must not happen, if anything.
    pub(super) fn refusal(&self) -> Option<Refusal> {
        if self.shutdown {
            return Some(Refusal::Shutdown);
        }
        self.capacity
            .filter(|capacity| self.depth >= *capacity)
            .map(Refusal::Full)
    }

    /// Queues `item` in its client's lane (created on first use with its
    /// configured weight) and returns the lane id. The caller has checked
    /// [`Queue::refusal`].
    pub(super) fn admit(&mut self, item: T) -> u64 {
        let id = match self.index.get(item.client()) {
            Some(&id) => id,
            None => {
                let client = item.client().to_string();
                let weight = self
                    .weights
                    .iter()
                    .find(|(name, _)| *name == client)
                    .map_or(1, |(_, w)| *w)
                    .max(1);
                let id = self.created;
                self.created += 1;
                self.index.insert(client.clone(), id);
                self.lanes.insert(
                    id,
                    Lane {
                        client,
                        pending: BTreeMap::new(),
                        weight,
                        credit: 0,
                        in_flight: 0,
                    },
                );
                id
            }
        };
        let lane = self.lanes.get_mut(&id).expect("indexed lane");
        lane.pending
            .insert((Reverse(item.priority()), item.id()), item);
        self.depth += 1;
        id
    }

    /// Deficit-weighted round-robin dispatch. Pass 0 serves the first
    /// lane (from the cursor) that has queued work, remaining credit and
    /// quota headroom; if none has credit, every eligible lane is
    /// replenished by its weight (capped at twice the weight so an idle
    /// heavy client cannot bank an unbounded burst) and pass 1 serves. A
    /// lane drained empty forfeits its credit — deficit round-robin's
    /// classic rule, keeping long-idle lanes from hoarding turns. A paused
    /// queue dispatches nothing until it is resumed or shut down: shutdown
    /// drains whatever is queued, paused or not.
    pub(super) fn pop(&mut self) -> Popped<T> {
        if self.depth == 0 && self.shutdown {
            return Popped::Closed;
        }
        if self.depth == 0 || (self.paused && !self.shutdown) {
            return Popped::Idle;
        }
        let (quota, cursor) = (self.quota, self.cursor);
        let at_quota = |lane: &Lane<T>| quota.is_some_and(|q| lane.in_flight >= q);
        for pass in 0..2 {
            // From the cursor to the last lane, then around to the cursor.
            for bounds in [(Included(cursor), Unbounded), (Unbounded, Excluded(cursor))] {
                for (&id, lane) in self.lanes.range_mut(bounds) {
                    if lane.pending.is_empty() {
                        lane.credit = 0;
                        continue;
                    }
                    if at_quota(lane) || lane.credit == 0 {
                        continue;
                    }
                    lane.credit -= 1;
                    lane.in_flight += 1;
                    let (_, item) = lane.pending.pop_first().expect("non-empty lane");
                    self.depth -= 1;
                    self.cursor = id + 1;
                    return Popped::Job(item, id);
                }
            }
            if pass == 0 {
                let mut eligible = false;
                for lane in self.lanes.values_mut() {
                    if lane.pending.is_empty() || at_quota(lane) {
                        continue;
                    }
                    lane.credit = (lane.credit + lane.weight).min(lane.weight.saturating_mul(2));
                    eligible = true;
                }
                if !eligible {
                    return Popped::Blocked;
                }
            }
        }
        // Unreachable: a replenished lane has credit >= 1 and pass 1
        // serves it; kept as a safe fallback.
        Popped::Blocked
    }

    /// An item popped from `lane` has left the service. A lane left with
    /// nothing queued and nothing in flight is dropped: it holds nothing a
    /// new lane would not have (a drained lane forfeits its credit anyway,
    /// its weight is a function of the configuration).
    pub(super) fn complete(&mut self, lane: u64) {
        let state = self.lanes.get_mut(&lane).expect("a lane in flight is live");
        state.in_flight -= 1;
        if state.in_flight == 0 && state.pending.is_empty() {
            let retired = self.lanes.remove(&lane).expect("checked above");
            self.index.remove(&retired.client);
        }
    }

    /// Queued (not yet dispatched) items.
    pub(super) fn depth(&self) -> usize {
        self.depth
    }

    /// Distinct client lanes ever created (monotone: retirement and
    /// re-creation of a returning client's lane counts again).
    pub(super) fn clients(&self) -> u64 {
        self.created
    }

    /// Stops ([`Queue::pop`] answers `Idle`) or restarts dispatching.
    pub(super) fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// Begins shutdown — admission closes, dispatch drains — and returns
    /// whether it had begun already.
    pub(super) fn shut_down(&mut self) -> bool {
        std::mem::replace(&mut self.shutdown, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(client, id, priority)`: the smallest thing the queue can route.
    #[derive(Debug, PartialEq, Eq)]
    struct Item(String, u64, i32);

    fn item(client: &str, id: u64, priority: i32) -> Item {
        Item(client.to_string(), id, priority)
    }

    impl Routed for Item {
        fn client(&self) -> &str {
            &self.0
        }

        fn priority(&self) -> i32 {
            self.2
        }

        fn id(&self) -> u64 {
            self.1
        }
    }

    /// The dispatcher alone — no workers, no clock: three lanes (weights
    /// 3 / 1 / 1), an in-flight quota of 2, mixed priorities, and the exact
    /// `(lane, job id)` sequence they pop in.
    #[test]
    fn dispatch_order_is_pinned() {
        let config = ServiceConfig::quick().with_unbounded_queue();
        let mut state = Queue::new(&config.with_client_quota(2).with_client_weight("a", 3));
        let push = |state: &mut Queue<Item>, client: &str, id: u64, priority: i32| {
            state.admit(item(client, id, priority));
        };
        let pop = |state: &mut Queue<Item>| match state.pop() {
            Popped::Job(job, lane) => Ok((lane, job.1)),
            Popped::Blocked => Err("blocked"),
            Popped::Idle => Err("idle"),
            Popped::Closed => Err("closed"),
        };
        let done = |state: &mut Queue<Item>, lane: u64| state.complete(lane);
        let (a, b, c) = (0, 1, 2);

        for (client, id, priority) in [
            ("a", 0, 0),
            ("b", 1, 0),
            ("a", 2, 5),
            ("c", 3, 0),
            ("a", 4, 0),
            ("b", 5, 9),
            ("a", 6, 0),
            ("c", 7, 0),
        ] {
            push(&mut state, client, id, priority);
        }
        // One replenish (3 / 1 / 1) serves a round; `a` keeps two credits
        // and spends one more before its quota closes it; priorities lead
        // inside a lane, submission order breaks their ties.
        assert_eq!(pop(&mut state), Ok((a, 2)));
        assert_eq!(pop(&mut state), Ok((b, 5)));
        assert_eq!(pop(&mut state), Ok((c, 3)));
        assert_eq!(pop(&mut state), Ok((a, 0)));
        assert_eq!(pop(&mut state), Ok((b, 1)));
        assert_eq!(pop(&mut state), Ok((c, 7)));
        // `a` still queues 4 and 6 but has two in flight; `b` and `c` are
        // drained: work is queued and nobody may take it.
        assert_eq!(pop(&mut state), Err("blocked"));
        done(&mut state, a);
        assert_eq!(pop(&mut state), Ok((a, 4)));
        assert_eq!(pop(&mut state), Err("blocked"));
        done(&mut state, a);
        // A fresh replenish: `a` pops its last job with two credits left.
        assert_eq!(pop(&mut state), Ok((a, 6)));
        assert_eq!(pop(&mut state), Err("idle"));

        // The scan that serves `b` passes the drained `a`, which forfeits
        // those two credits ...
        done(&mut state, b);
        push(&mut state, "b", 8, 0);
        assert_eq!(pop(&mut state), Ok((b, 8)));
        // ... so when `a` and `c` both have work again, `a` has nothing
        // banked to jump the cursor with: `c` goes first.
        done(&mut state, a);
        done(&mut state, c);
        push(&mut state, "a", 9, 0);
        push(&mut state, "c", 10, 0);
        assert_eq!(pop(&mut state), Ok((c, 10)));
        assert_eq!(pop(&mut state), Ok((a, 9)));
        assert_eq!(pop(&mut state), Err("idle"));
        assert_eq!(state.depth(), 0);
    }

    /// Client ids arrive from outside; they must not grow the queue.
    #[test]
    fn one_shot_clients_leave_no_lane_behind() {
        let name = |i: u64| format!("client-{i}");
        let config = ServiceConfig::quick().with_unbounded_queue();
        let mut queue = Queue::new(&config.with_client_quota(1));
        for id in 0..10_000 {
            queue.admit(item(&name(id), id, 0));
        }
        assert_eq!((queue.lanes.len(), queue.depth()), (10_000, 10_000));
        for id in 0..10_000 {
            // Equal weights, one job each: creation order.
            assert_eq!(queue.pop(), Popped::Job(item(&name(id), id, 0), id));
        }
        assert_eq!(queue.lanes.len(), 10_000, "in flight: every lane is live");
        (0..10_000).for_each(|lane| queue.complete(lane));
        assert_eq!((queue.lanes.len(), queue.index.len()), (0, 0));
        assert_eq!(
            queue.clients(),
            10_000,
            "`clients` counts lanes ever created"
        );

        // One busy client among the 10 000 retired: the dispatcher's scan
        // is over the one lane that exists.
        queue.admit(item("busy", 10_000, 0));
        queue.admit(item("busy", 10_001, 0));
        assert_eq!(queue.lanes.len(), 1);
        assert_eq!(queue.pop(), Popped::Job(item("busy", 10_000, 0), 10_000));
        assert_eq!(queue.pop(), Popped::Blocked, "quota 1");
        // Still queued work: completing does not retire the lane.
        queue.complete(10_000);
        assert_eq!(queue.pop(), Popped::Job(item("busy", 10_001, 0), 10_000));
        queue.complete(10_000);
        assert_eq!(queue.lanes.len(), 0);
        // A returning client is a new lane: counted again, at the back.
        queue.admit(item(&name(0), 10_002, 0));
        assert_eq!(queue.clients(), 10_002);
        assert_eq!(queue.pop(), Popped::Job(item(&name(0), 10_002, 0), 10_001));
    }

    #[test]
    fn capacity_pause_and_shutdown_gate_admission_and_dispatch() {
        let mut queue = Queue::new(&ServiceConfig::quick().with_queue_capacity(2).paused());
        assert_eq!(queue.pop(), Popped::Idle, "empty");
        queue.admit(item("", 0, 0));
        assert_eq!(queue.refusal(), None);
        queue.admit(item("", 1, 7));
        assert_eq!(queue.refusal(), Some(Refusal::Full(2)));
        assert_eq!(queue.pop(), Popped::Idle, "paused");
        queue.set_paused(false);
        assert_eq!(queue.pop(), Popped::Job(item("", 1, 7), 0));
        assert_eq!(queue.refusal(), None, "the bound is on queued items");
        queue.set_paused(true);
        // Shutdown closes admission and drains the queue, paused or not.
        assert!(!queue.shut_down());
        assert!(queue.shut_down(), "already begun");
        assert_eq!(queue.refusal(), Some(Refusal::Shutdown));
        assert_eq!(queue.pop(), Popped::Job(item("", 0, 0), 0));
        assert_eq!(queue.pop(), Popped::Closed);
    }
}
