//! The in-flight assignments, with their deadlines kept in order.
//!
//! The scheduler's wakeup term needs the earliest active deadline on every
//! request the live engine handles, and every poll needs the assignments
//! whose grace window has run out. Both used to scan the whole map; at a
//! few hundred in flight that scan was a measurable share of a task. The
//! deadlines are therefore indexed beside the map — as the lease table
//! keeps its earliest expiry — so the wakeup term reads the first entry
//! and expiry touches only what is due. The fields are private: every
//! insertion and removal goes through here, which is what keeps the two
//! views in step.

use std::collections::{BTreeMap, BTreeSet};

use senseaid_sim::{SimDuration, SimTime};

use crate::coordinator::ActiveRequest;
use crate::request::RequestId;

#[derive(Debug, Default)]
pub(crate) struct ActiveSet {
    by_id: BTreeMap<RequestId, ActiveRequest>,
    by_deadline: BTreeSet<(SimTime, RequestId)>,
}

impl ActiveSet {
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    pub fn get(&self, id: RequestId) -> Option<&ActiveRequest> {
        self.by_id.get(&id)
    }

    /// Mutable access to one entry. A request's deadline never changes
    /// while it is in flight, so the index stays valid.
    pub fn get_mut(&mut self, id: RequestId) -> Option<&mut ActiveRequest> {
        self.by_id.get_mut(&id)
    }

    /// Entries in ascending request-id order.
    pub fn iter(&self) -> impl Iterator<Item = (RequestId, &ActiveRequest)> {
        self.by_id.iter().map(|(id, a)| (*id, a))
    }

    /// Mutable entries in ascending request-id order (see
    /// [`get_mut`](Self::get_mut)).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (RequestId, &mut ActiveRequest)> {
        self.by_id.iter_mut().map(|(id, a)| (*id, a))
    }

    pub fn insert(&mut self, id: RequestId, active: ActiveRequest) {
        let deadline = active.request.deadline();
        if let Some(old) = self.by_id.insert(id, active) {
            self.by_deadline.remove(&(old.request.deadline(), id));
        }
        self.by_deadline.insert((deadline, id));
    }

    pub fn remove(&mut self, id: RequestId) -> Option<ActiveRequest> {
        let active = self.by_id.remove(&id)?;
        self.by_deadline.remove(&(active.request.deadline(), id));
        Some(active)
    }

    /// Keeps only the entries `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(&ActiveRequest) -> bool) {
        let by_deadline = &mut self.by_deadline;
        self.by_id.retain(|id, active| {
            let kept = keep(active);
            if !kept {
                by_deadline.remove(&(active.request.deadline(), *id));
            }
            kept
        });
    }

    /// Empties the set, handing back its entries in request-id order.
    pub fn take_all(&mut self) -> impl Iterator<Item = (RequestId, ActiveRequest)> {
        std::mem::take(self).by_id.into_iter()
    }

    /// The earliest deadline of any in-flight assignment.
    pub fn earliest_deadline(&self) -> Option<SimTime> {
        self.by_deadline.first().map(|&(deadline, _)| deadline)
    }

    /// The assignments whose deadline plus `grace` has passed at `now`, in
    /// ascending request-id order (the order a scan of the map yields).
    pub fn overdue(&self, grace: SimDuration, now: SimTime) -> Vec<RequestId> {
        let mut ids: Vec<RequestId> = self
            .by_deadline
            .iter()
            .take_while(|&&(deadline, _)| deadline + grace <= now)
            .map(|&(_, id)| id)
            .collect();
        ids.sort_unstable();
        ids
    }
}
