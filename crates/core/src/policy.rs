//! The pluggable selection-policy boundary.
//!
//! The paper's scored selector (§3.2) is one way to answer "which of the
//! qualified devices serve this request?". The comparison frameworks
//! answer it differently — Periodic and PCS have *every* qualified device
//! sense. [`SelectionPolicy`] abstracts that decision so the baselines in
//! `senseaid-baselines` can plug into the same server shell the real
//! middleware uses, and ablations can swap policies without forking the
//! control plane.

use std::fmt;

use senseaid_device::ImeiHash;
use senseaid_sim::SimTime;

use crate::request::Request;
use crate::selector::{
    DeviceSelector, HardCutoffs, InsufficientDevices, SelectFold, SelectorWeights,
};
use crate::store::CandidateRow;

/// Decides which qualified devices serve a request.
///
/// A policy is consulted in one of two forms. A *slice* policy receives
/// every qualified candidate at once, in ascending IMEI-hash order
/// regardless of how many shards they were gathered from, so one that
/// decides deterministically over that order keeps the whole control plane
/// deterministic for any shard count. A *fold* policy (see
/// [`fold`](Self::fold)) instead takes the rows one at a time, in whatever
/// order the shards walk them. Policies that need mutable state can use
/// interior mutability.
pub trait SelectionPolicy: fmt::Debug + Send + Sync {
    /// The policy in streaming form: a [`SelectFold`] the control plane
    /// pushes each qualified row into — no candidate slice is built, sorted
    /// or merged — and then asks for the selection, the best-effort subset
    /// and the promotion probes, all from that one pass.
    ///
    /// Returning a fold *is* the declaration that the policy's answers
    /// depend only on the set of candidates, never on their order. The
    /// default is `None`: order-sensitivity is assumed, and the slice
    /// methods below see the canonical ascending-IMEI slice.
    /// [`ScoredPolicy`] returns one: its selection is a total-order top-k
    /// over `(score, imei)` and everything else it reports is a count.
    fn fold(&self, _request: &Request, _now: SimTime) -> Option<SelectFold> {
        None
    }

    /// Picks the devices to serve `request`, or reports the shortfall that
    /// should park it in the wait queue.
    ///
    /// # Errors
    ///
    /// [`InsufficientDevices`] when the policy cannot field a viable set;
    /// the request is then parked in the wait queue (`n > N`).
    fn select(
        &self,
        request: &Request,
        candidates: &[CandidateRow],
        now: SimTime,
    ) -> Result<Vec<ImeiHash>, InsufficientDevices>;

    /// Whether [`select`](Self::select) would succeed for `request` over
    /// `candidates`, without committing to a selection.
    ///
    /// The wait-queue recheck uses this to decide whether a parked
    /// request is worth promoting back to the run queue, so it must not
    /// answer `true` when `select` would fail: an optimistic answer
    /// promotes the request only for selection to park it again, and an
    /// event-driven driver would then re-poll the same instant forever.
    /// The default dry-runs `select`; policies with cheap eligibility
    /// rules should override it (see [`ScoredPolicy`]).
    fn would_select(&self, request: &Request, candidates: &[CandidateRow], now: SimTime) -> bool {
        self.select(request, candidates, now).is_ok()
    }

    /// Best-effort selection for degraded mode: like
    /// [`select`](Self::select) but may return *fewer* than the request's
    /// density when supply is short. An empty vector means no candidate is
    /// currently serviceable at all and the request should stay parked.
    ///
    /// The default only serves full selections (so policies that never
    /// opted into partial service keep their strict semantics);
    /// [`ScoredPolicy`] overrides it to score and take the best available
    /// subset.
    fn select_partial(
        &self,
        request: &Request,
        candidates: &[CandidateRow],
        now: SimTime,
    ) -> Vec<ImeiHash> {
        self.select(request, candidates, now).unwrap_or_default()
    }

    /// Whether [`select_partial`](Self::select_partial) would return any
    /// device at all. The wait-queue recheck uses this to decide whether a
    /// degraded task's parked request is worth promoting; like
    /// [`would_select`](Self::would_select) it must not answer `true` when
    /// the real call would come back empty.
    fn would_select_partial(
        &self,
        request: &Request,
        candidates: &[CandidateRow],
        now: SimTime,
    ) -> bool {
        !self.select_partial(request, candidates, now).is_empty()
    }
}

/// One entry the shed policy weighs when a wait queue overflows: the
/// request plus how many devices currently qualify for it (its supply).
#[derive(Debug, Clone, Copy)]
pub struct ShedCandidate<'a> {
    /// The parked (or incoming) request.
    pub request: &'a Request,
    /// Qualified devices available to it right now.
    pub qualified: usize,
}

impl ShedCandidate<'_> {
    /// How many more qualified devices the request still needs — zero
    /// when supply already covers its density.
    pub fn deficit(&self) -> usize {
        self.request.density().saturating_sub(self.qualified)
    }
}

/// Decides which request to sacrifice when the wait queue is at its
/// configured bound: either the incoming request or one already parked.
///
/// `parked` is sorted by the global queue key `(deadline, sample_at, id)`
/// regardless of shard layout, so a policy that decides deterministically
/// over that order keeps shedding byte-identical for any shard count. The
/// returned id must be the incoming request's or one of the parked ones.
pub trait ShedPolicy: fmt::Debug + Send + Sync {
    /// Picks the victim to shed.
    fn choose_victim(
        &self,
        incoming: &ShedCandidate<'_>,
        parked: &[ShedCandidate<'_>],
        now: SimTime,
    ) -> crate::request::RequestId;
}

/// The built-in shed policies by name, for `Copy`/serializable config
/// surfaces (harness options, experiment sweeps) that cannot carry a
/// boxed trait object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicyKind {
    /// [`DropNewest`].
    #[default]
    DropNewest,
    /// [`DropLowestDeficit`].
    DropLowestDeficit,
    /// [`DeadlineAware`].
    DeadlineAware,
}

impl ShedPolicyKind {
    /// The policy object this name denotes.
    pub fn boxed(self) -> Box<dyn ShedPolicy> {
        match self {
            ShedPolicyKind::DropNewest => Box::new(DropNewest),
            ShedPolicyKind::DropLowestDeficit => Box::new(DropLowestDeficit),
            ShedPolicyKind::DeadlineAware => Box::new(DeadlineAware),
        }
    }

    /// Short display label for experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            ShedPolicyKind::DropNewest => "drop-newest",
            ShedPolicyKind::DropLowestDeficit => "drop-lowest-deficit",
            ShedPolicyKind::DeadlineAware => "deadline-aware",
        }
    }
}

/// Tail-drop: the incoming request is shed, everything already parked
/// keeps its place. The simplest policy and the default.
#[derive(Debug, Clone, Copy, Default)]
pub struct DropNewest;

impl ShedPolicy for DropNewest {
    fn choose_victim(
        &self,
        incoming: &ShedCandidate<'_>,
        _parked: &[ShedCandidate<'_>],
        _now: SimTime,
    ) -> crate::request::RequestId {
        incoming.request.id()
    }
}

/// Sheds the candidate with the lowest density deficit (ties broken
/// towards the newest id). A near-zero-deficit request parks only
/// transiently — its shortfall is about to clear, and its task's
/// subsequent requests cover the same region — while a high-deficit
/// request represents an under-covered area whose only chance of being
/// served is to keep waiting for supply.
#[derive(Debug, Clone, Copy, Default)]
pub struct DropLowestDeficit;

impl ShedPolicy for DropLowestDeficit {
    fn choose_victim(
        &self,
        incoming: &ShedCandidate<'_>,
        parked: &[ShedCandidate<'_>],
        _now: SimTime,
    ) -> crate::request::RequestId {
        std::iter::once(incoming)
            .chain(parked)
            .min_by_key(|c| (c.deficit(), u64::MAX - c.request.id().0))
            .expect("incoming always present")
            .request
            .id()
    }
}

/// Sheds the candidate with the least slack — the earliest deadline, by
/// the global queue key. Under sustained overload that request would most
/// likely have expired unserved anyway, so dropping it costs the least
/// expected goodput.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeadlineAware;

impl ShedPolicy for DeadlineAware {
    fn choose_victim(
        &self,
        incoming: &ShedCandidate<'_>,
        parked: &[ShedCandidate<'_>],
        _now: SimTime,
    ) -> crate::request::RequestId {
        std::iter::once(incoming)
            .chain(parked)
            .min_by_key(|c| {
                (
                    c.request.deadline(),
                    c.request.sample_at(),
                    c.request.id().0,
                )
            })
            .expect("incoming always present")
            .request
            .id()
    }
}

/// The paper's device selector as a policy: score every eligible candidate
/// with `Score(i) = α·E + β·U + γ·(100 − CBL) + φ·TTL + ρ·(1 − R)` (lower
/// wins) and take the `spatial_density` best.
#[derive(Debug, Clone)]
pub struct ScoredPolicy {
    selector: DeviceSelector,
}

impl ScoredPolicy {
    /// A policy over the given weights and hard cutoffs.
    pub fn new(weights: SelectorWeights, cutoffs: HardCutoffs) -> Self {
        ScoredPolicy {
            selector: DeviceSelector::new(weights, cutoffs),
        }
    }

    /// The underlying selector.
    pub fn selector(&self) -> &DeviceSelector {
        &self.selector
    }
}

impl ScoredPolicy {
    /// The fold, run over a slice.
    fn fold_slice(
        &self,
        request: &Request,
        candidates: &[CandidateRow],
        now: SimTime,
    ) -> SelectFold {
        let mut fold = self.selector.fold(request.density(), now);
        for row in candidates {
            fold.push(row);
        }
        fold
    }
}

impl SelectionPolicy for ScoredPolicy {
    fn fold(&self, request: &Request, now: SimTime) -> Option<SelectFold> {
        Some(self.selector.fold(request.density(), now))
    }

    fn select(
        &self,
        request: &Request,
        candidates: &[CandidateRow],
        now: SimTime,
    ) -> Result<Vec<ImeiHash>, InsufficientDevices> {
        self.fold_slice(request, candidates, now).select()
    }

    fn would_select(&self, request: &Request, candidates: &[CandidateRow], now: SimTime) -> bool {
        self.fold_slice(request, candidates, now).would_select()
    }

    fn select_partial(
        &self,
        request: &Request,
        candidates: &[CandidateRow],
        now: SimTime,
    ) -> Vec<ImeiHash> {
        self.fold_slice(request, candidates, now).select_partial()
    }

    fn would_select_partial(
        &self,
        request: &Request,
        candidates: &[CandidateRow],
        now: SimTime,
    ) -> bool {
        self.fold_slice(request, candidates, now)
            .would_select_partial()
    }
}
