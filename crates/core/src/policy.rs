//! Policy functions: the language for specifying sensitivity.
//!
//! A policy function `P : T -> {0, 1}` (Definition 3.1 of the paper) labels
//! each record as **sensitive** (`P(r) = 0`) or **non-sensitive** (`P(r) = 1`).
//! Crucially, under OSDP the classification is *value based* and therefore the
//! classification itself is secret: mechanisms must not reveal which records
//! are sensitive.
//!
//! This module provides:
//!
//! * the [`Policy`] trait, generic over the record type so that trajectory
//!   databases and plain relational records can share the machinery;
//! * concrete policies ([`ClosurePolicy`], [`AttributePolicy`],
//!   [`AllSensitive`], [`NoneSensitive`]);
//! * [`MinimumRelaxation`] (Definition 3.6), the strictest policy that is a
//!   relaxation of every policy in a set, used by sequential composition;
//! * helpers to check the relaxation relation (Definition 3.5) over a finite
//!   domain sample.

use crate::frame::CompiledPolicy;
use crate::record::Record;
use crate::value::Value;
use std::sync::Arc;

/// The sensitivity class assigned to a record by a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sensitivity {
    /// `P(r) = 0`: the record receives the full OSDP guarantee.
    Sensitive,
    /// `P(r) = 1`: the record may be used (and partially released) truthfully.
    NonSensitive,
}

impl Sensitivity {
    /// The paper's numeric encoding: sensitive records map to `0`,
    /// non-sensitive records map to `1`.
    pub fn as_bit(self) -> u8 {
        match self {
            Sensitivity::Sensitive => 0,
            Sensitivity::NonSensitive => 1,
        }
    }

    /// Inverse of [`Sensitivity::as_bit`]; any non-zero value is non-sensitive.
    pub fn from_bit(bit: u8) -> Self {
        if bit == 0 {
            Sensitivity::Sensitive
        } else {
            Sensitivity::NonSensitive
        }
    }
}

/// A policy function over records of type `R`.
///
/// Policies must be deterministic and cheap: mechanisms evaluate them once per
/// record. They are intentionally *not* given access to the rest of the
/// database — sensitivity is a property of the record value alone, exactly as
/// in Definition 3.1.
pub trait Policy<R: ?Sized>: Send + Sync {
    /// Classifies a record.
    fn classify(&self, record: &R) -> Sensitivity;

    /// Whether the record is sensitive under this policy.
    fn is_sensitive(&self, record: &R) -> bool {
        self.classify(record) == Sensitivity::Sensitive
    }

    /// Whether the record is non-sensitive under this policy.
    fn is_non_sensitive(&self, record: &R) -> bool {
        self.classify(record) == Sensitivity::NonSensitive
    }

    /// The paper's numeric encoding `P(r) ∈ {0, 1}`.
    fn value(&self, record: &R) -> u8 {
        self.classify(record).as_bit()
    }

    /// The vectorized compilation of this policy over columnar frames, when
    /// one exists.
    ///
    /// Policies that can be expressed as a single-column predicate return a
    /// [`CompiledPolicy`] whose [`CompiledPolicy::evaluate`] classifies every
    /// row of a [`crate::frame::ColumnarFrame`] in one pass — the columnar
    /// backend uses it instead of a virtual `classify` call per record. The
    /// compiled form **must** agree with [`Policy::classify`] on every record
    /// (the backends' equivalence rests on it). The default is `None`:
    /// opaque closures fall back to the row-at-a-time path.
    fn compiled(&self) -> Option<CompiledPolicy> {
        None
    }
}

// Allow `&P`, `Box<P>` and `Arc<P>` to be used wherever a policy is expected.
impl<R: ?Sized, P: Policy<R> + ?Sized> Policy<R> for &P {
    fn classify(&self, record: &R) -> Sensitivity {
        (**self).classify(record)
    }

    fn compiled(&self) -> Option<CompiledPolicy> {
        (**self).compiled()
    }
}

impl<R: ?Sized, P: Policy<R> + ?Sized> Policy<R> for Box<P> {
    fn classify(&self, record: &R) -> Sensitivity {
        (**self).classify(record)
    }

    fn compiled(&self) -> Option<CompiledPolicy> {
        (**self).compiled()
    }
}

impl<R: ?Sized, P: Policy<R> + ?Sized> Policy<R> for Arc<P> {
    fn classify(&self, record: &R) -> Sensitivity {
        (**self).classify(record)
    }

    fn compiled(&self) -> Option<CompiledPolicy> {
        (**self).compiled()
    }
}

/// The all-sensitive policy `P_all` (Definition 3.7).
///
/// Under `P_all`, OSDP coincides with ordinary differential privacy
/// (Lemmas 3.1 and 3.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllSensitive;

impl<R: ?Sized> Policy<R> for AllSensitive {
    fn classify(&self, _record: &R) -> Sensitivity {
        Sensitivity::Sensitive
    }

    fn compiled(&self) -> Option<CompiledPolicy> {
        Some(CompiledPolicy::AllSensitive)
    }
}

/// The degenerate policy under which no record is sensitive.
///
/// Useful as the other end of the relaxation lattice and in tests; the paper
/// excludes it from consideration because with it any non-private algorithm
/// is acceptable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoneSensitive;

impl<R: ?Sized> Policy<R> for NoneSensitive {
    fn classify(&self, _record: &R) -> Sensitivity {
        Sensitivity::NonSensitive
    }

    fn compiled(&self) -> Option<CompiledPolicy> {
        Some(CompiledPolicy::NoneSensitive)
    }
}

/// A policy defined by an arbitrary closure returning `true` when the record
/// is **sensitive**.
///
/// ```
/// use osdp_core::{Record, Value, policy::{ClosurePolicy, Policy}};
/// // λr. if r.Age ≤ 17 : sensitive
/// let minors = ClosurePolicy::new("minors", |r: &Record| r.int("age").map_or(true, |a| a <= 17));
/// let adult = Record::builder().field("age", 30i64).build();
/// let minor = Record::builder().field("age", 12i64).build();
/// assert!(minors.is_non_sensitive(&adult));
/// assert!(minors.is_sensitive(&minor));
/// ```
#[derive(Clone)]
pub struct ClosurePolicy<R: ?Sized> {
    name: String,
    #[allow(clippy::type_complexity)]
    predicate: Arc<dyn Fn(&R) -> bool + Send + Sync>,
}

impl<R: ?Sized> ClosurePolicy<R> {
    /// Creates a policy from a predicate returning `true` for sensitive
    /// records.
    pub fn new(
        name: impl Into<String>,
        sensitive_when: impl Fn(&R) -> bool + Send + Sync + 'static,
    ) -> Self {
        Self { name: name.into(), predicate: Arc::new(sensitive_when) }
    }

    /// Human-readable name used in experiment reports.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl<R: ?Sized> std::fmt::Debug for ClosurePolicy<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClosurePolicy").field("name", &self.name).finish()
    }
}

impl<R: ?Sized> Policy<R> for ClosurePolicy<R> {
    fn classify(&self, record: &R) -> Sensitivity {
        if (self.predicate)(record) {
            Sensitivity::Sensitive
        } else {
            Sensitivity::NonSensitive
        }
    }
}

/// A policy over [`Record`]s driven by a single attribute, mirroring the
/// paper's examples (`λr.if(r.Age ≤ 17): 0; else: 1`,
/// `λr.if(r.Race = NativeAmerican ∨ r.Optin = False): 0; else: 1`).
///
/// Records missing the attribute are treated as **sensitive** by default
/// (fail-closed), which is the conservative choice; this can be overridden.
#[derive(Clone)]
pub struct AttributePolicy {
    field: String,
    missing_is_sensitive: bool,
    #[allow(clippy::type_complexity)]
    sensitive_when: Arc<dyn Fn(&Value) -> bool + Send + Sync>,
    /// The structured form of the predicate, when the constructor knows it —
    /// what lets [`Policy::compiled`] emit a branch-free vectorized plan
    /// instead of an indirect predicate call per row.
    atom: Option<AttributeAtom>,
}

/// The structured predicate forms [`AttributePolicy`] can vectorize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttributeAtom {
    /// Sensitive when the integer value is `≤` the threshold.
    IntAtMost(i64),
    /// Sensitive when the boolean value is `false` (or not a boolean).
    OptIn,
    /// Sensitive when the 64-bit membership mask intersects these bits.
    MaskIntersects(u64),
}

impl AttributePolicy {
    /// Builds a policy that marks a record sensitive when `predicate` holds on
    /// the value of `field`.
    pub fn sensitive_when(
        field: impl Into<String>,
        predicate: impl Fn(&Value) -> bool + Send + Sync + 'static,
    ) -> Self {
        Self {
            field: field.into(),
            missing_is_sensitive: true,
            sensitive_when: Arc::new(predicate),
            atom: None,
        }
    }

    /// Convenience constructor for opt-in / opt-out policies: a record is
    /// sensitive when the boolean field is `false` (the user did not opt in).
    pub fn opt_in(field: impl Into<String>) -> Self {
        let mut policy = Self::sensitive_when(field, |v| !v.as_bool().unwrap_or(false));
        policy.atom = Some(AttributeAtom::OptIn);
        policy
    }

    /// The paper's threshold form (`λr.if(r.Age ≤ 17): 0; else: 1`): a record
    /// is sensitive when the integer field is at most `threshold`.
    /// Non-integer values are non-sensitive; missing fields fail closed (see
    /// [`AttributePolicy::with_missing_sensitive`]). Compiles to a branch-free
    /// columnar comparison.
    pub fn int_at_most(field: impl Into<String>, threshold: i64) -> Self {
        let mut policy =
            Self::sensitive_when(field, move |v| v.as_int().is_some_and(|x| x <= threshold));
        policy.atom = Some(AttributeAtom::IntAtMost(threshold));
        policy
    }

    /// Set-membership form: a record is sensitive when its 64-bit membership
    /// mask (stored as an integer field, e.g. the access points a trajectory
    /// visits) intersects `sensitive_bits`. Compiles to a columnar bitwise
    /// test.
    pub fn mask_intersects(field: impl Into<String>, sensitive_bits: u64) -> Self {
        let mut policy = Self::sensitive_when(field, move |v| {
            v.as_int().is_some_and(|x| (x as u64) & sensitive_bits != 0)
        });
        policy.atom = Some(AttributeAtom::MaskIntersects(sensitive_bits));
        policy
    }

    /// Changes how records missing the attribute are classified.
    pub fn with_missing_sensitive(mut self, missing_is_sensitive: bool) -> Self {
        self.missing_is_sensitive = missing_is_sensitive;
        self
    }

    /// The attribute this policy inspects.
    pub fn field(&self) -> &str {
        &self.field
    }
}

impl std::fmt::Debug for AttributePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttributePolicy")
            .field("field", &self.field)
            .field("missing_is_sensitive", &self.missing_is_sensitive)
            .finish()
    }
}

impl Policy<Record> for AttributePolicy {
    fn classify(&self, record: &Record) -> Sensitivity {
        match record.get(&self.field) {
            Some(value) => {
                if (self.sensitive_when)(value) {
                    Sensitivity::Sensitive
                } else {
                    Sensitivity::NonSensitive
                }
            }
            None => {
                if self.missing_is_sensitive {
                    Sensitivity::Sensitive
                } else {
                    Sensitivity::NonSensitive
                }
            }
        }
    }

    fn compiled(&self) -> Option<CompiledPolicy> {
        Some(match self.atom {
            Some(AttributeAtom::IntAtMost(threshold)) => CompiledPolicy::IntAtMost {
                field: self.field.clone(),
                threshold,
                missing_is_sensitive: self.missing_is_sensitive,
            },
            Some(AttributeAtom::OptIn) => CompiledPolicy::OptIn {
                field: self.field.clone(),
                missing_is_sensitive: self.missing_is_sensitive,
            },
            Some(AttributeAtom::MaskIntersects(sensitive_bits)) => CompiledPolicy::MaskIntersects {
                field: self.field.clone(),
                sensitive_bits,
                missing_is_sensitive: self.missing_is_sensitive,
            },
            None => CompiledPolicy::Attribute {
                field: self.field.clone(),
                missing_is_sensitive: self.missing_is_sensitive,
                sensitive_when: Arc::clone(&self.sensitive_when),
            },
        })
    }
}

/// The minimum relaxation `P_mr` of a set of policies (Definition 3.6).
///
/// `P_mr(r) = max(P_1(r), ..., P_k(r))`: a record is sensitive under the
/// minimum relaxation only if it is sensitive under **every** component
/// policy. `P_mr` is the strictest policy that is a relaxation of each
/// component, and it is the policy under which a sequential composition of
/// OSDP mechanisms is accounted (Theorem 3.3).
pub struct MinimumRelaxation<R: ?Sized> {
    components: Vec<Arc<dyn Policy<R>>>,
}

impl<R: ?Sized> MinimumRelaxation<R> {
    /// Builds the minimum relaxation of the given policies.
    ///
    /// An empty component list yields the all-sensitive policy (the unit of
    /// the `max` fold is 0), matching the convention that composing zero
    /// mechanisms grants no extra leakage.
    pub fn new(components: Vec<Arc<dyn Policy<R>>>) -> Self {
        Self { components }
    }

    /// Convenience constructor from two policies.
    pub fn of_two(a: impl Policy<R> + 'static, b: impl Policy<R> + 'static) -> Self {
        Self::new(vec![Arc::new(a), Arc::new(b)])
    }

    /// Number of component policies.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether there are no component policies.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Adds another component policy.
    pub fn push(&mut self, policy: Arc<dyn Policy<R>>) {
        self.components.push(policy);
    }
}

impl<R: ?Sized> Policy<R> for MinimumRelaxation<R> {
    fn classify(&self, record: &R) -> Sensitivity {
        // max over the numeric encodings: non-sensitive (1) wins.
        for p in &self.components {
            if p.is_non_sensitive(record) {
                return Sensitivity::NonSensitive;
            }
        }
        Sensitivity::Sensitive
    }
}

impl<R: ?Sized> std::fmt::Debug for MinimumRelaxation<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MinimumRelaxation").field("components", &self.components.len()).finish()
    }
}

/// Checks the relaxation relation `P1 ⪯p P2` (Definition 3.5) over a finite
/// sample of the record universe.
///
/// `P1` is a relaxation of `P2` iff `P1(r) ≥ P2(r)` for every record — i.e.
/// every record sensitive under `P1` is also sensitive under `P2`. The
/// relation cannot be decided for arbitrary closures without enumerating the
/// universe, so callers supply a representative sample (tests enumerate small
/// domains exhaustively).
pub fn is_relaxation_of<'a, R: 'a + ?Sized>(
    p1: &dyn Policy<R>,
    p2: &dyn Policy<R>,
    universe: impl IntoIterator<Item = &'a R>,
) -> bool {
    universe.into_iter().all(|r| p1.value(r) >= p2.value(r))
}

/// The direction of a policy epoch transition in the tighten/relax order.
///
/// Lifecycle events map onto the two directions: a user **opting out** or a
/// consent grant **decaying** tightens the policy (more records become
/// sensitive), while a user **consenting** relaxes it (fewer records are
/// sensitive). The direction is declared by the caller — it is lifecycle
/// intent, not something derivable from two opaque closures — and can be
/// validated against the relaxation relation (Definition 3.5) over a sampled
/// universe via [`VersionedPolicy::transition_checked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EpochDirection {
    /// The new epoch classifies at least as many records sensitive as the
    /// old one: the **old** policy is a relaxation of the new.
    Tighten,
    /// The new epoch classifies at most as many records sensitive as the
    /// old one: the **new** policy is a relaxation of the old.
    Relax,
}

/// One version in a policy lifecycle: a policy, its label, the version
/// number, and how it relates to its predecessor.
pub struct PolicyEpoch<R: ?Sized> {
    version: u64,
    label: Arc<str>,
    policy: Arc<dyn Policy<R>>,
    /// `None` for the initial epoch (version 0), which has no predecessor.
    direction: Option<EpochDirection>,
}

impl<R: ?Sized> PolicyEpoch<R> {
    /// The epoch's version number (dense, starting at 0).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The human-readable policy label stamped into audits.
    pub fn label(&self) -> &Arc<str> {
        &self.label
    }

    /// The policy function in force during this epoch.
    pub fn policy(&self) -> &Arc<dyn Policy<R>> {
        &self.policy
    }

    /// How this epoch relates to its predecessor (`None` for version 0).
    pub fn direction(&self) -> Option<EpochDirection> {
        self.direction
    }
}

impl<R: ?Sized> std::fmt::Debug for PolicyEpoch<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyEpoch")
            .field("version", &self.version)
            .field("label", &self.label)
            .field("direction", &self.direction)
            .finish()
    }
}

/// A versioned policy lifecycle: the dense epoch history of one data owner
/// or tenant, ordered by the tighten/relax relation.
///
/// The registry is the paper's minimum-relaxation machinery applied *across
/// time*: Definitions 3.5/3.6 and Theorem 3.3 are stated over sets of
/// policies precisely so guarantees compose when the policy in force changes
/// between releases. [`VersionedPolicy::minimum_relaxation`] returns `P_mr`
/// over every version ever in force, which is the policy under which the
/// whole multi-epoch release history is accounted.
///
/// Permissiveness across versions is tracked as an integer level: the
/// initial epoch sits at level 0, each [`EpochDirection::Relax`] step adds 1
/// and each [`EpochDirection::Tighten`] step subtracts 1. A release audited
/// under version `a` was served under a *more permissive* policy than one in
/// force at version `b` exactly when `level(a) > level(b)` — the comparison
/// stale-policy audits are built on.
pub struct VersionedPolicy<R: ?Sized> {
    epochs: Vec<PolicyEpoch<R>>,
}

impl<R: ?Sized> VersionedPolicy<R> {
    /// A lifecycle whose initial epoch (version 0) is `policy` under `label`.
    pub fn new(policy: Arc<dyn Policy<R>>, label: impl Into<Arc<str>>) -> Self {
        Self {
            epochs: vec![PolicyEpoch { version: 0, label: label.into(), policy, direction: None }],
        }
    }

    /// Appends a new epoch in the declared direction and returns its version.
    pub fn transition(
        &mut self,
        policy: Arc<dyn Policy<R>>,
        label: impl Into<Arc<str>>,
        direction: EpochDirection,
    ) -> u64 {
        let version = self.epochs.len() as u64;
        self.epochs.push(PolicyEpoch {
            version,
            label: label.into(),
            policy,
            direction: Some(direction),
        });
        version
    }

    /// [`VersionedPolicy::transition`] with the direction validated against
    /// the relaxation relation (Definition 3.5) over `universe`.
    ///
    /// A tighten requires the *old* policy to be a relaxation of the new one
    /// (every newly sensitive record stays sensitive); a relax requires the
    /// reverse. The check is only as strong as the sample: callers enumerate
    /// small domains exhaustively, exactly as with [`is_relaxation_of`].
    pub fn transition_checked<'a>(
        &mut self,
        policy: Arc<dyn Policy<R>>,
        label: impl Into<Arc<str>>,
        direction: EpochDirection,
        universe: impl IntoIterator<Item = &'a R>,
    ) -> Result<u64, crate::error::OsdpError>
    where
        R: 'a,
    {
        let current = self.current().policy();
        let ordered = match direction {
            EpochDirection::Tighten => {
                is_relaxation_of(current.as_ref(), policy.as_ref(), universe)
            }
            EpochDirection::Relax => is_relaxation_of(policy.as_ref(), current.as_ref(), universe),
        };
        if !ordered {
            return Err(crate::error::OsdpError::InvalidInput(format!(
                "epoch transition declared {direction:?} but the policies are not so ordered \
                 over the sampled universe"
            )));
        }
        Ok(self.transition(policy, label, direction))
    }

    /// The epoch currently in force (highest version).
    pub fn current(&self) -> &PolicyEpoch<R> {
        self.epochs.last().expect("lifecycle always has an initial epoch")
    }

    /// The epoch with the given version, if it exists.
    pub fn epoch(&self, version: u64) -> Option<&PolicyEpoch<R>> {
        self.epochs.get(version as usize)
    }

    /// Number of epochs in the lifecycle (current version + 1).
    pub fn versions(&self) -> u64 {
        self.epochs.len() as u64
    }

    /// Iterates over every epoch in version order.
    pub fn epochs(&self) -> impl Iterator<Item = &PolicyEpoch<R>> {
        self.epochs.iter()
    }

    /// The permissiveness level of `version`: 0 for the initial epoch, +1
    /// per relax step, −1 per tighten step. `None` for unknown versions.
    pub fn permissiveness_level(&self, version: u64) -> Option<i64> {
        if version >= self.versions() {
            return None;
        }
        let mut level = 0i64;
        for epoch in &self.epochs[1..=version as usize] {
            match epoch.direction {
                Some(EpochDirection::Relax) => level += 1,
                Some(EpochDirection::Tighten) => level -= 1,
                None => {}
            }
        }
        Some(level)
    }

    /// Whether version `a` is strictly more permissive than version `b`.
    ///
    /// Unknown versions compare as *more* permissive (fail closed): a stamp
    /// the lifecycle never issued must be treated as a violation, never
    /// excused.
    pub fn is_more_permissive(&self, a: u64, b: u64) -> bool {
        match (self.permissiveness_level(a), self.permissiveness_level(b)) {
            (Some(la), Some(lb)) => la > lb,
            _ => true,
        }
    }

    /// The minimum relaxation `P_mr` (Definition 3.6) across **every**
    /// version of the lifecycle — the policy under which a multi-epoch
    /// release history is accounted by sequential composition (Theorem 3.3).
    pub fn minimum_relaxation(&self) -> MinimumRelaxation<R> {
        MinimumRelaxation::new(self.epochs.iter().map(|e| Arc::clone(&e.policy)).collect())
    }
}

impl<R: ?Sized> std::fmt::Debug for VersionedPolicy<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedPolicy")
            .field("versions", &self.versions())
            .field("current", &self.current().label)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn age_record(age: i64) -> Record {
        Record::builder().field("age", age).build()
    }

    #[test]
    fn sensitivity_bit_roundtrip() {
        assert_eq!(Sensitivity::Sensitive.as_bit(), 0);
        assert_eq!(Sensitivity::NonSensitive.as_bit(), 1);
        assert_eq!(Sensitivity::from_bit(0), Sensitivity::Sensitive);
        assert_eq!(Sensitivity::from_bit(1), Sensitivity::NonSensitive);
        assert_eq!(Sensitivity::from_bit(7), Sensitivity::NonSensitive);
    }

    #[test]
    fn all_and_none_sensitive_are_constant() {
        let r = age_record(30);
        assert!(Policy::<Record>::is_sensitive(&AllSensitive, &r));
        assert!(Policy::<Record>::is_non_sensitive(&NoneSensitive, &r));
        assert_eq!(Policy::<Record>::value(&AllSensitive, &r), 0);
        assert_eq!(Policy::<Record>::value(&NoneSensitive, &r), 1);
    }

    #[test]
    fn attribute_policy_follows_paper_example() {
        // λr.if(r.Age ≤ 17): sensitive
        let minors = AttributePolicy::sensitive_when("age", |v| v.as_int().unwrap_or(0) <= 17);
        assert!(minors.is_sensitive(&age_record(17)));
        assert!(minors.is_sensitive(&age_record(3)));
        assert!(minors.is_non_sensitive(&age_record(18)));
        assert_eq!(minors.field(), "age");
    }

    #[test]
    fn attribute_policy_missing_field_defaults_to_sensitive() {
        let p = AttributePolicy::sensitive_when("age", |v| v.as_int().unwrap_or(0) <= 17);
        let no_age = Record::builder().field("name", "bob").build();
        assert!(p.is_sensitive(&no_age), "fail closed by default");
        let open = p.with_missing_sensitive(false);
        assert!(open.is_non_sensitive(&no_age));
    }

    #[test]
    fn opt_in_policy_marks_opt_outs_sensitive() {
        let p = AttributePolicy::opt_in("opt_in");
        let yes = Record::builder().field("opt_in", true).build();
        let no = Record::builder().field("opt_in", false).build();
        let missing = Record::new();
        assert!(p.is_non_sensitive(&yes));
        assert!(p.is_sensitive(&no));
        assert!(p.is_sensitive(&missing), "missing opt-in counts as opt-out");
    }

    #[test]
    fn closure_policy_wraps_arbitrary_predicates() {
        let p = ClosurePolicy::new("native-or-optout", |r: &Record| {
            r.text("race").map(|t| t == "NativeAmerican").unwrap_or(false)
                || !r.bool("opt_in").unwrap_or(true)
        });
        assert_eq!(p.name(), "native-or-optout");
        let a = Record::builder().field("race", "NativeAmerican").field("opt_in", true).build();
        let b = Record::builder().field("race", "Other").field("opt_in", false).build();
        let c = Record::builder().field("race", "Other").field("opt_in", true).build();
        assert!(p.is_sensitive(&a));
        assert!(p.is_sensitive(&b));
        assert!(p.is_non_sensitive(&c));
        assert!(format!("{p:?}").contains("native-or-optout"));
    }

    #[test]
    fn minimum_relaxation_takes_max() {
        // P1: minors sensitive. P2: opted-out sensitive.
        let p1: Arc<dyn Policy<Record>> =
            Arc::new(AttributePolicy::sensitive_when("age", |v| v.as_int().unwrap_or(0) <= 17));
        let p2: Arc<dyn Policy<Record>> = Arc::new(AttributePolicy::opt_in("opt_in"));
        let pmr = MinimumRelaxation::new(vec![p1.clone(), p2.clone()]);
        assert_eq!(pmr.len(), 2);
        assert!(!pmr.is_empty());

        let minor_opted_out = Record::builder().field("age", 10i64).field("opt_in", false).build();
        let minor_opted_in = Record::builder().field("age", 10i64).field("opt_in", true).build();
        let adult_opted_out = Record::builder().field("age", 40i64).field("opt_in", false).build();
        let adult_opted_in = Record::builder().field("age", 40i64).field("opt_in", true).build();

        // Sensitive only when sensitive under *both* policies.
        assert!(pmr.is_sensitive(&minor_opted_out));
        assert!(pmr.is_non_sensitive(&minor_opted_in));
        assert!(pmr.is_non_sensitive(&adult_opted_out));
        assert!(pmr.is_non_sensitive(&adult_opted_in));
        assert!(format!("{pmr:?}").contains("MinimumRelaxation"));
    }

    #[test]
    fn minimum_relaxation_is_a_relaxation_of_each_component() {
        let universe: Vec<Record> = (0..60)
            .flat_map(|age| {
                [true, false].into_iter().map(move |opt| {
                    Record::builder().field("age", age as i64).field("opt_in", opt).build()
                })
            })
            .collect();
        let p1 = AttributePolicy::sensitive_when("age", |v| v.as_int().unwrap_or(0) <= 17);
        let p2 = AttributePolicy::opt_in("opt_in");
        let pmr = MinimumRelaxation::of_two(p1.clone(), p2.clone());

        assert!(is_relaxation_of(&pmr, &p1, universe.iter()));
        assert!(is_relaxation_of(&pmr, &p2, universe.iter()));
        // Every policy is a relaxation of P_all, and NoneSensitive relaxes everything.
        assert!(is_relaxation_of(&p1, &AllSensitive, universe.iter()));
        assert!(is_relaxation_of(&NoneSensitive, &p1, universe.iter()));
        // But p1 is not a relaxation of p2 (a 10-year-old opt-in is sensitive
        // under p1, non-sensitive under p2).
        assert!(!is_relaxation_of(&p1, &p2, universe.iter()));
    }

    #[test]
    fn empty_minimum_relaxation_is_all_sensitive() {
        let pmr: MinimumRelaxation<Record> = MinimumRelaxation::new(vec![]);
        assert!(pmr.is_empty());
        assert!(pmr.is_sensitive(&age_record(30)));
    }

    #[test]
    fn policy_impls_for_smart_pointers() {
        let p = AttributePolicy::opt_in("opt_in");
        let boxed: Box<dyn Policy<Record>> = Box::new(p.clone());
        let arced: Arc<dyn Policy<Record>> = Arc::new(p.clone());
        let r = Record::builder().field("opt_in", false).build();
        assert!(boxed.is_sensitive(&r));
        assert!(arced.is_sensitive(&r));
        assert!(p.is_sensitive(&r));
    }

    #[test]
    fn int_at_most_matches_the_threshold_example() {
        let minors = AttributePolicy::int_at_most("age", 17);
        assert!(minors.is_sensitive(&age_record(17)));
        assert!(minors.is_non_sensitive(&age_record(18)));
        assert!(minors.is_sensitive(&Record::new()), "missing fails closed");
        // Non-integer ages are non-sensitive (as_int is None).
        let float_age = Record::builder().field("age", 3.0f64).build();
        assert!(minors.is_non_sensitive(&float_age));
    }

    #[test]
    fn mask_intersects_matches_bitwise_membership() {
        let p = AttributePolicy::mask_intersects("aps", 0b0110);
        let hit = Record::builder().field("aps", 0b0100i64).build();
        let miss = Record::builder().field("aps", 0b1001i64).build();
        assert!(p.is_sensitive(&hit));
        assert!(p.is_non_sensitive(&miss));
        assert!(p.is_sensitive(&Record::new()), "missing fails closed");
    }

    #[test]
    fn compiled_forms_exist_and_match_the_constructors() {
        use crate::frame::CompiledPolicy;
        assert!(matches!(
            Policy::<Record>::compiled(&AllSensitive),
            Some(CompiledPolicy::AllSensitive)
        ));
        assert!(matches!(
            Policy::<Record>::compiled(&NoneSensitive),
            Some(CompiledPolicy::NoneSensitive)
        ));
        assert!(matches!(
            AttributePolicy::int_at_most("age", 17).compiled(),
            Some(CompiledPolicy::IntAtMost { threshold: 17, missing_is_sensitive: true, .. })
        ));
        assert!(matches!(
            AttributePolicy::opt_in("opt").with_missing_sensitive(false).compiled(),
            Some(CompiledPolicy::OptIn { missing_is_sensitive: false, .. })
        ));
        assert!(matches!(
            AttributePolicy::mask_intersects("aps", 0b11).compiled(),
            Some(CompiledPolicy::MaskIntersects { sensitive_bits: 0b11, .. })
        ));
        assert!(matches!(
            AttributePolicy::sensitive_when("x", |_| true).compiled(),
            Some(CompiledPolicy::Attribute { .. })
        ));
        // Closure policies stay opaque; smart pointers forward.
        let closure = ClosurePolicy::new("opaque", |_: &Record| true);
        assert!(closure.compiled().is_none());
        let arced: Arc<dyn Policy<Record>> = Arc::new(AttributePolicy::opt_in("opt"));
        assert!(arced.compiled().is_some());
        let boxed: Box<dyn Policy<Record>> = Box::new(ClosurePolicy::new("o", |_: &Record| true));
        assert!(boxed.compiled().is_none());
    }

    #[test]
    fn versioned_policy_tracks_epochs_and_levels() {
        let universe: Vec<Record> = (0..60).map(age_record).collect();
        let mut lifecycle = VersionedPolicy::<Record>::new(
            Arc::new(AttributePolicy::int_at_most("age", 17)),
            "P-minors",
        );
        assert_eq!(lifecycle.versions(), 1);
        assert_eq!(lifecycle.current().version(), 0);
        assert_eq!(lifecycle.current().label().as_ref(), "P-minors");
        assert!(lifecycle.current().direction().is_none());

        // Decay tightens: under-21s become sensitive too.
        let v1 = lifecycle
            .transition_checked(
                Arc::new(AttributePolicy::int_at_most("age", 20)),
                "P-decay-21",
                EpochDirection::Tighten,
                universe.iter(),
            )
            .expect("tightening the threshold is a valid tighten");
        assert_eq!(v1, 1);
        // Consent relaxes back to the original threshold.
        let v2 = lifecycle
            .transition_checked(
                Arc::new(AttributePolicy::int_at_most("age", 17)),
                "P-consent",
                EpochDirection::Relax,
                universe.iter(),
            )
            .expect("raising the floor back is a valid relax");
        assert_eq!(v2, 2);

        assert_eq!(lifecycle.permissiveness_level(0), Some(0));
        assert_eq!(lifecycle.permissiveness_level(1), Some(-1));
        assert_eq!(lifecycle.permissiveness_level(2), Some(0));
        assert_eq!(lifecycle.permissiveness_level(3), None);
        assert!(lifecycle.is_more_permissive(0, 1));
        assert!(!lifecycle.is_more_permissive(1, 0));
        assert!(!lifecycle.is_more_permissive(2, 0), "equal levels are not *more* permissive");
        assert!(lifecycle.is_more_permissive(99, 0), "unknown stamps fail closed");

        // The cross-version minimum relaxation is a relaxation of every epoch.
        let pmr = lifecycle.minimum_relaxation();
        assert_eq!(pmr.len(), 3);
        for epoch in lifecycle.epochs() {
            assert!(is_relaxation_of(&pmr, epoch.policy().as_ref(), universe.iter()));
        }
        assert!(format!("{lifecycle:?}").contains("P-consent"));
        assert!(format!("{:?}", lifecycle.epoch(1).unwrap()).contains("P-decay-21"));
    }

    #[test]
    fn misdeclared_transition_direction_is_rejected() {
        let universe: Vec<Record> = (0..60).map(age_record).collect();
        let mut lifecycle = VersionedPolicy::<Record>::new(
            Arc::new(AttributePolicy::int_at_most("age", 17)),
            "P-minors",
        );
        // Raising the threshold tightens; declaring it a relax must fail.
        let err = lifecycle.transition_checked(
            Arc::new(AttributePolicy::int_at_most("age", 20)),
            "P-bogus",
            EpochDirection::Relax,
            universe.iter(),
        );
        assert!(err.is_err());
        assert_eq!(lifecycle.versions(), 1, "rejected transitions leave the lifecycle untouched");
    }

    #[test]
    fn push_extends_minimum_relaxation() {
        let mut pmr: MinimumRelaxation<Record> =
            MinimumRelaxation::new(vec![Arc::new(AllSensitive)]);
        let r = age_record(30);
        assert!(pmr.is_sensitive(&r));
        pmr.push(Arc::new(NoneSensitive));
        assert!(pmr.is_non_sensitive(&r), "adding a weaker policy relaxes the composition");
    }
}
