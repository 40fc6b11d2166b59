//! The P2P data exchange system model (Definition 2).
//!
//! A [`P2PSystem`] bundles:
//!
//! * a finite set of [`Peer`]s, each owning a schema, an instance and a set
//!   of local integrity constraints `IC(P)`;
//! * data exchange constraints ([`Dec`]) `Σ(P, Q)` between pairs of peers,
//!   owned by the peer that will use them when answering queries;
//! * a [`TrustRelation`]: `(P, less, Q)` — "P trusts itself less than Q" —
//!   or `(P, same, Q)` — "P trusts itself the same as Q".
//!
//! Peer schemas are disjoint (Definition 2(b)): every relation name belongs
//! to exactly one peer, which is how the solution semantics knows whose data
//! may be (virtually) changed.

use crate::error::CoreError;
use crate::Result;
use constraints::Constraint;
use relalg::{Database, RelationSchema, Schema};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifier of a peer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PeerId(pub String);

impl PeerId {
    /// Construct a peer id.
    pub fn new(name: impl Into<String>) -> Self {
        PeerId(name.into())
    }

    /// The peer's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for PeerId {
    fn from(s: &str) -> Self {
        PeerId::new(s)
    }
}

/// How much a peer trusts another peer relative to itself
/// (Definition 2(f)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TrustLevel {
    /// `(P, less, Q)`: P trusts itself less than Q — Q's data is held fixed
    /// and P accommodates its own data to it.
    Less,
    /// `(P, same, Q)`: P trusts itself the same as Q — both peers' data may
    /// be (virtually) changed when looking for solutions.
    Same,
}

impl fmt::Display for TrustLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrustLevel::Less => write!(f, "less"),
            TrustLevel::Same => write!(f, "same"),
        }
    }
}

/// The trust relation of the whole system: a partial map from ordered peer
/// pairs to trust levels (the second component of the paper's triple is
/// functionally determined by the pair).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrustRelation {
    entries: BTreeMap<(PeerId, PeerId), TrustLevel>,
}

impl TrustRelation {
    /// Empty trust relation.
    pub fn new() -> Self {
        TrustRelation::default()
    }

    /// Record that `who` trusts itself `level` than/as `whom`.
    pub fn set(&mut self, who: PeerId, level: TrustLevel, whom: PeerId) {
        self.entries.insert((who, whom), level);
    }

    /// The trust level of `who` towards `whom`, if declared.
    pub fn level(&self, who: &PeerId, whom: &PeerId) -> Option<TrustLevel> {
        self.entries.get(&(who.clone(), whom.clone())).copied()
    }

    /// Peers that `who` trusts more than itself (`less` entries).
    pub fn more_trusted_than_self(&self, who: &PeerId) -> BTreeSet<PeerId> {
        self.entries
            .iter()
            .filter(|((a, _), lvl)| a == who && **lvl == TrustLevel::Less)
            .map(|((_, b), _)| b.clone())
            .collect()
    }

    /// Peers that `who` trusts the same as itself.
    pub fn same_trusted(&self, who: &PeerId) -> BTreeSet<PeerId> {
        self.entries
            .iter()
            .filter(|((a, _), lvl)| a == who && **lvl == TrustLevel::Same)
            .map(|((_, b), _)| b.clone())
            .collect()
    }

    /// All entries.
    pub fn entries(&self) -> impl Iterator<Item = (&PeerId, TrustLevel, &PeerId)> {
        self.entries.iter().map(|((a, b), lvl)| (a, *lvl, b))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no trust has been declared.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A data exchange constraint `Σ(P, Q)` (Definition 2(e)): a sentence over
/// the union of the schemas of its owner `P` and the other peer `Q`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dec {
    /// The peer that owns (and enforces) the constraint.
    pub owner: PeerId,
    /// The other peer mentioned by the constraint.
    pub other: PeerId,
    /// The sentence itself.
    pub constraint: Constraint,
}

impl Dec {
    /// Construct a DEC.
    pub fn new(owner: impl Into<PeerId>, other: impl Into<PeerId>, constraint: Constraint) -> Self
    where
        PeerId: From<&'static str>,
    {
        Dec {
            owner: owner.into(),
            other: other.into(),
            constraint,
        }
    }
}

impl fmt::Display for Dec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Σ({}, {}): {}", self.owner, self.other, self.constraint)
    }
}

/// A peer: schema, instance and local integrity constraints.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Peer {
    /// The peer's identifier.
    pub id: PeerId,
    /// The peer's schema `R(P)`.
    pub schema: Schema,
    /// The peer's instance `r(P)`.
    pub instance: Database,
    /// The peer's local integrity constraints `IC(P)`.
    pub local_ics: Vec<Constraint>,
}

impl Peer {
    /// Create a peer with an empty schema and instance.
    pub fn new(id: impl Into<PeerId>) -> Self
    where
        PeerId: From<&'static str>,
    {
        Peer {
            id: id.into(),
            schema: Schema::new(),
            instance: Database::new(),
            local_ics: Vec::new(),
        }
    }

    /// Names of the relations owned by this peer.
    pub fn relation_names(&self) -> BTreeSet<String> {
        self.schema.relation_names().map(str::to_string).collect()
    }
}

/// A complete P2P data exchange system.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct P2PSystem {
    peers: BTreeMap<PeerId, Peer>,
    decs: Vec<Dec>,
    trust: TrustRelation,
}

impl P2PSystem {
    /// An empty system.
    pub fn new() -> Self {
        P2PSystem::default()
    }

    /// Add a peer (empty schema/instance); errors if the peer exists.
    pub fn add_peer(&mut self, id: impl Into<PeerId>) -> Result<()> {
        let id = id.into();
        if self.peers.contains_key(&id) {
            return Err(CoreError::DuplicatePeer(id.to_string()));
        }
        self.peers.insert(
            id.clone(),
            Peer {
                id,
                schema: Schema::new(),
                instance: Database::new(),
                local_ics: Vec::new(),
            },
        );
        Ok(())
    }

    /// Declare a relation for a peer. Relation names must be globally unique.
    pub fn add_relation(&mut self, peer: &PeerId, schema: RelationSchema) -> Result<()> {
        if let Some(owner) = self.owner_of(schema.name()) {
            if &owner != peer {
                return Err(CoreError::RelationOwnedElsewhere {
                    relation: schema.name().to_string(),
                    owner: owner.to_string(),
                });
            }
        }
        let p = self
            .peers
            .get_mut(peer)
            .ok_or_else(|| CoreError::UnknownPeer(peer.to_string()))?;
        p.schema.add(schema.clone())?;
        p.instance.ensure_relation(&schema);
        Ok(())
    }

    /// Insert a tuple into one of a peer's relations.
    pub fn insert(&mut self, peer: &PeerId, relation: &str, tuple: relalg::Tuple) -> Result<()> {
        let p = self
            .peers
            .get_mut(peer)
            .ok_or_else(|| CoreError::UnknownPeer(peer.to_string()))?;
        if !p.schema.contains(relation) {
            return Err(CoreError::UnknownRelation {
                peer: peer.to_string(),
                relation: relation.to_string(),
            });
        }
        p.instance.insert(relation, tuple)?;
        Ok(())
    }

    /// Remove a tuple from one of a peer's relations. Returns whether the
    /// tuple was present.
    pub fn delete(&mut self, peer: &PeerId, relation: &str, tuple: &relalg::Tuple) -> Result<bool> {
        let p = self
            .peers
            .get_mut(peer)
            .ok_or_else(|| CoreError::UnknownPeer(peer.to_string()))?;
        if !p.schema.contains(relation) {
            return Err(CoreError::UnknownRelation {
                peer: peer.to_string(),
                relation: relation.to_string(),
            });
        }
        Ok(p.instance.remove(relation, tuple)?)
    }

    /// Apply a [`relalg::Delta`] to a peer's instance: every insertion and
    /// deletion must target a relation the peer declares (this is what makes
    /// a delta an update to *that* peer — Definition 2(b)'s disjoint schemas
    /// mean every ground atom has exactly one legal home). Validation happens
    /// before any change is applied, so a failed call leaves the system
    /// untouched.
    pub fn apply_delta(&mut self, peer: &PeerId, delta: &relalg::Delta) -> Result<()> {
        self.validate_delta(peer, delta)?;
        let p = self.peers.get_mut(peer).expect("validated above");
        for atom in &delta.insertions {
            p.instance.insert(&atom.relation, atom.tuple.clone())?;
        }
        for atom in &delta.deletions {
            p.instance.remove(&atom.relation, &atom.tuple)?;
        }
        Ok(())
    }

    /// Validate a delta against a peer's declared schema without applying
    /// it: every insertion and deletion must target a relation the peer
    /// declares, with matching arity. [`P2PSystem::apply_delta`] runs this
    /// first; epoch-publishing stores run it against their topology replica
    /// before building the successor epoch.
    pub fn validate_delta(&self, peer: &PeerId, delta: &relalg::Delta) -> Result<()> {
        let p = self
            .peers
            .get(peer)
            .ok_or_else(|| CoreError::UnknownPeer(peer.to_string()))?;
        for atom in delta.insertions.iter().chain(delta.deletions.iter()) {
            let schema =
                p.schema
                    .relation(&atom.relation)
                    .ok_or_else(|| CoreError::UnknownRelation {
                        peer: peer.to_string(),
                        relation: atom.relation.clone(),
                    })?;
            // Arity must be validated up front too: a mismatch surfacing
            // mid-application would leave the instance partially mutated.
            if schema.arity() != atom.tuple.arity() {
                return Err(relalg::RelalgError::ArityMismatch {
                    relation: atom.relation.clone(),
                    expected: schema.arity(),
                    found: atom.tuple.arity(),
                }
                .into());
            }
        }
        Ok(())
    }

    /// Check every relation mentioned by a constraint against the declared
    /// schemas: each must be declared by some peer, with the atom's arity
    /// matching the declaration. This is the eager (construction-time) twin
    /// of the analyzer's `PDES-A001` / `PDES-A002` diagnostics — a mismatch
    /// is reported here instead of surviving until grounding.
    fn validate_constraint_relations(&self, constraint: &Constraint) -> Result<()> {
        for atom in constraint.body.iter().chain(constraint.head_atoms().iter()) {
            let declared = self
                .peers
                .values()
                .find_map(|p| p.schema.relation(&atom.relation));
            match declared {
                None => {
                    return Err(CoreError::ConstraintUnknownRelation {
                        constraint: constraint.name.clone(),
                        relation: atom.relation.clone(),
                    })
                }
                Some(schema) if schema.arity() != atom.terms.len() => {
                    return Err(CoreError::ConstraintArity {
                        constraint: constraint.name.clone(),
                        relation: atom.relation.clone(),
                        expected: schema.arity(),
                        found: atom.terms.len(),
                    })
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Add a local integrity constraint to a peer. Every relation the
    /// constraint mentions must already be declared with a matching arity
    /// ([`CoreError::ConstraintUnknownRelation`] /
    /// [`CoreError::ConstraintArity`] otherwise).
    pub fn add_local_ic(&mut self, peer: &PeerId, ic: Constraint) -> Result<()> {
        if !self.peers.contains_key(peer) {
            return Err(CoreError::UnknownPeer(peer.to_string()));
        }
        self.validate_constraint_relations(&ic)?;
        self.add_local_ic_unchecked(peer, ic)
    }

    /// [`P2PSystem::add_local_ic`] without relation/arity validation.
    ///
    /// Escape hatch for the static analyzer's defect-injection tests, which
    /// need to build ill-formed systems on purpose; not intended for regular
    /// use.
    #[doc(hidden)]
    pub fn add_local_ic_unchecked(&mut self, peer: &PeerId, ic: Constraint) -> Result<()> {
        let p = self
            .peers
            .get_mut(peer)
            .ok_or_else(|| CoreError::UnknownPeer(peer.to_string()))?;
        p.local_ics.push(ic);
        Ok(())
    }

    /// Add a data exchange constraint owned by `owner` towards `other`.
    /// Every relation the constraint mentions must already be declared with
    /// a matching arity ([`CoreError::ConstraintUnknownRelation`] /
    /// [`CoreError::ConstraintArity`] otherwise).
    pub fn add_dec(
        &mut self,
        owner: &PeerId,
        other: &PeerId,
        constraint: Constraint,
    ) -> Result<()> {
        for p in [owner, other] {
            if !self.peers.contains_key(p) {
                return Err(CoreError::UnknownPeer(p.to_string()));
            }
        }
        self.validate_constraint_relations(&constraint)?;
        self.add_dec_unchecked(owner, other, constraint)
    }

    /// [`P2PSystem::add_dec`] without relation/arity validation.
    ///
    /// Escape hatch for the static analyzer's defect-injection tests, which
    /// need to build ill-formed systems on purpose; not intended for regular
    /// use.
    #[doc(hidden)]
    pub fn add_dec_unchecked(
        &mut self,
        owner: &PeerId,
        other: &PeerId,
        constraint: Constraint,
    ) -> Result<()> {
        for p in [owner, other] {
            if !self.peers.contains_key(p) {
                return Err(CoreError::UnknownPeer(p.to_string()));
            }
        }
        self.decs.push(Dec {
            owner: owner.clone(),
            other: other.clone(),
            constraint,
        });
        Ok(())
    }

    /// Declare a trust relationship: `who` trusts itself `level` than/as `whom`.
    pub fn set_trust(&mut self, who: &PeerId, level: TrustLevel, whom: &PeerId) -> Result<()> {
        for p in [who, whom] {
            if !self.peers.contains_key(p) {
                return Err(CoreError::UnknownPeer(p.to_string()));
            }
        }
        self.trust.set(who.clone(), level, whom.clone());
        Ok(())
    }

    /// The peers of the system, in id order.
    pub fn peers(&self) -> impl Iterator<Item = &Peer> {
        self.peers.values()
    }

    /// Peer ids in order.
    pub fn peer_ids(&self) -> impl Iterator<Item = &PeerId> {
        self.peers.keys()
    }

    /// Look up a peer.
    pub fn peer(&self, id: &PeerId) -> Result<&Peer> {
        self.peers
            .get(id)
            .ok_or_else(|| CoreError::UnknownPeer(id.to_string()))
    }

    /// Number of peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// All DECs.
    pub fn decs(&self) -> &[Dec] {
        &self.decs
    }

    /// The DECs owned by a peer (its `Σ(P)`).
    pub fn decs_of(&self, peer: &PeerId) -> Vec<&Dec> {
        self.decs.iter().filter(|d| &d.owner == peer).collect()
    }

    /// The DECs owned by a peer towards peers it trusts at least as much as
    /// itself, split into (`less` DECs, `same` DECs). DECs towards peers with
    /// no declared trust are ignored, as the paper prescribes ("only when P
    /// trusts Q the same as or more than itself, it has to consider Q's
    /// data").
    pub fn trusted_decs_of(&self, peer: &PeerId) -> (Vec<&Dec>, Vec<&Dec>) {
        let mut less = Vec::new();
        let mut same = Vec::new();
        for dec in self.decs_of(peer) {
            match self.trust.level(peer, &dec.other) {
                Some(TrustLevel::Less) => less.push(dec),
                Some(TrustLevel::Same) => same.push(dec),
                None => {}
            }
        }
        (less, same)
    }

    /// The trust relation.
    pub fn trust(&self) -> &TrustRelation {
        &self.trust
    }

    /// The peer owning a relation, if any.
    pub fn owner_of(&self, relation: &str) -> Option<PeerId> {
        self.peers
            .values()
            .find(|p| p.schema.contains(relation))
            .map(|p| p.id.clone())
    }

    /// The global instance `r̄`: the union of every peer's instance.
    pub fn global_instance(&self) -> Result<Database> {
        let mut out = Database::new();
        for peer in self.peers.values() {
            out = out.union(&peer.instance)?;
        }
        Ok(out)
    }

    /// The extended schema `R̄(P)` of a peer: its own relations plus every
    /// relation mentioned by its DECs (Definition 3(a)).
    pub fn extended_schema(&self, peer: &PeerId) -> Result<Schema> {
        let p = self.peer(peer)?;
        let mut schema = p.schema.clone();
        for dec in self.decs_of(peer) {
            for relation in dec.constraint.relations() {
                if let Some(owner) = self.owner_of(&relation) {
                    let rel_schema = self
                        .peer(&owner)?
                        .schema
                        .relation(&relation)
                        .cloned()
                        .ok_or_else(|| CoreError::UnknownRelation {
                            peer: owner.to_string(),
                            relation: relation.clone(),
                        })?;
                    schema.add(rel_schema)?;
                }
            }
        }
        Ok(schema)
    }

    /// Relation names owned by peers that `peer` trusts more than itself —
    /// the `R(P)^less` of Definition 3(d).
    pub fn relations_less(&self, peer: &PeerId) -> BTreeSet<String> {
        self.trust
            .more_trusted_than_self(peer)
            .iter()
            .filter_map(|q| self.peers.get(q))
            .flat_map(|p| p.relation_names())
            .collect()
    }

    /// Relation names owned by peers that `peer` trusts the same as itself —
    /// the `R(P)^same` of Definition 3(d).
    pub fn relations_same(&self, peer: &PeerId) -> BTreeSet<String> {
        self.trust
            .same_trusted(peer)
            .iter()
            .filter_map(|q| self.peers.get(q))
            .flat_map(|p| p.relation_names())
            .collect()
    }

    /// The *relevant peers* of a peer: every peer whose data can influence
    /// `peer`'s peer consistent answers — `peer` itself plus every peer
    /// reachable from it following DEC edges transitively, from a DEC's
    /// owner to its other peer and to the owner of every relation the DEC
    /// mentions (a DEC may read a third peer's relation; the analyzer warns
    /// about it but accepts the system). The transitive closure covers both
    /// the direct semantics of Definition 4 (which only reads the relations
    /// of direct DECs) and the transitive composition of Section 4.3, so it
    /// is a sound over-approximation for every answering mechanism. Edges
    /// are followed regardless of declared trust: an untrusted DEC is
    /// ignored by the semantics today, but including it keeps the closure
    /// stable if trust is declared later.
    pub fn dependencies_of(&self, peer: &PeerId) -> BTreeSet<PeerId> {
        let mut closure = BTreeSet::from([peer.clone()]);
        let mut frontier = vec![peer.clone()];
        while let Some(p) = frontier.pop() {
            for dec in self.decs.iter().filter(|d| d.owner == p) {
                let owners = dec.constraint.relations().into_iter();
                let owners = owners.filter_map(|relation| self.owner_of(&relation));
                for next in std::iter::once(dec.other.clone()).chain(owners) {
                    if closure.insert(next.clone()) {
                        frontier.push(next);
                    }
                }
            }
        }
        closure
    }

    /// The *relevant-peer closure* of a set of touched peers: every peer
    /// whose dependency set (see [`P2PSystem::dependencies_of`]) intersects
    /// `touched` — i.e. every peer whose memoized answering artifacts a
    /// commit touching those peers may have stale.
    pub fn affected_by(&self, touched: &BTreeSet<PeerId>) -> BTreeSet<PeerId> {
        self.peers
            .keys()
            .filter(|p| !self.dependencies_of(p).is_disjoint(touched))
            .cloned()
            .collect()
    }

    /// Restrict a global instance to a peer's own relations (`r'|P` in
    /// Definition 5).
    pub fn restrict_to_peer(&self, db: &Database, peer: &PeerId) -> Result<Database> {
        let p = self.peer(peer)?;
        let names: Vec<String> = p.relation_names().into_iter().collect();
        Ok(db.restrict(names.iter().map(String::as_str)))
    }

    /// A *topology-only* replica of this system: same peers, schemas, DECs,
    /// trust relation and local ICs, but every peer instance emptied (each
    /// declared relation is present with zero tuples). This is the part of a
    /// system that every layer may read freely — instances are fetched
    /// through a [`crate::store::PeerStore`].
    pub fn topology_only(&self) -> P2PSystem {
        let mut out = self.clone();
        for peer in out.peers.values_mut() {
            let mut instance = Database::new();
            for name in peer.schema.relation_names() {
                if let Some(schema) = peer.schema.relation(name) {
                    instance.ensure_relation(schema);
                }
            }
            peer.instance = instance;
        }
        out
    }

    /// Replace a peer's instance wholesale. Used by snapshots to install
    /// their pinned instances into a topology-only replica; the
    /// peer must exist, but the instance is installed as-is (it is the
    /// store's responsibility to hand over data matching the schema).
    pub fn set_instance(&mut self, peer: &PeerId, instance: Database) -> Result<()> {
        let p = self
            .peers
            .get_mut(peer)
            .ok_or_else(|| CoreError::UnknownPeer(peer.to_string()))?;
        p.instance = instance;
        Ok(())
    }
}

/// Build the system of Example 1 of the paper. Used by tests, examples and
/// benchmarks as the canonical small system.
pub fn example1_system() -> P2PSystem {
    use constraints::builders::{full_inclusion, key_agreement};
    use relalg::Tuple;

    let p1 = PeerId::new("P1");
    let p2 = PeerId::new("P2");
    let p3 = PeerId::new("P3");
    let mut sys = P2PSystem::new();
    for p in [&p1, &p2, &p3] {
        sys.add_peer(p.clone()).expect("fresh peer");
    }
    sys.add_relation(&p1, RelationSchema::new("R1", &["x", "y"]))
        .unwrap();
    sys.add_relation(&p2, RelationSchema::new("R2", &["x", "y"]))
        .unwrap();
    sys.add_relation(&p3, RelationSchema::new("R3", &["x", "y"]))
        .unwrap();
    for (peer, rel, a, b) in [
        (&p1, "R1", "a", "b"),
        (&p1, "R1", "s", "t"),
        (&p2, "R2", "c", "d"),
        (&p2, "R2", "a", "e"),
        (&p3, "R3", "a", "f"),
        (&p3, "R3", "s", "u"),
    ] {
        sys.insert(peer, rel, Tuple::strs([a, b])).unwrap();
    }
    // Σ(P1, P2): ∀xy (R2(x, y) → R1(x, y));  Σ(P1, P3): ∀xyz (R1(x,y) ∧ R3(x,z) → y = z).
    sys.add_dec(
        &p1,
        &p2,
        full_inclusion("sigma_p1_p2", "R2", "R1", 2).unwrap(),
    )
    .unwrap();
    sys.add_dec(&p1, &p3, key_agreement("sigma_p1_p3", "R1", "R3").unwrap())
        .unwrap();
    sys.set_trust(&p1, TrustLevel::Less, &p2).unwrap();
    sys.set_trust(&p1, TrustLevel::Same, &p3).unwrap();
    sys
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalg::Tuple;

    #[test]
    fn example1_system_has_expected_shape() {
        let sys = example1_system();
        assert_eq!(sys.peer_count(), 3);
        assert_eq!(sys.decs().len(), 2);
        assert_eq!(sys.trust().len(), 2);
        let p1 = PeerId::new("P1");
        let (less, same) = sys.trusted_decs_of(&p1);
        assert_eq!(less.len(), 1);
        assert_eq!(same.len(), 1);
        assert_eq!(sys.owner_of("R2"), Some(PeerId::new("P2")));
        assert_eq!(sys.owner_of("Nope"), None);
        let global = sys.global_instance().unwrap();
        assert_eq!(global.tuple_count(), 6);
    }

    #[test]
    fn duplicate_peer_is_rejected() {
        let mut sys = P2PSystem::new();
        sys.add_peer("A").unwrap();
        assert!(matches!(
            sys.add_peer("A"),
            Err(CoreError::DuplicatePeer(_))
        ));
    }

    #[test]
    fn relation_ownership_is_exclusive() {
        let mut sys = P2PSystem::new();
        sys.add_peer("A").unwrap();
        sys.add_peer("B").unwrap();
        let a = PeerId::new("A");
        let b = PeerId::new("B");
        sys.add_relation(&a, RelationSchema::new("R", &["x"]))
            .unwrap();
        let err = sys
            .add_relation(&b, RelationSchema::new("R", &["x"]))
            .unwrap_err();
        assert!(matches!(err, CoreError::RelationOwnedElsewhere { .. }));
        // Re-declaring the same relation for the same peer is fine.
        sys.add_relation(&a, RelationSchema::new("R", &["x"]))
            .unwrap();
    }

    #[test]
    fn insert_validates_peer_and_relation() {
        let mut sys = P2PSystem::new();
        sys.add_peer("A").unwrap();
        let a = PeerId::new("A");
        sys.add_relation(&a, RelationSchema::new("R", &["x"]))
            .unwrap();
        sys.insert(&a, "R", Tuple::strs(["v"])).unwrap();
        assert!(sys.insert(&a, "S", Tuple::strs(["v"])).is_err());
        assert!(sys
            .insert(&PeerId::new("Z"), "R", Tuple::strs(["v"]))
            .is_err());
    }

    #[test]
    fn trusted_decs_ignore_untrusted_targets() {
        let mut sys = example1_system();
        // Add a DEC towards a peer with no trust declaration.
        let p1 = PeerId::new("P1");
        let p3 = PeerId::new("P3");
        // Remove trust toward P3 by rebuilding a fresh system without it:
        let mut fresh = P2PSystem::new();
        for p in ["P1", "P3"] {
            fresh.add_peer(p).unwrap();
        }
        fresh
            .add_relation(&p1, RelationSchema::new("A1", &["x"]))
            .unwrap();
        fresh
            .add_relation(&p3, RelationSchema::new("A3", &["x"]))
            .unwrap();
        fresh
            .add_dec(
                &p1,
                &p3,
                constraints::builders::full_inclusion("d", "A3", "A1", 1).unwrap(),
            )
            .unwrap();
        let (less, same) = fresh.trusted_decs_of(&p1);
        assert!(less.is_empty());
        assert!(same.is_empty());
        // The original system still returns its two trusted DECs.
        let (less, same) = sys.trusted_decs_of(&p1);
        assert_eq!(less.len() + same.len(), 2);
        sys.set_trust(&p1, TrustLevel::Same, &p3).unwrap();
    }

    #[test]
    fn extended_schema_includes_dec_relations() {
        let sys = example1_system();
        let p1 = PeerId::new("P1");
        let schema = sys.extended_schema(&p1).unwrap();
        assert!(schema.contains("R1"));
        assert!(schema.contains("R2"));
        assert!(schema.contains("R3"));
        let p2 = PeerId::new("P2");
        let schema2 = sys.extended_schema(&p2).unwrap();
        assert!(schema2.contains("R2"));
        assert!(!schema2.contains("R1"));
    }

    #[test]
    fn relations_less_and_same_follow_trust() {
        let sys = example1_system();
        let p1 = PeerId::new("P1");
        assert_eq!(sys.relations_less(&p1), BTreeSet::from(["R2".to_string()]));
        assert_eq!(sys.relations_same(&p1), BTreeSet::from(["R3".to_string()]));
    }

    #[test]
    fn restrict_to_peer_keeps_own_relations() {
        let sys = example1_system();
        let p1 = PeerId::new("P1");
        let global = sys.global_instance().unwrap();
        let restricted = sys.restrict_to_peer(&global, &p1).unwrap();
        assert!(restricted.contains_relation("R1"));
        assert!(!restricted.contains_relation("R2"));
    }

    #[test]
    fn trust_relation_accessors() {
        let sys = example1_system();
        let p1 = PeerId::new("P1");
        let p2 = PeerId::new("P2");
        assert_eq!(sys.trust().level(&p1, &p2), Some(TrustLevel::Less));
        assert_eq!(sys.trust().level(&p2, &p1), None);
        assert_eq!(
            sys.trust().more_trusted_than_self(&p1),
            BTreeSet::from([p2])
        );
        assert!(!sys.trust().is_empty());
    }

    #[test]
    fn local_ics_attach_to_peers() {
        let mut sys = example1_system();
        let p1 = PeerId::new("P1");
        sys.add_local_ic(&p1, constraints::builders::key_denial("fd", "R1").unwrap())
            .unwrap();
        assert_eq!(sys.peer(&p1).unwrap().local_ics.len(), 1);
        assert!(sys
            .add_local_ic(
                &PeerId::new("ZZ"),
                constraints::builders::key_denial("fd", "R1").unwrap()
            )
            .is_err());
    }

    #[test]
    fn delete_removes_tuples_and_validates() {
        let mut sys = example1_system();
        let p1 = PeerId::new("P1");
        assert!(sys.delete(&p1, "R1", &Tuple::strs(["a", "b"])).unwrap());
        assert!(!sys.delete(&p1, "R1", &Tuple::strs(["a", "b"])).unwrap());
        assert!(sys.delete(&p1, "R2", &Tuple::strs(["c", "d"])).is_err());
        assert!(sys
            .delete(&PeerId::new("Z"), "R1", &Tuple::strs(["a", "b"]))
            .is_err());
    }

    #[test]
    fn apply_delta_is_validated_and_atomic() {
        use relalg::database::GroundAtom;
        use relalg::Delta;
        let mut sys = example1_system();
        let p1 = PeerId::new("P1");
        let good = Delta::from_changes(
            [GroundAtom::new("R1", Tuple::strs(["n", "m"]))],
            [GroundAtom::new("R1", Tuple::strs(["a", "b"]))],
        );
        sys.apply_delta(&p1, &good).unwrap();
        let inst = &sys.peer(&p1).unwrap().instance;
        assert!(inst.holds("R1", &Tuple::strs(["n", "m"])));
        assert!(!inst.holds("R1", &Tuple::strs(["a", "b"])));
        // A delta touching a foreign relation is rejected before any change.
        let bad = Delta::from_changes(
            [
                GroundAtom::new("R1", Tuple::strs(["p", "q"])),
                GroundAtom::new("R2", Tuple::strs(["p", "q"])),
            ],
            [],
        );
        assert!(sys.apply_delta(&p1, &bad).is_err());
        assert!(!sys
            .peer(&p1)
            .unwrap()
            .instance
            .holds("R1", &Tuple::strs(["p", "q"])));
        // An arity mismatch is also caught before anything is applied.
        let bad_arity = Delta::from_changes(
            [
                GroundAtom::new("R1", Tuple::strs(["ok", "row"])),
                GroundAtom::new("R1", Tuple::strs(["just-one"])),
            ],
            [],
        );
        assert!(sys.apply_delta(&p1, &bad_arity).is_err());
        assert!(!sys
            .peer(&p1)
            .unwrap()
            .instance
            .holds("R1", &Tuple::strs(["ok", "row"])));
    }

    #[test]
    fn dependency_closure_follows_dec_edges() {
        let sys = example1_system();
        let p1 = PeerId::new("P1");
        let p2 = PeerId::new("P2");
        let p3 = PeerId::new("P3");
        assert_eq!(
            sys.dependencies_of(&p1),
            BTreeSet::from([p1.clone(), p2.clone(), p3.clone()])
        );
        assert_eq!(sys.dependencies_of(&p2), BTreeSet::from([p2.clone()]));
        assert_eq!(sys.dependencies_of(&p3), BTreeSet::from([p3.clone()]));
        // Touching P2 affects P1 (whose DECs read P2) and P2 itself, not P3.
        assert_eq!(
            sys.affected_by(&BTreeSet::from([p2.clone()])),
            BTreeSet::from([p1.clone(), p2.clone()])
        );
        // Touching P1 affects only P1: nobody owns a DEC towards it.
        assert_eq!(
            sys.affected_by(&BTreeSet::from([p1.clone()])),
            BTreeSet::from([p1])
        );
    }

    #[test]
    fn dependency_closure_is_transitive_over_chains() {
        let mut sys = P2PSystem::new();
        for p in ["A", "B", "C"] {
            sys.add_peer(p).unwrap();
        }
        let (a, b, c) = (PeerId::new("A"), PeerId::new("B"), PeerId::new("C"));
        for (peer, rel) in [(&a, "RA"), (&b, "RB"), (&c, "RC")] {
            sys.add_relation(peer, RelationSchema::new(rel, &["x"]))
                .unwrap();
        }
        sys.add_dec(
            &a,
            &b,
            constraints::builders::full_inclusion("dab", "RB", "RA", 1).unwrap(),
        )
        .unwrap();
        sys.add_dec(
            &b,
            &c,
            constraints::builders::full_inclusion("dbc", "RC", "RB", 1).unwrap(),
        )
        .unwrap();
        assert_eq!(
            sys.dependencies_of(&a),
            BTreeSet::from([a.clone(), b.clone(), c.clone()])
        );
        // A change to C ripples back to everyone upstream of it.
        assert_eq!(
            sys.affected_by(&BTreeSet::from([c.clone()])),
            BTreeSet::from([a, b, c])
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(PeerId::new("P1").to_string(), "P1");
        assert_eq!(TrustLevel::Less.to_string(), "less");
        let sys = example1_system();
        let dec_text = sys.decs()[0].to_string();
        assert!(dec_text.contains("Σ(P1, P2)"));
    }
}
