//! Static analysis of peer specifications: structured diagnostics over a
//! [`P2PSystem`], its DECs, trust relation, local ICs and the generated
//! specification programs.
//!
//! The paper's semantics puts hard structural preconditions on peer
//! specifications — rule safety, stratification and odd-negative-loop
//! handling, the rewritable DEC class behind
//! [`crate::engine::Strategy::Auto`], acyclicity of the DEC network — which
//! historically surfaced only at grounding or solve time, or were folded
//! silently into an unexplained strategy choice. This module makes them
//! checkable *before any query runs*:
//!
//! * [`P2PSystem::analyze`] runs every pass and returns a [`Report`] of
//!   [`Diagnostic`]s with stable codes (`PDES-A001`…), severities and
//!   machine-readable payloads;
//! * [`classify_rewritability`] is the extracted `Strategy::Auto` decision:
//!   the engine consumes it (see [`crate::engine::QueryEngine::resolve`]) and
//!   every non-rewritable verdict carries its diagnostic code, surfaced on
//!   [`crate::engine::EngineStats::auto_reason`];
//! * [`check_constraint`] and [`check_program`] are the reusable pass
//!   primitives, public so the `pdes-analyze` crate (and its defect-injection
//!   tests) can drive them directly.
//!
//! The user-facing surface — the `pdes-lint` CLI, DSL/workload loading and
//! the crate-level docs with the full code table — lives in the downstream
//! `pdes-analyze` crate, which re-exports everything here. The passes
//! themselves live in `pdes-core` so the engine can consume the same
//! classification without a dependency cycle.

use crate::asp::annotated_program;
use crate::error::CoreError;
use crate::rewriting;
use crate::system::{P2PSystem, PeerId, TrustLevel};
use crate::Result;
use constraints::Constraint;
use datalog::PredicateGraph;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The stable diagnostic codes, grouped by pass.
///
/// `A0xx` — schema & safety (errors), `A1xx` — negation analysis, `A2xx` —
/// DEC-network topology, `A3xx` — rewritability classification.
pub mod codes {
    /// A specification file does not parse / load at all.
    pub const PARSE: &str = "PDES-A000";
    /// A constraint references a relation no peer declares.
    pub const UNKNOWN_RELATION: &str = "PDES-A001";
    /// A constraint atom's arity differs from the declared schema.
    pub const ARITY_MISMATCH: &str = "PDES-A002";
    /// A constraint is unsafe (empty body, or a condition / equality-head
    /// variable unbound in the body).
    pub const UNSAFE_CONSTRAINT: &str = "PDES-A003";
    /// A peer's specification program contains an unsafe rule.
    pub const UNSAFE_RULE: &str = "PDES-A004";
    /// A DEC mentions a relation owned by neither endpoint (or a local IC
    /// mentions another peer's relation).
    pub const FOREIGN_RELATION: &str = "PDES-A005";
    /// Generating a peer's specification program failed outright.
    pub const SPEC_GENERATION: &str = "PDES-A006";
    /// A specification program has a cycle with an odd number of negative
    /// edges (atoms can become unsupportable).
    pub const ODD_NEGATIVE_LOOP: &str = "PDES-A101";
    /// A specification program is not stratified (even recursion through
    /// negation; resolved by stable-model search, reported for visibility).
    pub const UNSTRATIFIED: &str = "PDES-A102";
    /// Complementary classically-negated facts `p(ā)` and `-p(ā)`.
    pub const CLASSICAL_CLASH: &str = "PDES-A103";
    /// The DEC network has a cycle among peers.
    pub const DEC_CYCLE: &str = "PDES-A201";
    /// A peer participates in no DEC at all (isolated from the exchange).
    pub const ISOLATED_PEER: &str = "PDES-A202";
    /// A peer declares no relations.
    pub const EMPTY_SCHEMA: &str = "PDES-A203";
    /// A trust entry between peers that share no DEC in either direction.
    pub const DANGLING_TRUST: &str = "PDES-A204";
    /// Asymmetric (or mutually deferring) trust between two peers.
    pub const TRUST_ASYMMETRY: &str = "PDES-A205";
    /// A DEC whose owner declares no trust towards the other peer (the
    /// semantics ignores such DECs).
    pub const UNTRUSTED_DEC: &str = "PDES-A206";
    /// The whole DEC network is one closure-connected component: every
    /// peer is (transitively) relevant to every other, so closure-based
    /// sharding degenerates to a single shard (sharding-hostile topology).
    pub const SHARDING_HOSTILE: &str = "PDES-A207";
    /// Not rewritable: the peer has local integrity constraints.
    pub const REWRITE_LOCAL_ICS: &str = "PDES-A301";
    /// Not rewritable: a DEC towards a more-trusted peer is not a full
    /// inclusion into one of the peer's relations.
    pub const REWRITE_NOT_INCLUSION: &str = "PDES-A302";
    /// Not rewritable: a DEC towards a same-trusted peer is not a binary
    /// key-agreement constraint.
    pub const REWRITE_NOT_KEY_AGREEMENT: &str = "PDES-A303";
    /// `Strategy::Auto` fell back to ASP because the *query* is outside the
    /// positive existential fragment (per query, never in a [`Report`](super::Report)).
    pub const REWRITE_QUERY_FRAGMENT: &str = "PDES-A304";
}

/// Severity of a [`Diagnostic`]. Ordered most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The specification is ill-formed; answering over it is unsound or
    /// will fail. Errors make [`Report::is_clean`] false and are what
    /// `strict_analysis` / `pdes-lint` refuse on.
    Error,
    /// Suspicious but answerable (e.g. a DEC cycle, trust asymmetry).
    Warning,
    /// Explanatory (e.g. why `Strategy::Auto` picks ASP over rewriting).
    Info,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
            Severity::Info => write!(f, "info"),
        }
    }
}

/// Where a [`Diagnostic`] points.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Location {
    /// The system as a whole (or a source file that failed to load).
    System,
    /// One peer (its schema, instance or specification program).
    Peer(PeerId),
    /// One DEC, identified by its index in [`P2PSystem::decs`] order.
    Dec {
        /// The DEC's owner.
        owner: PeerId,
        /// The other peer of the DEC.
        other: PeerId,
        /// Index into [`P2PSystem::decs`].
        index: usize,
        /// The constraint's name.
        name: String,
    },
    /// One local integrity constraint of a peer.
    Ic {
        /// The peer declaring the IC.
        peer: PeerId,
        /// The constraint's name.
        name: String,
    },
    /// One trust entry `who → whom`.
    Trust {
        /// The trusting peer.
        who: PeerId,
        /// The trusted peer.
        whom: PeerId,
    },
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::System => write!(f, "system"),
            Location::Peer(p) => write!(f, "peer {p}"),
            Location::Dec {
                owner,
                other,
                index,
                name,
            } => write!(f, "dec `{name}` #{index} ({owner} -> {other})"),
            Location::Ic { peer, name } => write!(f, "ic `{name}` ({peer})"),
            Location::Trust { who, whom } => write!(f, "trust {who} -> {whom}"),
        }
    }
}

/// One finding of the static analyzer: a stable code, a severity, a
/// location, a one-line explanation and a machine-readable payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (one of [`codes`]), safe to match on across releases.
    pub code: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// What it points at.
    pub location: Location,
    /// One-line human-readable explanation.
    pub message: String,
    /// Machine-readable key/value payload (cycle witnesses, arities, …).
    pub payload: Vec<(String, String)>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.location, self.message
        )
    }
}

/// The outcome of [`P2PSystem::analyze`]: every diagnostic of every pass,
/// in pass order (schema/safety, negation, topology, rewritability).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Wrap an explicit diagnostic list (used by loaders that map parse
    /// failures onto diagnostics).
    pub fn from_diagnostics(diagnostics: Vec<Diagnostic>) -> Self {
        Report { diagnostics }
    }

    /// All diagnostics, in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of diagnostics at the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// True when the report has no *errors* (warnings and infos allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// True when some diagnostic carries the given code.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// The diagnostics carrying the given code.
    pub fn with_code(&self, code: &str) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// Render every diagnostic, one per line, most severe first.
    pub fn render(&self) -> String {
        let mut sorted: Vec<&Diagnostic> = self.diagnostics.iter().collect();
        sorted.sort_by_key(|d| d.severity);
        sorted
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    fn extend(&mut self, diagnostics: Vec<Diagnostic>) {
        self.diagnostics.extend(diagnostics);
    }
}

/// The rewritability classification of one peer: the extracted
/// [`crate::engine::Strategy::Auto`] decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteVerdict {
    /// The peer's DEC/trust/IC configuration is in the Example 2 fragment:
    /// FO rewriting answers positive existential queries exactly.
    Rewritable,
    /// The configuration falls outside the fragment; `Auto` uses ASP.
    NotRewritable {
        /// The diagnostic code of the disqualifying reason
        /// ([`codes::REWRITE_LOCAL_ICS`] / [`codes::REWRITE_NOT_INCLUSION`] /
        /// [`codes::REWRITE_NOT_KEY_AGREEMENT`]).
        code: &'static str,
        /// Human-readable explanation naming the offending IC/DEC.
        reason: String,
    },
}

/// Classify whether `peer`'s DEC/trust/IC configuration admits the
/// first-order rewriting mechanism (pass 4 of the analyzer, and the
/// peer-side half of the `Strategy::Auto` decision — the query-side half is
/// the positive-existential check, reported as
/// [`codes::REWRITE_QUERY_FRAGMENT`]).
///
/// Errors only when `peer` (or a DEC endpoint) is unknown. The verdict is
/// definitionally identical to [`crate::rewriting::rewrite_query`]'s
/// acceptance: both are driven by the same shape recognizers.
pub fn classify_rewritability(system: &P2PSystem, peer: &PeerId) -> Result<RewriteVerdict> {
    let peer_data = system.peer(peer)?;
    if !peer_data.local_ics.is_empty() {
        return Ok(RewriteVerdict::NotRewritable {
            code: codes::REWRITE_LOCAL_ICS,
            reason: format!(
                "peer {peer} declares {} local integrity constraint(s); \
                 FO rewriting does not handle local ICs",
                peer_data.local_ics.len()
            ),
        });
    }
    let (less, same) = system.trusted_decs_of(peer);
    for dec in less {
        if rewriting::inclusion_target(&dec.constraint, peer_data, system, &dec.other)?.is_none() {
            return Ok(RewriteVerdict::NotRewritable {
                code: codes::REWRITE_NOT_INCLUSION,
                reason: format!(
                    "DEC `{}` towards more-trusted {} is not a full inclusion \
                     into one of {peer}'s relations",
                    dec.constraint.name, dec.other
                ),
            });
        }
    }
    for dec in same {
        if rewriting::key_agreement_shape(&dec.constraint, peer_data)?.is_none() {
            return Ok(RewriteVerdict::NotRewritable {
                code: codes::REWRITE_NOT_KEY_AGREEMENT,
                reason: format!(
                    "DEC `{}` towards same-trusted {} is not a binary \
                     key-agreement constraint",
                    dec.constraint.name, dec.other
                ),
            });
        }
    }
    Ok(RewriteVerdict::Rewritable)
}

/// Map an eager-validation [`CoreError`] onto the analyzer diagnostic code
/// of its batch-mode equivalent (used by the DSL loader so `pdes-lint`
/// reports construction-time failures under the same stable codes).
pub fn code_for_error(error: &CoreError) -> Option<&'static str> {
    match error {
        CoreError::ConstraintUnknownRelation { .. } => Some(codes::UNKNOWN_RELATION),
        CoreError::ConstraintArity { .. } => Some(codes::ARITY_MISMATCH),
        CoreError::UnknownRelation { .. } => Some(codes::UNKNOWN_RELATION),
        CoreError::Constraint(_) => Some(codes::UNSAFE_CONSTRAINT),
        CoreError::Relalg(relalg::RelalgError::ArityMismatch { .. }) => Some(codes::ARITY_MISMATCH),
        _ => None,
    }
}

/// Pass 1 primitive: validate one constraint against a relation →
/// `(owner, arity)` map. Emits [`codes::UNSAFE_CONSTRAINT`] (safety),
/// [`codes::UNKNOWN_RELATION`], [`codes::ARITY_MISMATCH`] and — when
/// `endpoints` is given — [`codes::FOREIGN_RELATION`] for relations owned
/// by a peer outside the endpoint set.
pub fn check_constraint(
    constraint: &Constraint,
    location: &Location,
    arities: &BTreeMap<String, (PeerId, usize)>,
    endpoints: Option<&[&PeerId]>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if let Err(e) = constraint.check_safety() {
        out.push(Diagnostic {
            code: codes::UNSAFE_CONSTRAINT,
            severity: Severity::Error,
            location: location.clone(),
            message: format!("unsafe constraint: {e}"),
            payload: vec![("constraint".into(), constraint.name.clone())],
        });
    }
    for atom in constraint.body.iter().chain(constraint.head_atoms().iter()) {
        match arities.get(&atom.relation) {
            None => out.push(Diagnostic {
                code: codes::UNKNOWN_RELATION,
                severity: Severity::Error,
                location: location.clone(),
                message: format!("relation `{}` is not declared by any peer", atom.relation),
                payload: vec![("relation".into(), atom.relation.clone())],
            }),
            Some((owner, arity)) => {
                if *arity != atom.terms.len() {
                    out.push(Diagnostic {
                        code: codes::ARITY_MISMATCH,
                        severity: Severity::Error,
                        location: location.clone(),
                        message: format!(
                            "relation `{}` used with arity {}, declared with arity {arity}",
                            atom.relation,
                            atom.terms.len()
                        ),
                        payload: vec![
                            ("relation".into(), atom.relation.clone()),
                            ("expected".into(), arity.to_string()),
                            ("found".into(), atom.terms.len().to_string()),
                        ],
                    });
                }
                if let Some(allowed) = endpoints {
                    if !allowed.contains(&owner) {
                        out.push(Diagnostic {
                            code: codes::FOREIGN_RELATION,
                            severity: Severity::Warning,
                            location: location.clone(),
                            message: format!(
                                "relation `{}` is owned by {owner}, which is not an \
                                 endpoint of this constraint",
                                atom.relation
                            ),
                            payload: vec![
                                ("relation".into(), atom.relation.clone()),
                                ("owner".into(), owner.to_string()),
                            ],
                        });
                    }
                }
            }
        }
    }
    out
}

/// Pass 2 primitive: rule safety plus negation analysis of one datalog
/// program. Emits [`codes::UNSAFE_RULE`] per unsafe rule,
/// [`codes::ODD_NEGATIVE_LOOP`] per odd recursion-through-negation
/// component (with the cycle witness in the payload), one
/// [`codes::UNSTRATIFIED`] info when only even loops remain, and
/// [`codes::CLASSICAL_CLASH`] for complementary ground facts.
pub fn check_program(location: &Location, program: &datalog::Program) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rule in program.unsafe_rules() {
        out.push(Diagnostic {
            code: codes::UNSAFE_RULE,
            severity: Severity::Error,
            location: location.clone(),
            message: format!("unsafe rule: {rule}"),
            payload: vec![("rule".into(), rule.to_string())],
        });
    }

    let graph = PredicateGraph::new(program);
    let loops = graph.negation_loops();
    let mut even_loops = 0usize;
    for l in &loops {
        if l.odd_core.is_empty() {
            even_loops += 1;
            continue;
        }
        out.push(Diagnostic {
            code: codes::ODD_NEGATIVE_LOOP,
            severity: Severity::Warning,
            location: location.clone(),
            message: format!(
                "odd negative loop through {} (atoms on it can become unsupportable)",
                l.odd_core.join(" -> ")
            ),
            payload: vec![
                ("cycle".into(), l.odd_core.join(",")),
                ("component".into(), l.predicates.join(",")),
            ],
        });
    }
    if even_loops > 0 {
        out.push(Diagnostic {
            code: codes::UNSTRATIFIED,
            severity: Severity::Info,
            location: location.clone(),
            message: format!(
                "not stratified: {even_loops} even negative loop(s); \
                 resolved by stable-model search"
            ),
            payload: vec![("even_loops".into(), even_loops.to_string())],
        });
    }

    // Complementary classically-negated facts.
    let mut seen: BTreeMap<(String, String), bool> = BTreeMap::new();
    for rule in program.rules() {
        if !rule.body.is_empty() || rule.head.len() != 1 {
            continue;
        }
        let atom = &rule.head[0];
        let terms = atom
            .terms
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let key = (atom.predicate.clone(), terms);
        if let Some(&prior) = seen.get(&key) {
            if prior != atom.strong_neg {
                out.push(Diagnostic {
                    code: codes::CLASSICAL_CLASH,
                    severity: Severity::Warning,
                    location: location.clone(),
                    message: format!("complementary facts {0}({1}) and -{0}({1})", key.0, key.1),
                    payload: vec![("predicate".into(), key.0.clone())],
                });
            }
        } else {
            seen.insert(key, atom.strong_neg);
        }
    }
    out
}

/// The relation → `(owner, declared arity)` map of a system.
fn relation_arities(system: &P2PSystem) -> BTreeMap<String, (PeerId, usize)> {
    let mut out = BTreeMap::new();
    for peer in system.peers() {
        for schema in peer.schema.relations() {
            out.insert(schema.name().to_string(), (peer.id.clone(), schema.arity()));
        }
    }
    out
}

/// Pass 3: DEC-network topology and trust hygiene.
fn check_topology(system: &P2PSystem, report: &mut Report) {
    let peers: Vec<PeerId> = system.peer_ids().cloned().collect();
    let index: BTreeMap<&PeerId, usize> = peers.iter().enumerate().map(|(i, p)| (p, i)).collect();

    // DEC graph: owner → other, deduplicated.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); peers.len()];
    let mut touched: BTreeSet<usize> = BTreeSet::new();
    let mut linked: BTreeSet<(usize, usize)> = BTreeSet::new();
    for dec in system.decs() {
        let (a, b) = (index[&dec.owner], index[&dec.other]);
        if !edges[a].contains(&b) {
            edges[a].push(b);
        }
        touched.insert(a);
        touched.insert(b);
        linked.insert((a.min(b), a.max(b)));
    }

    // Cycles among peers: SCCs of size > 1, or self-DECs.
    let component = datalog::graph::strongly_connected_components(peers.len(), &edges);
    let mut by_component: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (node, &comp) in component.iter().enumerate() {
        by_component.entry(comp).or_default().push(node);
    }
    for members in by_component.values() {
        let cyclic =
            members.len() > 1 || (members.len() == 1 && edges[members[0]].contains(&members[0]));
        if !cyclic {
            continue;
        }
        let names: Vec<String> = members.iter().map(|&i| peers[i].to_string()).collect();
        report.push(Diagnostic {
            code: codes::DEC_CYCLE,
            severity: Severity::Warning,
            location: Location::System,
            message: format!(
                "DEC cycle among peers {} (the paper's direct semantics assumes \
                 an acyclic exchange; answers may depend on loop handling)",
                names.join(" -> ")
            ),
            payload: vec![("cycle".into(), names.join(","))],
        });
    }

    for (i, peer) in peers.iter().enumerate() {
        if peers.len() > 1 && !touched.contains(&i) {
            report.push(Diagnostic {
                code: codes::ISOLATED_PEER,
                severity: Severity::Info,
                location: Location::Peer(peer.clone()),
                message: "peer participates in no DEC; queries never see other peers' data"
                    .to_string(),
                payload: Vec::new(),
            });
        }
        if system
            .peer(peer)
            .map(|p| p.schema.relations().next().is_none())
            .unwrap_or(false)
        {
            report.push(Diagnostic {
                code: codes::EMPTY_SCHEMA,
                severity: Severity::Warning,
                location: Location::Peer(peer.clone()),
                message: "peer declares no relations".to_string(),
                payload: Vec::new(),
            });
        }
    }

    // Sharding affinity: if the *undirected* DEC graph is one component
    // spanning every peer, closure-connected-component partitioning (the
    // sharded store's placement unit) can never use more than one shard.
    if peers.len() > 1 {
        let mut parent: Vec<usize> = (0..peers.len()).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        for &(a, b) in &linked {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            parent[ra.max(rb)] = ra.min(rb);
        }
        let roots: BTreeSet<usize> = (0..peers.len()).map(|i| find(&mut parent, i)).collect();
        if roots.len() == 1 {
            report.push(Diagnostic {
                code: codes::SHARDING_HOSTILE,
                severity: Severity::Info,
                location: Location::System,
                message: format!(
                    "the DEC network is one closure-connected component spanning all \
                     {} peers; closure-based sharding degenerates to a single shard",
                    peers.len()
                ),
                payload: vec![("peers".into(), peers.len().to_string())],
            });
        }
    }

    // Trust hygiene.
    let mut seen_pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (who, level, whom) in system.trust().entries() {
        let (a, b) = (index[who], index[whom]);
        if !linked.contains(&(a.min(b), a.max(b))) {
            report.push(Diagnostic {
                code: codes::DANGLING_TRUST,
                severity: Severity::Warning,
                location: Location::Trust {
                    who: who.clone(),
                    whom: whom.clone(),
                },
                message: "trust declared between peers that share no DEC".to_string(),
                payload: Vec::new(),
            });
        }
        let pair = (a.min(b), a.max(b));
        if !seen_pairs.insert(pair) {
            continue; // the asymmetry of this pair was already judged
        }
        if let Some(back) = system.trust().level(whom, who) {
            let asymmetric = back != level;
            let mutual_deference = back == TrustLevel::Less && level == TrustLevel::Less;
            if asymmetric || mutual_deference {
                report.push(Diagnostic {
                    code: codes::TRUST_ASYMMETRY,
                    severity: Severity::Warning,
                    location: Location::Trust {
                        who: who.clone(),
                        whom: whom.clone(),
                    },
                    message: if mutual_deference {
                        format!(
                            "mutual deference: {who} and {whom} each trust the other \
                             more than themselves"
                        )
                    } else {
                        format!(
                            "asymmetric trust: {who} -> {whom} is {level:?} but \
                             {whom} -> {who} is {back:?}"
                        )
                    },
                    payload: vec![
                        ("forward".into(), format!("{level:?}")),
                        ("backward".into(), format!("{back:?}")),
                    ],
                });
            }
        }
    }

    // DECs the semantics silently ignores (no trust declared).
    for (idx, dec) in system.decs().iter().enumerate() {
        if system.trust().level(&dec.owner, &dec.other).is_none() {
            report.push(Diagnostic {
                code: codes::UNTRUSTED_DEC,
                severity: Severity::Warning,
                location: Location::Dec {
                    owner: dec.owner.clone(),
                    other: dec.other.clone(),
                    index: idx,
                    name: dec.constraint.name.clone(),
                },
                message: format!(
                    "no trust declared from {} towards {}; the DEC is ignored by \
                     the semantics",
                    dec.owner, dec.other
                ),
                payload: Vec::new(),
            });
        }
    }
}

impl P2PSystem {
    /// Run every static-analysis pass over this system and collect the
    /// diagnostics: (1) schema/arity/safety validation of every DEC and
    /// local IC, (2) negation analysis of every peer's specification
    /// program, (3) DEC-network topology and trust hygiene, (4)
    /// rewritability classification (why [`crate::engine::Strategy::Auto`]
    /// would, or would not, use the FO rewriting for each peer).
    ///
    /// The report is deterministic: same system, same diagnostics, same
    /// order — which is what the CI smoke gate counts exactly.
    pub fn analyze(&self) -> Report {
        self.analyze_with_verdicts().0
    }

    /// [`P2PSystem::analyze`], plus pass 4's verdict for every peer it could
    /// classify: the engine's [`crate::engine::Strategy::Auto`] reads these.
    pub(crate) fn analyze_with_verdicts(&self) -> (Report, BTreeMap<PeerId, RewriteVerdict>) {
        let mut report = Report::default();
        let arities = relation_arities(self);

        // Pass 1: DECs and local ICs against the declared schemas.
        for peer in self.peers() {
            for ic in &peer.local_ics {
                let location = Location::Ic {
                    peer: peer.id.clone(),
                    name: ic.name.clone(),
                };
                report.extend(check_constraint(ic, &location, &arities, Some(&[&peer.id])));
            }
        }
        for (index, dec) in self.decs().iter().enumerate() {
            let location = Location::Dec {
                owner: dec.owner.clone(),
                other: dec.other.clone(),
                index,
                name: dec.constraint.name.clone(),
            };
            report.extend(check_constraint(
                &dec.constraint,
                &location,
                &arities,
                Some(&[&dec.owner, &dec.other]),
            ));
        }
        let schema_errors = report.error_count();

        // Pass 2: per-peer specification programs. Generation failures are
        // only reported when pass 1 was clean — otherwise they are a
        // consequence of the schema errors already on record.
        for peer in self.peers() {
            let location = Location::Peer(peer.id.clone());
            match annotated_program(self, &peer.id) {
                Ok(spec) => report.extend(check_program(&location, &spec.program)),
                Err(e) if schema_errors == 0 => report.push(Diagnostic {
                    code: codes::SPEC_GENERATION,
                    severity: Severity::Error,
                    location,
                    message: format!("could not generate the specification program: {e}"),
                    payload: Vec::new(),
                }),
                Err(_) => {}
            }
        }

        // Pass 3: topology and trust.
        check_topology(self, &mut report);

        // Pass 4: rewritability classification, one info per non-rewritable
        // peer that actually exchanges data.
        let mut verdicts = BTreeMap::new();
        for peer in self.peers() {
            let Ok(verdict) = classify_rewritability(self, &peer.id) else {
                continue;
            };
            if let RewriteVerdict::NotRewritable { code, reason } = &verdict {
                report.push(Diagnostic {
                    code,
                    severity: Severity::Info,
                    location: Location::Peer(peer.id.clone()),
                    message: format!("not rewritable: {reason}; Strategy::Auto uses ASP"),
                    payload: Vec::new(),
                });
            }
            verdicts.insert(peer.id.clone(), verdict);
        }

        (report, verdicts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::example1_system;
    use constraints::{AtomPattern, ConstraintHead};
    use relalg::query::Term;

    #[test]
    fn example1_is_error_free_and_rewritable() {
        let system = example1_system();
        let report = system.analyze();
        assert!(report.is_clean(), "unexpected errors:\n{}", report.render());
        let verdict = classify_rewritability(&system, &PeerId::new("P1")).unwrap();
        assert_eq!(verdict, RewriteVerdict::Rewritable);
    }

    #[test]
    fn classification_matches_the_rewrite_compiler() {
        let system = example1_system();
        for peer in system.peer_ids() {
            let classified = matches!(
                classify_rewritability(&system, peer).unwrap(),
                RewriteVerdict::Rewritable
            );
            assert_eq!(
                classified,
                rewriting::compile_rewrites(&system, peer).is_ok(),
                "peer {peer}"
            );
        }
    }

    #[test]
    fn injected_arity_mismatch_is_reported() {
        let mut system = example1_system();
        let bad = Constraint::new(
            "bad_arity",
            vec![AtomPattern::new(
                "R2",
                vec![Term::var("X"), Term::var("Y"), Term::var("Z")],
            )],
            vec![],
            ConstraintHead::Atoms(vec![AtomPattern::new(
                "R1",
                vec![Term::var("X"), Term::var("Y")],
            )]),
        )
        .unwrap();
        system
            .add_dec_unchecked(&PeerId::new("P1"), &PeerId::new("P2"), bad)
            .unwrap();
        let report = system.analyze();
        assert!(report.has_code(codes::ARITY_MISMATCH));
        assert!(!report.is_clean());
    }

    #[test]
    fn eager_validation_rejects_what_the_analyzer_flags() {
        let mut system = example1_system();
        let unknown = Constraint::new(
            "unknown_rel",
            vec![AtomPattern::new("Nope", vec![Term::var("X")])],
            vec![],
            ConstraintHead::False,
        )
        .unwrap();
        let err = system
            .add_dec(&PeerId::new("P1"), &PeerId::new("P2"), unknown)
            .unwrap_err();
        assert_eq!(code_for_error(&err), Some(codes::UNKNOWN_RELATION));

        let short = Constraint::new(
            "short",
            vec![AtomPattern::new("R1", vec![Term::var("X")])],
            vec![],
            ConstraintHead::False,
        )
        .unwrap();
        let err = system.add_local_ic(&PeerId::new("P1"), short).unwrap_err();
        assert_eq!(code_for_error(&err), Some(codes::ARITY_MISMATCH));
    }

    #[test]
    fn report_counts_and_rendering() {
        let report = Report::from_diagnostics(vec![Diagnostic {
            code: codes::DEC_CYCLE,
            severity: Severity::Warning,
            location: Location::System,
            message: "x".into(),
            payload: vec![],
        }]);
        assert_eq!(report.warning_count(), 1);
        assert!(report.is_clean());
        assert!(report.render().contains("PDES-A201"));
    }
}
