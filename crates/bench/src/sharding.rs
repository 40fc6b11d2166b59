//! The disjoint-chain system behind the smoke gate's sharded leg.
//!
//! Four *disjoint* DEC chains (built through the DSL so relation names stay
//! globally unique): each chain is one closure-connected component, so a
//! [`pdes_store::ShardedStore`] places whole chains on shards and a
//! chain-head query's relevant-peer closure is exactly its chain.

use std::fmt::Write as _;

/// Disjoint chains in the system (so up to four shards get distinct
/// components).
const CHAINS: usize = 4;

/// DSL source for `CHAINS` disjoint chains of `len` peers: peer `c<k>p<i>`
/// owns `T<k>_<i>(k, v)` and imports from `c<k>p<i+1>` (so a head query's
/// closure is its whole chain), with a handful of facts per relation.
fn chain_source(len: usize) -> String {
    let mut out = String::new();
    for chain in 0..CHAINS {
        for pos in 0..len {
            writeln!(out, "peer c{chain}p{pos}").unwrap();
            writeln!(out, "relation c{chain}p{pos} T{chain}_{pos}(k, v)").unwrap();
            for t in 0..3 {
                writeln!(out, "fact T{chain}_{pos}(k{chain}_{pos}_{t}, v{t})").unwrap();
            }
        }
        for pos in 0..len.saturating_sub(1) {
            writeln!(
                out,
                "trust c{chain}p{pos} less c{chain}p{next}",
                next = pos + 1
            )
            .unwrap();
            writeln!(
                out,
                "dec d{chain}_{pos} c{chain}p{pos} c{chain}p{next}: \
                 T{chain}_{next}(X, Y) -> T{chain}_{pos}(X, Y)",
                next = pos + 1
            )
            .unwrap();
        }
    }
    out
}

/// The deterministic chain system of the smoke gate's sharded leg: four
/// disjoint chains of `len` peers each.
pub fn chain_system(len: usize) -> Result<pdes_core::system::P2PSystem, String> {
    dsl::parse(&chain_source(len))
        .map(|parsed| parsed.system)
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdes_core::system::PeerId;

    #[test]
    fn chain_source_parses_into_disjoint_chains() {
        let parsed = dsl::parse(&chain_source(3)).expect("valid source");
        assert_eq!(parsed.system.peer_count(), CHAINS * 3);
        let head = PeerId::new("c1p0");
        let closure = parsed.system.dependencies_of(&head);
        assert_eq!(closure.len(), 3, "a head's closure is its own chain only");
    }
}
