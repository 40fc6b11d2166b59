//! Live updates over the paper's Example 1 system: claim the session's
//! single `Writer`, commit changes to a peer's instance through a
//! transaction, and watch the engine invalidate exactly the memoized
//! artifacts whose relevant-peer closure contains the touched peer —
//! queries against unrelated peers stay warm, and artifacts inside the
//! closure are repaired on the committing thread. A second transaction
//! spans two peers and is still one commit: the store publishes it as one
//! epoch, whose number is the receipt's sequence number.
//!
//! Run with `cargo run --release --example live_updates`.

use p2p_data_exchange::{Formula, PeerId, Query, QueryEngine, Session, Strategy, Tuple};
use pdes_core::system::example1_system;
use std::collections::BTreeSet;

fn main() {
    // Example 1: P1 imports from P2 (inclusion DEC, trusted more) and
    // arbitrates with P3 (key-agreement DEC, trusted the same). P3 owns no
    // DECs, so its relevant-peer closure is just {P3}.
    let engine = QueryEngine::builder(example1_system())
        .strategy(Strategy::Asp)
        .build();
    let session = Session::with_engine(engine);
    let p1 = PeerId::new("P1");
    let p2 = PeerId::new("P2");
    let p3 = PeerId::new("P3");
    let q1 = Query::named("P1", Formula::atom("R1", vec!["X", "Y"]), &["X", "Y"]);
    let q3 = Query::named("P3", Formula::atom("R3", vec!["X", "Y"]), &["X", "Y"]);

    println!("closure of P1: {:?}", session.engine().relevant_peers(&p1));
    println!(
        "closure of P3: {:?}\n",
        session.engine().relevant_peers(&p3)
    );

    // Warm both peers' artifacts — reads take `&self`.
    let a1 = session.query(&q1).expect("query P1");
    let a3 = session.query(&q3).expect("query P3");
    println!("cold P1 answers: {} tuples", a1.len());
    println!("cold P3 answers: {} tuples\n", a3.len());

    // Claim the single writer and commit an update to P2: one insertion,
    // one deletion.
    let mut writer = session.writer().expect("first claim");
    let mut tx = writer.begin();
    tx.insert(&p2, "R2", Tuple::strs(["x", "y"]))
        .expect("stage insert");
    tx.delete(&p2, "R2", &Tuple::strs(["c", "d"]))
        .expect("stage delete");
    let receipt = tx.commit().expect("commit");
    println!(
        "committed seq {} touching {:?}: {} artifact(s) invalidated, closure {:?}",
        receipt.seq, receipt.touched, receipt.invalidated, receipt.affected
    );
    println!("versions after commit: {:?}\n", session.versions());

    // P3 is outside P2's closure: its artifact survived, the query is warm.
    let warm = session.query(&q3).expect("repeat P3");
    println!(
        "P3 repeat query: cache_hit={} ({} tuples, unchanged)",
        warm.stats.cache_hit,
        warm.len()
    );

    // P1 imports from P2: its artifact was repaired on the committing
    // thread, so the repeat query is warm and reflects the commit.
    let after = session.query(&q1).expect("repeat P1");
    println!(
        "P1 repeat query: cache_hit={} ({} tuples; imported (x,y), dropped (c,d))",
        after.stats.cache_hit,
        after.len()
    );
    assert!(warm.stats.cache_hit);
    assert!(after.stats.cache_hit, "repaired on commit, served warm");
    assert!(after.contains(&Tuple::strs(["x", "y"])));

    // A transaction into P2 and P3 is one commit: one store epoch, so a
    // reader pins it whole or not at all.
    let mut tx = writer.begin();
    tx.insert(&p2, "R2", Tuple::strs(["u", "v"]))
        .expect("stage P2 insert");
    tx.insert(&p3, "R3", Tuple::strs(["u", "w"]))
        .expect("stage P3 insert");
    let receipt = tx.commit().expect("two-peer commit");
    let epoch = session.pin().expect("pin").epoch();
    println!(
        "\ncommitted seq {} touching {:?}: published epoch {epoch}",
        receipt.seq, receipt.touched
    );
    if epoch != receipt.seq || receipt.touched != BTreeSet::from([p2.clone(), p3.clone()]) {
        eprintln!("a two-peer transaction must publish exactly one epoch");
        std::process::exit(1);
    }

    // The update log replays to any point in time as a pinned snapshot.
    let v0 = session.snapshot_at(0).expect("base snapshot");
    println!(
        "\nsnapshot_at(0) restores the original instance: {}",
        v0.system().expect("hydrate") == example1_system()
    );
    println!(
        "engine metrics: {:?}\nmvcc: {:?}",
        session.metrics(),
        session.mvcc_stats()
    );
}
