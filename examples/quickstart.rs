//! Quickstart: build a small AlvisP2P network, publish documents, search.
//!
//! This mirrors the demonstration scenario of the paper: a handful of peers join the
//! network, each publishes some local documents, the distributed HDK index is built,
//! and any peer can then run multi-keyword queries against the *global* collection.
//!
//! Run with:
//! ```text
//! cargo run --example quickstart
//! ```

use alvisp2p::prelude::*;
use alvisp2p_netsim::TrafficCategory;

fn main() {
    // 1. Build an 8-peer network using the HDK indexing strategy.
    //    df_max is tiny because the demo corpus is tiny; real deployments use a few
    //    hundred (`HdkConfig::default()` uses 200, the bench crate's experiments 100).
    //    Each peer publishes its local documents (the demo corpus is spread
    //    round-robin, as if every participant dropped files into its shared folder).
    let mut net = AlvisNetwork::builder()
        .peers(8)
        .strategy(Hdk::new(HdkConfig {
            df_max: 2,
            truncation_k: 5,
            ..Default::default()
        }))
        .seed(42)
        .documents(demo_corpus())
        .build()
        .expect("valid configuration");
    println!(
        "published {} documents across {} peers",
        net.total_documents(),
        net.peer_count()
    );

    // 2. Build the distributed index: single-term level plus HDK expansions.
    let report = net.build_index();
    println!(
        "built '{}' index: {} keys, {} postings, {} bytes of indexing traffic",
        report.strategy, report.activated_keys, report.total_postings, report.indexing_bytes
    );
    for level in &report.levels {
        println!(
            "  level {}: {} candidate keys ({} discriminative, {} frequent)",
            level.level, level.candidates, level.discriminative, level.frequent
        );
    }

    // 3. Any peer can now query the global collection with multiple keywords; the
    //    request asks for the two-step refinement so results carry owner metadata.
    for query in [
        "peer to peer retrieval",
        "congestion control overlay",
        "query driven indexing popularity",
    ] {
        let request = QueryRequest::new(query).top_k(5).with_refinement();
        let outcome = net.execute(&request).expect("query succeeds");
        println!("\nquery: {query:?}");
        println!(
            "  probes: {}  hops: {}  retrieval bytes: {}",
            outcome.trace.probes, outcome.hops, outcome.bytes
        );
        for (rank, r) in outcome.refined.iter().enumerate() {
            println!(
                "  {}. [{:.3}] {}  ({})",
                rank + 1,
                r.global_score,
                r.title,
                r.url
            );
            println!("       {}", r.snippet);
        }
        // Compare against what a centralized engine would return for the same query.
        let reference = net.reference_search(query, 5);
        let overlap = alvisp2p::core::stats::overlap_at_k(&outcome.results, &reference, 5);
        println!("  overlap@5 with centralized reference: {overlap:.2}");
    }

    // 4. Queries are planned before they are executed: inspect the cost-annotated
    //    probe schedule, then stream the execution probe by probe. With the
    //    cost-based planner and a byte budget, the spend never exceeds the budget.
    let request = QueryRequest::new("truncated posting lists")
        .top_k(5)
        .byte_budget(2_000);
    let plan = net
        .plan_with(&GreedyCost, &request)
        .expect("planning is free");
    println!("\nplanned {:?} with a 2,000-byte budget:", request.text);
    for node in plan.probes() {
        println!(
            "  probe {:<20} est {} bytes  priority {:.4}",
            node.key.to_string(),
            node.est_bytes,
            node.priority
        );
    }
    let mut stream = net.stream(plan, request).expect("valid request");
    while let Some(event) = stream.next_event() {
        let event = event.expect("probe succeeds");
        println!(
            "  -> {:<20} {:?}  {} bytes (total {})  top-1: {:?}",
            event.key.to_string(),
            event.outcome,
            event.bytes,
            event.spent_bytes,
            stream.running_top_k().first().map(|r| r.doc)
        );
    }
    let planned_outcome = stream.finish().expect("query succeeds");
    println!(
        "  planned query spent {} bytes (budget 2,000), {} probes, truncated by budget: {}",
        planned_outcome.bytes, planned_outcome.trace.probes, planned_outcome.budget_exhausted
    );

    // 5. Fetch the top document of the last query from its hosting peer.
    let outcome = net
        .execute(
            &QueryRequest::new("access rights shared documents")
                .from_peer(3)
                .top_k(3),
        )
        .unwrap();
    if let Some(top) = outcome.results.first() {
        match net.fetch_document(top.doc, &Credentials::anonymous()) {
            alvisp2p::core::FetchOutcome::Full(doc) => {
                println!(
                    "\nfetched {} ({} bytes) from peer {}",
                    doc.title,
                    doc.body.len(),
                    doc.id.peer
                )
            }
            other => println!("\nfetch outcome: {other:?}"),
        }
    }

    // 6. The traffic report shows where the bytes went.
    println!("\ntraffic report:\n{}", net.traffic().report());
    println!(
        "retrieval traffic so far: {} bytes in {} messages",
        net.traffic().category(TrafficCategory::Retrieval).bytes,
        net.traffic().category(TrafficCategory::Retrieval).messages
    );
}
