//! Digital-library scenario: heterogeneous peers, document digests and access rights.
//!
//! The paper's motivating example is a specialized digital library that processes its
//! own documents with a sophisticated local engine, exports an *Alvis document digest*
//! and makes the collection searchable by the whole P2P network — while keeping the
//! documents (and their access control) at the library.
//!
//! This example shows the full flow:
//! 1. a "library" collection is indexed by an external engine and exported as a digest;
//! 2. a gateway peer imports the digest and publishes it into the global index;
//! 3. other peers find library documents through the distributed index;
//! 4. restricted documents require credentials when fetched from the owner;
//! 5. the two-step refinement forwards the query to the owning peer's local engine.
//!
//! Run with:
//! ```text
//! cargo run --example digital_library
//! ```

use alvisp2p::prelude::*;
use alvisp2p::textindex::AccessRights;

fn library_documents() -> Vec<(&'static str, &'static str, AccessRights)> {
    vec![
        (
            "Medieval manuscripts of the Alpine monasteries",
            "digitized medieval manuscripts with annotations transcriptions and provenance \
             records curated by the monastery archive",
            AccessRights::Public,
        ),
        (
            "Restricted incunabula scans",
            "high resolution incunabula scans available to registered researchers studying \
             early printing techniques",
            AccessRights::Restricted {
                username: "researcher".into(),
                password: "gutenberg".into(),
            },
        ),
        (
            "Catalogue of rare cartography",
            "catalogue of rare cartography maps atlases and portolan charts from the \
             fifteenth to the eighteenth century",
            AccessRights::Public,
        ),
        (
            "Embargoed acquisitions list",
            "embargoed list of upcoming acquisitions and donations pending legal review",
            AccessRights::Private,
        ),
    ]
}

fn main() {
    // A 6-peer network; peer 0 acts as the digital library's gateway. The other
    // peers publish ordinary web-style documents.
    let mut net = AlvisNetwork::builder()
        .peers(6)
        .strategy(Hdk::new(HdkConfig {
            df_max: 2,
            truncation_k: 5,
            ..Default::default()
        }))
        .seed(7)
        .documents(demo_corpus())
        .build()
        .expect("valid configuration");

    // --- Step 1: the library's external engine builds its collection and a digest ---
    // We model the external engine as a standalone AlvisPeer that never joins the
    // network; only its digest does.
    let mut external_engine = alvisp2p::core::AlvisPeer::new(999);
    for (title, body, access) in library_documents() {
        let doc =
            alvisp2p::textindex::Document::new(DocId::new(999, 0), title, body).with_access(access);
        external_engine.publish_document(doc);
    }
    let digest: DocumentDigest = external_engine.export_digest();
    let digest_json = digest.to_json().expect("digest serialises");
    println!(
        "library digest: {} documents, {} bytes of JSON",
        digest.len(),
        digest_json.len()
    );

    // --- Step 2: the gateway peer imports the digest ---
    let imported = net.peer_mut(0).import_digest(&digest);
    println!(
        "gateway peer 0 imported {} library documents",
        imported.len()
    );

    // Rebuild the distributed index so the library's terms are globally searchable.
    let report = net.build_index();
    println!(
        "global index: {} keys / {} postings ({} bytes stored)",
        report.activated_keys, report.total_postings, report.storage_bytes
    );

    // --- Step 3: another peer searches for library content ---
    // Interactive searches stop paying network cost once the top-k stabilises:
    // each query is planned, then streamed probe by probe, and the stream is
    // stopped early once `StableTopK` sees two consecutive probes leave the
    // running top-k unchanged.
    for query in [
        "medieval manuscripts",
        "rare cartography maps",
        "incunabula scans",
    ] {
        let request = QueryRequest::new(query).from_peer(4).top_k(5);
        let plan = net.plan(&request).expect("planning is free");
        let scheduled = plan.scheduled_probes();
        let mut stable = StableTopK::new(2);
        let mut stream = net.stream(plan, request).expect("valid request");
        while let Some(event) = stream.next_event() {
            event.expect("probe succeeds");
            if stable.observe(&stream.running_top_k()) {
                stream.stop();
            }
        }
        let outcome = stream.finish().expect("query succeeds");
        println!(
            "\npeer 4 searches {query:?}: {} results ({} of {} scheduled probes sent)",
            outcome.results.len(),
            outcome.trace.probes,
            scheduled,
        );
        for r in &outcome.results {
            println!(
                "  [{:.3}] doc {} owned by peer {}",
                r.score, r.doc.local, r.doc.peer
            );
        }
    }

    // --- Step 4: access rights are enforced by the owner ---
    // The restricted incunabula document lives at the *external engine*; fetching it
    // from the gateway fails, which is exactly the design: documents stay with their
    // owner. For documents the gateway itself hosts, credentials are checked.
    // The restricted library documents are hosted at the external engine, so fetching
    // them through the gateway reports `NotFound` (documents stay with their owner).
    // For a document the gateway itself hosts with restricted rights, credentials are
    // checked — demonstrate that with a restricted document published at peer 3.
    let restricted = net.peer_mut(3).publish_document(
        alvisp2p::textindex::Document::new(
            DocId::new(3, 900),
            "Reading-room access policy",
            "restricted reading room access policy for visiting researchers",
        )
        .with_access(AccessRights::Restricted {
            username: "researcher".into(),
            password: "gutenberg".into(),
        }),
    );
    println!("\nfetching a restricted document without credentials:");
    println!(
        "  -> {:?}",
        net.fetch_document(restricted, &Credentials::anonymous())
    );
    println!("fetching with researcher credentials:");
    match net.fetch_document(restricted, &Credentials::basic("researcher", "gutenberg")) {
        alvisp2p::core::FetchOutcome::Full(doc) => println!("  -> full document: {}", doc.title),
        other => println!("  -> {other:?}"),
    }

    // --- Step 5: two-step refinement against the owners' local engines ---
    let outcome = net
        .execute(
            &QueryRequest::new("manuscripts archive annotations")
                .from_peer(5)
                .top_k(5)
                .with_refinement(),
        )
        .unwrap();
    println!("\nrefined results (owner's local engine consulted):");
    for r in outcome.refined {
        println!(
            "  global {:.3} / local {:?}  {}  {}",
            r.global_score,
            r.local_score.map(|s| (s * 1000.0).round() / 1000.0),
            if r.title.is_empty() {
                "[external document]"
            } else {
                &r.title
            },
            r.snippet
        );
    }

    println!("\ntraffic report:\n{}", net.traffic().report());
}
