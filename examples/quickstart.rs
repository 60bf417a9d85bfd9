//! Quickstart: open an `OsdpSession` — the audited front door that binds
//! database, policy and budget — then release true records with `OsdpRR`,
//! answer a histogram query with one-sided noise, and let the session refuse
//! anything the budget cannot cover.
//!
//! Run with: `cargo run --example quickstart`

use osdp::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // 1. A database in which some records are sensitive by policy.
    //    Here: people who opted out of data sharing, plus all minors.
    // ------------------------------------------------------------------
    let db: Database = (0..5_000u32)
        .map(|i| {
            Record::builder()
                .field("age", Value::Int(15 + (i % 60) as i64))
                .field("opt_in", Value::Bool(i % 10 != 0))
                .field("zone", Value::Categorical(i % 16))
                .build()
        })
        .collect();

    let minors = AttributePolicy::sensitive_when("age", |v| v.as_int().unwrap_or(0) <= 17);
    let opt_outs = AttributePolicy::opt_in("opt_in");
    // A record is protected if *either* policy marks it sensitive.
    let policy = ClosurePolicy::new("minors-or-opt-outs", move |r: &Record| {
        minors.is_sensitive(r) || opt_outs.is_sensitive(r)
    });

    println!("database size          : {}", db.len());
    println!("sensitive records      : {}", db.count_sensitive(&policy));
    println!("non-sensitive records  : {}", db.count_non_sensitive(&policy));
    let non_sensitive = db.count_non_sensitive(&policy);

    // ------------------------------------------------------------------
    // 2. Open the session: database + policy + a 2.0 budget cap. Every
    //    release below debits this budget *before* sampling and lands in
    //    the audit log. `.columnar()` snapshots the records into a
    //    ColumnarFrame; the closure policy above has no compiled form, so
    //    scans transparently fall back to the retained rows (and cache the
    //    policy partition) — the output is identical to the row backend.
    // ------------------------------------------------------------------
    let session = SessionBuilder::new(db)
        .columnar()
        .policy(policy, "minors-or-opt-outs")
        .budget(2.0)
        .seed(2024)
        .build()
        .expect("valid session");

    // ------------------------------------------------------------------
    // 3. Release TRUE records with OsdpRR under (P, 1.0)-OSDP.
    // ------------------------------------------------------------------
    let rr = OsdpRr::new(1.0).expect("valid epsilon");
    let sample = session.release_records(&rr).expect("within budget");
    println!(
        "\nOsdpRR released {} true records ({:.1}% of the non-sensitive ones; expected {:.1}%)",
        sample.len(),
        100.0 * sample.len() as f64 / non_sensitive as f64,
        100.0 * rr.keep_probability(),
    );

    // ------------------------------------------------------------------
    // 4. Answer a 16-bin histogram query (count per zone) with one-sided
    //    Laplace noise. The session derives x and x_ns from the bound
    //    policy — callers never assemble the task by hand.
    // ------------------------------------------------------------------
    let zones = SessionQuery::count_by("zone-histogram", 16, |r: &Record| {
        r.categorical("zone").ok().map(|z| z as usize)
    });
    let one_sided = OsdpLaplaceL1::new(1.0).expect("valid epsilon");
    let release = session.release(&zones, &one_sided).expect("within budget");
    println!(
        "\nzone histogram (first 8 bins, {}):",
        release.guarantee // e.g. "(P, 1)-OSDP"
    );
    println!(
        "  OSDP estimate : {:?}",
        &release.estimate.counts()[..8].iter().map(|c| c.round() as i64).collect::<Vec<_>>()
    );

    // ------------------------------------------------------------------
    // 5. The budget is exhausted: the session REFUSES the next release.
    //    Nothing is sampled, nothing can leak.
    // ------------------------------------------------------------------
    let refused = session.release(&zones, &one_sided);
    println!("\nthird release: {refused:?}");
    assert!(matches!(refused, Err(OsdpError::BudgetExhausted { .. })));

    // ------------------------------------------------------------------
    // 6. The audit trail: composition (Theorem 3.3) + the attack-side
    //    verifier agree the session upheld its contract.
    // ------------------------------------------------------------------
    let (total, policies) = session.composed_guarantee();
    println!("\ntotal budget spent: {total} under the minimum relaxation of {policies:?}");
    println!("remaining         : {:?}", session.remaining_budget());
    let verdict = session.verify_policy_lifecycle(Some(2.0));
    println!(
        "audit verdict     : within_limit = {}, exclusion-attack surface = {:?}",
        verdict.within_limit, verdict.pdp_entries
    );
    println!("\naudit log:\n{}", session.audit_json());
}
