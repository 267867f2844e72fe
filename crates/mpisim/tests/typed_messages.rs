//! Typed (`f64`) messages on every backend: a payload they cannot decode is an error of
//! the receiving rank, and the buffers typed receives recycle are never ones another
//! rank can still read.

use mpisim::datatype::pack_into;
use mpisim::{Cluster, ClusterConfig, MpiError, Payload, SchedBackend};

/// Both backends, `par` with two workers so that ranks really run on two threads.
fn every_backend(nprocs: usize) -> [(&'static str, Cluster); 2] {
    let on = |backend| ClusterConfig::with_ranks(nprocs).backend(backend);
    [
        ("coop", Cluster::new(on(SchedBackend::Coop))),
        ("par[2]", Cluster::new(on(SchedBackend::Par).workers(2))),
    ]
}

#[test]
fn an_f64_receive_of_a_malformed_payload_is_an_error_and_the_job_completes() {
    for (name, cluster) in every_backend(2) {
        let outcome = cluster.run(|ctx| {
            let world = ctx.world();
            if ctx.rank() == 1 {
                ctx.send_payload(&world, 0, 4, Payload::from(vec![1, 2, 3]))?;
                ctx.send_payload(&world, 0, 5, Payload::from(vec![4, 5, 6]))?;
                return Ok(vec![]);
            }
            let received = ctx.recv_f64(&world, 1, 4).map(|_| ());
            let mut out = vec![0.5];
            let received_into = ctx.recv_f64_into(&world, 1, 5, &mut out).map(|_| ());
            Ok(vec![received, received_into])
        });
        assert!(outcome.all_ok(), "{name}: {:?}", outcome.errors());
        for result in outcome.value_of(0) {
            match result {
                Err(MpiError::InvalidArgument(message)) => assert!(
                    message.contains("3-byte") && message.contains("rank 1"),
                    "{name}: the error must name the length and the source: {message}"
                ),
                other => panic!("{name}: expected an InvalidArgument error, got {other:?}"),
            }
        }
    }
}

#[test]
fn a_payload_two_ranks_received_is_not_recycled_under_the_second() {
    for (name, cluster) in every_backend(3) {
        let outcome = cluster.run(|ctx| {
            let world = ctx.world();
            match ctx.rank() {
                0 => {
                    let mut bytes = Vec::new();
                    pack_into(&[1.5f64, 2.5], &mut bytes);
                    let payload = Payload::from(bytes);
                    ctx.send_payload(&world, 1, 1, payload.clone())?;
                    ctx.send_payload(&world, 2, 1, payload)?;
                    Ok(vec![])
                }
                1 => {
                    let (_, original) = ctx.recv_f64(&world, 0, 1)?;
                    // Packed into the shared buffer, this would overwrite what rank 2
                    // has yet to read.
                    ctx.send_f64(&world, 2, 2, &[-7.0, -8.0])?;
                    Ok(original)
                }
                _ => {
                    // Rank 1's send has happened once this receive returns.
                    let (_, fresh) = ctx.recv_f64(&world, 1, 2)?;
                    let (_, original) = ctx.recv_f64(&world, 0, 1)?;
                    Ok([fresh, original].concat())
                }
            }
        });
        assert!(outcome.all_ok(), "{name}: {:?}", outcome.errors());
        assert_eq!(outcome.value_of(1), &[1.5, 2.5], "{name}");
        assert_eq!(outcome.value_of(2), &[-7.0, -8.0, 1.5, 2.5], "{name}");
    }
}
