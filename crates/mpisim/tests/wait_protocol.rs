//! The one wait protocol, seen from outside: how a blocked rank leaves its wait on
//! each backend — woken by the event it waits for, or unwound because a peer died.

#![allow(clippy::disallowed_methods, reason = "host sleeps force parks")]

use std::sync::mpsc;
use std::time::Duration;

use mpisim::{Cluster, ClusterConfig, MpiError, SchedBackend};

/// Both backends, `par` with two workers so that ranks really park across threads.
fn every_backend(nprocs: usize) -> [(&'static str, Cluster); 2] {
    let on = |backend| ClusterConfig::with_ranks(nprocs).backend(backend);
    [
        ("coop", Cluster::new(on(SchedBackend::Coop))),
        ("par[2]", Cluster::new(on(SchedBackend::Par).workers(2))),
    ]
}

#[test]
fn a_rank_panic_ends_the_job_with_that_panic_on_every_backend() {
    for (name, cluster) in every_backend(2) {
        // Rank 1 tells rank 0 it is about to block on it, then waits in a receive
        // from rank 0 that never comes: rank 0 panics instead.
        let (done, outcome) = mpsc::channel();
        std::thread::spawn(move || {
            let run = std::panic::catch_unwind(|| {
                cluster.run(|ctx| {
                    let world = ctx.world();
                    if ctx.rank() == 0 {
                        ctx.recv_f64(&world, 1, 1)?;
                        // Give rank 1 time to park in its receive.
                        std::thread::sleep(Duration::from_millis(20));
                        panic!("rank 0 gives up");
                    }
                    ctx.send_f64(&world, 0, 1, &[1.0])?;
                    ctx.recv_f64(&world, 0, 2)?;
                    Ok::<(), MpiError>(())
                })
            });
            let _ = done.send(
                run.map(|_| ())
                    .map_err(|p| p.downcast_ref::<&str>().copied()),
            );
        });
        // A job that hangs is a failure, not a stuck test.
        match outcome.recv_timeout(Duration::from_secs(30)) {
            Ok(Err(message)) => assert_eq!(message, Some("rank 0 gives up"), "{name}"),
            Ok(Ok(())) => panic!("{name}: the job ended without propagating the panic"),
            Err(_) => panic!("{name}: the job hung after a rank panicked"),
        }
    }
}

#[test]
fn a_cross_worker_receive_parks_once_and_is_woken_once() {
    // Sender and receiver on different workers of a `par` job, and the sender takes
    // 50 ms of host time: a receiver that polled would wake up several times in vain
    // before the message arrives; a parked one wakes once.
    let on_two_workers = ClusterConfig::with_ranks(2).backend(SchedBackend::Par);
    let cluster = Cluster::new(on_two_workers.workers(2));
    let outcome = cluster.run(|ctx| {
        let world = ctx.world();
        if ctx.rank() == 0 {
            std::thread::sleep(Duration::from_millis(50));
            ctx.send_f64(&world, 1, 3, &[7.0])?;
            Ok(0.0)
        } else {
            Ok(ctx.recv_f64(&world, 0, 3)?.1[0])
        }
    });
    assert!(outcome.all_ok(), "{:?}", outcome.errors());
    assert_eq!(*outcome.value_of(1), 7.0);
    let stats = outcome.sched_stats();
    assert_eq!((stats.parks, stats.wakes), (1, 1), "{stats:?}");
    assert_eq!(stats.spurious_wakes, 0, "{stats:?}");
    assert_eq!(
        stats.resumes,
        2 + 1,
        "two fiber starts and one park: {stats:?}"
    );
}
