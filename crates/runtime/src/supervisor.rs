//! Proxy supervision: respawn-with-resync under a restart budget.
//!
//! The proxy is a node's trusted communication agent; if it dies, the
//! node's processes are cut off. The supervisor thread watches each
//! node's `panicked` bit (raised by `run_proxy` after the dead
//! incarnation has returned its seat and recorded its panic payload) and
//! brings the proxy back:
//!
//! 1. **Backoff** — `backoff · 2^restarts_so_far`, interruptible by the
//!    cluster stop signal. A deterministic crash re-triggers quickly at
//!    first and progressively slower, so a crash loop does not become a
//!    spawn storm.
//! 2. **Budget** — at most `max_restarts` respawns per node; past that
//!    the node is *condemned* (fail-fast): peers purge traffic towards
//!    it, bounded waits report [`crate::RtError::ProxyDown`], shutdown
//!    stops waiting for its acknowledgements.
//! 3. **Respawn** — bump the node's epoch, mark a Hello owed to every
//!    peer, clear the panic bit, and spawn a fresh incarnation. The new
//!    proxy resumes from the node's surviving [`crate::state::NodeState`] — watermarks,
//!    retention, CCBs — so nothing acknowledged is lost or re-applied;
//!    the Hello makes peers re-ack and retransmit immediately, bounding
//!    resync to one round trip instead of a retransmit timeout.
//!
//! On shutdown the supervisor makes one last pass condemning any node
//! that is dead at that moment, so surviving proxies' drain loops
//! converge instead of waiting for acks that will never come.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use mproxy_obs::{Ctr, EventKind};

use crate::cluster::{condemn_dead, Shared};
use crate::idle::sleep_unless;
use crate::proxy::run_proxy;

/// How often the supervisor polls the panic bits.
const POLL: Duration = Duration::from_micros(200);

/// Supervision policy ([`crate::RtClusterBuilder::supervise`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SupervisorCfg {
    /// Respawns allowed per node before condemnation.
    pub(crate) max_restarts: u32,
    /// Base restart delay; doubles with each restart of the same node.
    pub(crate) backoff: Duration,
}

/// The supervisor loop.
pub(crate) fn supervisor_main(shared: &Arc<Shared>) {
    let cfg = shared
        .supervision
        .expect("supervisor spawned without a supervision policy");
    let nodes = shared.panicked.len();
    let mut restarts = vec![0u32; nodes];
    'run: while !shared.stop.load(Ordering::Relaxed) {
        for (node, restarted) in restarts.iter_mut().enumerate() {
            if !shared.panicked[node].load(Ordering::Acquire)
                || shared.condemned[node].load(Ordering::Acquire)
            {
                continue;
            }
            if *restarted >= cfg.max_restarts {
                eprintln!(
                    "mproxy-rt: node {node} proxy is crash-looping \
                     ({} restarts exhausted) — condemning it",
                    cfg.max_restarts
                );
                condemn_dead(shared, node);
                continue;
            }
            let delay = cfg.backoff.saturating_mul(1u32 << (*restarted).min(16));
            if !sleep_unless(delay, &shared.stop) {
                break 'run;
            }
            *restarted += 1;
            shared.restarts_total.fetch_add(1, Ordering::Relaxed);
            respawn(shared, node, *restarted);
        }
        if !sleep_unless(POLL, &shared.stop) {
            break;
        }
    }
    // Shutdown pass: anything dead right now stays dead — condemn it so
    // peers stop retaining traffic for it and the drain loops converge.
    for node in 0..nodes {
        if shared.panicked[node].load(Ordering::Acquire)
            && !shared.condemned[node].load(Ordering::Acquire)
        {
            condemn_dead(shared, node);
        }
    }
}

/// Brings up a fresh proxy incarnation for `node`.
fn respawn(shared: &Arc<Shared>, node: usize, restart_no: u32) {
    let epoch = {
        // The dead incarnation released the node-state lock on its way
        // out (run_proxy drops the guard before raising the panic bit),
        // so this lock is uncontended.
        let mut st = shared.node_state[node]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        st.epoch += 1;
        st.hello_pending = true;
        st.epoch
    };
    shared.epochs[node].store(epoch, Ordering::Relaxed);
    let obs = &shared.obs[node];
    obs.inc(Ctr::EpochBumps);
    obs.inc(Ctr::Respawns);
    obs.trace(EventKind::EpochBump, node as u16, epoch as u32);
    obs.trace(EventKind::Respawn, node as u16, restart_no);
    shared.panicked[node].store(false, Ordering::Release);
    let reason = shared
        .panic_reason(node)
        .unwrap_or_else(|| "<unknown>".to_string());
    eprintln!(
        "mproxy-rt: node {node} proxy died ({reason}); \
         respawning on epoch {epoch} (restart {restart_no})"
    );
    let sh = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("mproxy-{node}e{epoch}"))
        .spawn(move || run_proxy(node, sh))
        .expect("spawn respawned proxy thread");
    let old = {
        let mut handles = shared.handles.lock().unwrap_or_else(|e| e.into_inner());
        handles[node].replace(handle)
    };
    if let Some(old) = old {
        // The dead incarnation has already unwound past its body (the
        // panic bit said so); joining it is instant.
        let _ = old.join();
    }
}
