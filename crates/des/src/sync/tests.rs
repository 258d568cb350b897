use super::*;
use crate::{Dur, Simulation};
use std::cell::Cell;

#[test]
fn bounded_channel_blocks_sender() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let ch = Channel::bounded(1);
    let rx = ch.clone();
    let sent_second_at = Rc::new(Cell::new(0.0));
    let probe = Rc::clone(&sent_second_at);
    sim.spawn({
        let ctx = ctx.clone();
        async move {
            assert!(ch.send(1).await);
            assert!(ch.send(2).await); // blocks until receiver drains
            probe.set(ctx.now().as_us());
        }
    });
    sim.spawn(async move {
        ctx.delay(Dur::from_us(4.0)).await;
        assert_eq!(rx.recv().await, Some(1));
        assert_eq!(rx.recv().await, Some(2));
    });
    assert!(sim.run().completed_cleanly());
    assert_eq!(sent_second_at.get(), 4.0);
}

#[test]
fn try_send_full_and_closed() {
    let ch = Channel::bounded(1);
    ch.try_send(1).unwrap();
    assert!(matches!(ch.try_send(2), Err(TrySendError::Full(2))));
    ch.close();
    assert!(matches!(ch.try_send(3), Err(TrySendError::Closed(3))));
    assert_eq!(ch.try_recv(), Some(1));
    assert_eq!(ch.try_recv(), None);
}

#[test]
fn recv_drains_after_close() {
    let sim = Simulation::new();
    let ch = Channel::unbounded();
    ch.try_send(10).unwrap();
    ch.try_send(20).unwrap();
    ch.close();
    sim.spawn(async move {
        assert_eq!(ch.recv().await, Some(10));
        assert_eq!(ch.recv().await, Some(20));
        assert_eq!(ch.recv().await, None);
    });
    assert!(sim.run().completed_cleanly());
}

#[test]
fn channel_preserves_fifo_order_across_waiters() {
    let sim = Simulation::new();
    let ch = Channel::unbounded();
    let out = Rc::new(RefCell::new(Vec::new()));
    for _ in 0..3 {
        let ch = ch.clone();
        let out = Rc::clone(&out);
        sim.spawn(async move {
            while let Some(v) = ch.recv().await {
                out.borrow_mut().push(v);
            }
        });
    }
    let ctx = sim.ctx();
    sim.spawn(async move {
        for v in 0..9 {
            ch.try_send(v).unwrap();
            ctx.delay(Dur::from_ns(1)).await;
        }
        ch.close();
    });
    sim.run();
    assert_eq!(*out.borrow(), (0..9).collect::<Vec<_>>());
}

#[test]
fn channel_stats_track_occupancy() {
    let ch = Channel::unbounded();
    ch.try_send(1).unwrap();
    ch.try_send(2).unwrap();
    ch.try_recv();
    ch.try_send(3).unwrap();
    assert_eq!(ch.max_len(), 2);
    assert_eq!(ch.len(), 2);
}

#[test]
#[should_panic(expected = "capacity must be > 0")]
fn zero_capacity_rejected() {
    let _ = Channel::<u8>::bounded(0);
}

#[test]
fn counter_threshold_waits() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let c = Counter::new();
    let times = Rc::new(RefCell::new(Vec::new()));
    for target in [1u64, 3] {
        let c = c.clone();
        let ctx = ctx.clone();
        let times = Rc::clone(&times);
        sim.spawn(async move {
            c.wait_for(target).await;
            times.borrow_mut().push((target, ctx.now().as_us()));
        });
    }
    let ctx2 = sim.ctx();
    sim.spawn(async move {
        for _ in 0..3 {
            ctx2.delay(Dur::from_us(1.0)).await;
            c.incr();
        }
    });
    assert!(sim.run().completed_cleanly());
    assert_eq!(*times.borrow(), vec![(1, 1.0), (3, 3.0)]);
}

/// Polls `fut` exactly once (registering its waker) and abandons it.
async fn poll_once_and_drop<F: Future + Unpin>(mut fut: F) {
    std::future::poll_fn(|cx| {
        let _ = Pin::new(&mut fut).poll(cx);
        Poll::Ready(())
    })
    .await;
    drop(fut);
}

#[test]
fn dropped_recv_does_not_swallow_wakes() {
    // Task A parks a recv waker, abandons the future, and moves on.
    // Before keyed registration, its stale waker stayed first in the
    // queue and consumed the wake for the item — task B slept forever.
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let ch: Channel<u8> = Channel::unbounded();
    let (rx_a, rx_b, tx) = (ch.clone(), ch.clone(), ch);
    let got = Rc::new(Cell::new(0u8));
    let got2 = Rc::clone(&got);
    sim.spawn(async move {
        poll_once_and_drop(rx_a.recv()).await;
    });
    sim.spawn(async move {
        got2.set(rx_b.recv().await.unwrap());
    });
    sim.spawn(async move {
        ctx.delay(Dur::from_us(1.0)).await;
        tx.try_send(42).unwrap();
    });
    let r = sim.run();
    assert!(r.completed_cleanly(), "receiver starved by a stale waker");
    assert_eq!(got.get(), 42);
}

#[test]
fn dropped_send_does_not_swallow_wakes() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let ch: Channel<u8> = Channel::bounded(1);
    ch.try_send(0).unwrap(); // full from the start
    let (tx_a, tx_b, rx) = (ch.clone(), ch.clone(), ch);
    sim.spawn(async move {
        poll_once_and_drop(tx_a.send(1)).await;
    });
    sim.spawn(async move {
        assert!(tx_b.send(2).await);
    });
    sim.spawn(async move {
        ctx.delay(Dur::from_us(1.0)).await;
        assert_eq!(rx.try_recv(), Some(0));
        ctx.delay(Dur::from_us(1.0)).await;
        assert_eq!(rx.try_recv(), Some(2));
    });
    let r = sim.run();
    assert!(r.completed_cleanly(), "sender starved by a stale waker");
}

#[test]
fn recv_woken_then_dropped_passes_the_wake_on() {
    // Task A is woken for an item but abandons its recv before acting
    // on it; the wake must be handed to the next parked receiver.
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let ch: Channel<u8> = Channel::unbounded();
    let (rx_a, rx_b, tx) = (ch.clone(), ch.clone(), ch);
    let got = Rc::new(Cell::new(0u8));
    let got2 = Rc::clone(&got);
    let ctx_a = ctx.clone();
    sim.spawn(async move {
        let mut fut = rx_a.recv();
        std::future::poll_fn(|cx| {
            let _ = Pin::new(&mut fut).poll(cx);
            Poll::Ready(())
        })
        .await;
        // Parked; the send below consumes our wake while we sleep
        // elsewhere. Dropping the future must pass the wake to B.
        ctx_a.delay(Dur::from_us(2.0)).await;
        drop(fut);
    });
    sim.spawn(async move {
        got2.set(rx_b.recv().await.unwrap());
    });
    sim.spawn(async move {
        ctx.delay(Dur::from_us(1.0)).await;
        tx.try_send(9).unwrap();
    });
    let r = sim.run();
    assert!(r.completed_cleanly(), "wake was not passed on");
    assert_eq!(got.get(), 9);
}

#[test]
fn dropped_counter_wait_unregisters() {
    let sim = Simulation::new();
    let c = Counter::new();
    let c2 = c.clone();
    sim.spawn(async move {
        poll_once_and_drop(c2.wait_for(5)).await;
    });
    assert!(sim.run().completed_cleanly());
    assert!(c.state.borrow().waiters.is_empty(), "leaked counter waiter");
    // The counter still works after the abandoned wait.
    let sim = Simulation::new();
    sim.spawn(async move { c.add(5) });
    assert!(sim.run().completed_cleanly());
}

#[test]
fn repolling_a_parked_recv_does_not_duplicate_its_waker() {
    let sim = Simulation::new();
    let ch: Channel<u8> = Channel::unbounded();
    let rx = ch.clone();
    sim.spawn(async move {
        let mut fut = rx.recv();
        // Poll the same pending future twice before abandoning it;
        // only one registration may exist.
        std::future::poll_fn(|cx| {
            let _ = Pin::new(&mut fut).poll(cx);
            let _ = Pin::new(&mut fut).poll(cx);
            Poll::Ready(())
        })
        .await;
        assert_eq!(rx.state.borrow().recv_wakers.q.len(), 1);
        drop(fut);
        assert_eq!(rx.state.borrow().recv_wakers.q.len(), 0);
    });
    assert!(sim.run().completed_cleanly());
}

#[test]
fn counter_wait_for_zero_is_immediate() {
    let sim = Simulation::new();
    let c = Counter::new();
    sim.spawn(async move { c.wait_for(0).await });
    assert!(sim.run().completed_cleanly());
}
