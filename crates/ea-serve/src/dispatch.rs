//! Reactor frontend: one listener, one handler, two protocols.
//!
//! [`ServeDispatch`] composes the serving engine with ea-runtime's
//! [`ServerCore`], so a single reactor fleet multiplexes *both*
//! populations the paper's deployment story implies: training pipelines
//! speaking the elastic-averaging protocol (hello/pull/submit/
//! heartbeat) and inference clients speaking the serving extension
//! (`Infer`, `SubscribeWeights`). Routing is by message type —
//! `Infer` goes to the [`ServeEngine`]'s admission queue; everything
//! else (including weight subscriptions from *other* serving replicas)
//! delegates to the trainer's server core, sharing its shards,
//! membership, and metrics.
//!
//! Replies flow back asynchronously: the executor thread queues
//! [`Completion`](crate::engine::Completion)s and pokes the reactor via
//! its waker; the next handler `poll` drains them into `InferReply`
//! frames on the owning connections. Graceful shutdown first runs the
//! trainer-side protocol drain, then serves out the admitted inference
//! queue and flushes the final completions, so an accepted request is
//! answered even when the server is going down.

use std::io;
use std::net::TcpListener;
use std::sync::Arc;

use ea_comms::reactor::{ConnId, DisconnectReason, Outbox, Reactor, ReactorConfig, ReactorHandler};
use ea_comms::wire::Message;
use ea_runtime::{RefShardServer, ServerCore};

use crate::batcher::Admission;
use crate::engine::ServeEngine;

/// Composite handler: inference frontend + trainer protocol.
pub struct ServeDispatch {
    engine: Arc<ServeEngine>,
    trainer: Arc<ServerCore>,
}

impl ServeDispatch {
    /// A dispatch routing `Infer` to `engine` and every other message
    /// to `trainer`.
    pub fn new(engine: Arc<ServeEngine>, trainer: Arc<ServerCore>) -> ServeDispatch {
        ServeDispatch { engine, trainer }
    }

    /// Sends every queued completion as an `InferReply`.
    fn flush_completions(&self, out: &mut Outbox) {
        for c in self.engine.drain_completions() {
            out.send(
                c.conn,
                Message::InferReply {
                    id: c.id,
                    version: c.version,
                    shed: c.shed,
                    output: c.output,
                },
            );
        }
    }
}

impl ReactorHandler for ServeDispatch {
    fn on_message(&self, conn: ConnId, msg: Message, out: &mut Outbox) {
        match msg {
            Message::Infer { id, input } => match self.engine.submit(conn, id, input) {
                Admission::Accepted => {} // answered via poll()
                Admission::Shed => out.send(
                    conn,
                    Message::InferReply {
                        id,
                        version: self.engine.served_version(),
                        shed: true,
                        output: Vec::new(),
                    },
                ),
            },
            other => self.trainer.on_message(conn, other, out),
        }
    }

    fn on_disconnect(&self, conn: ConnId, reason: &DisconnectReason) {
        // Completions addressed to a vanished connection are dropped by
        // the reactor's generation check; nothing to scrub here.
        self.trainer.on_disconnect(conn, reason);
    }

    fn poll(&self, out: &mut Outbox) {
        self.trainer.poll(out);
        self.flush_completions(out);
    }

    fn has_deferred(&self) -> bool {
        self.trainer.has_deferred() || self.engine.has_pending()
    }

    fn on_shutdown(&self, out: &mut Outbox) {
        self.trainer.on_shutdown(out);
        // Serve out everything already admitted, then answer it all.
        self.engine.shutdown();
        self.flush_completions(out);
    }
}

/// Spawns a reactor serving both protocols on `listener`, with the
/// engine's completion waker wired to the reactor so replies never wait
/// out a poll interval. The trainer protocol (leases, rounds, weight
/// subscriptions) runs against `trainer`'s shards.
pub fn spawn_serving(
    listener: TcpListener,
    cfg: ReactorConfig,
    engine: Arc<ServeEngine>,
    trainer: &RefShardServer,
) -> io::Result<Reactor> {
    let dispatch = Arc::new(ServeDispatch::new(Arc::clone(&engine), Arc::clone(trainer.core())));
    let reactor = Reactor::spawn(listener, dispatch, cfg)?;
    let waker = reactor.waker();
    engine.set_waker(Box::new(move || waker.wake()));
    Ok(reactor)
}
