//! Adapters running the sans-I/O overlay node and a viewer client inside
//! the discrete-event emulator.
//!
//! Clients live in the same datagram namespace as nodes: client `c` is
//! emulator host `CLIENT_NODE_OFFSET + c`. The adapter translates between
//! [`NodeAction`]s and emulator [`Action`]s and harvests instrumentation
//! events for the experiment harness.

use crate::viewer::{PlaybackSim, ViewerQoe};
use bytes::Bytes;
use livenet_emu::{Ctx, Host};
use livenet_node::{NodeAction, NodeEvent, OverlayMsg, OverlayNode, Subscriber};
use livenet_packet::{Depacketizer, RtpPacket};
use livenet_types::{ClientId, NodeId, SimDuration, SimTime};

/// Offset separating client host IDs from overlay-node host IDs.
pub const CLIENT_NODE_OFFSET: u64 = 1_000_000;

/// Emulator host id for a client.
pub fn client_host_id(client: ClientId) -> NodeId {
    NodeId::new(CLIENT_NODE_OFFSET + client.raw())
}

/// A host in the packet-level simulation: an overlay node or a viewer.
// Hosts live once per simulated machine in a Vec the emulator owns;
// boxing the node state would add a pointer chase on every packet.
#[allow(clippy::large_enum_variant)]
pub enum EmuHost {
    /// An overlay CDN node.
    Node(NodeHostState),
    /// A viewer client.
    Client(ClientHostState),
}

/// Overlay-node host state.
pub struct NodeHostState {
    /// The sans-I/O core.
    pub node: OverlayNode,
    /// Harvested events.
    pub events: Vec<(SimTime, NodeEvent)>,
}

/// Client host state.
pub struct ClientHostState {
    /// Who this is.
    pub client: ClientId,
    /// SSRC currently being decoded (a change = stream switch → reset).
    pub ssrc: Option<livenet_types::Ssrc>,
    /// The decoder has seen a keyframe and can render (I-frame sync).
    pub synced: bool,
    /// Frames completed before sync, held until the keyframe lands
    /// (out-of-order completion: a recovering I frame can finish after
    /// its successors).
    presync: Vec<(SimTime, u32, Option<SimDuration>)>,
    /// Reassembles frames from received RTP packets.
    pub depack: Depacketizer,
    /// Playback model.
    pub playback: PlaybackSim,
    /// Completed-frame log (time, rtp timestamp, delay field).
    pub frames: Vec<(SimTime, u32, Option<SimDuration>)>,
    /// Packets received.
    pub packets: u64,
}

impl EmuHost {
    /// Wrap an overlay node.
    pub fn node(node: OverlayNode) -> EmuHost {
        EmuHost::Node(NodeHostState {
            node,
            events: Vec::new(),
        })
    }

    /// Create a viewer client that pressed play at `request_at`.
    pub fn client(client: ClientId, request_at: SimTime, fps: u32, buffer: SimDuration) -> EmuHost {
        EmuHost::Client(ClientHostState {
            client,
            ssrc: None,
            synced: false,
            presync: Vec::new(),
            depack: Depacketizer::new(),
            playback: PlaybackSim::new(request_at, fps, buffer),
            frames: Vec::new(),
            packets: 0,
        })
    }

    /// Node accessor.
    pub fn as_node(&self) -> Option<&NodeHostState> {
        match self {
            EmuHost::Node(n) => Some(n),
            EmuHost::Client(_) => None,
        }
    }

    /// Mutable node accessor.
    pub fn as_node_mut(&mut self) -> Option<&mut NodeHostState> {
        match self {
            EmuHost::Node(n) => Some(n),
            EmuHost::Client(_) => None,
        }
    }

    /// Client accessor.
    pub fn as_client(&self) -> Option<&ClientHostState> {
        match self {
            EmuHost::Client(c) => Some(c),
            EmuHost::Node(_) => None,
        }
    }

    /// Finish a client's playback and return its QoE.
    pub fn finish_client(self, now: SimTime) -> Option<(ClientId, ViewerQoe)> {
        match self {
            EmuHost::Client(c) => Some((c.client, c.playback.finish(now))),
            EmuHost::Node(_) => None,
        }
    }
}

/// Apply a node's actions to the emulator context.
pub fn apply_node_actions(
    state: &mut NodeHostState,
    ctx: &mut Ctx,
    actions: Vec<NodeAction>,
) {
    let now = ctx.now();
    for a in actions {
        match a {
            NodeAction::Send { to, msg } => {
                let dest = match to {
                    Subscriber::Node(n) => n,
                    Subscriber::Client(c) => client_host_id(c),
                };
                ctx.send(dest, msg.encode());
            }
            NodeAction::SetTimer { at, key } => ctx.set_timer_at(at.max(now), key),
            NodeAction::Event(e) => state.events.push((now, e)),
        }
    }
}

impl Host for EmuHost {
    fn on_datagram(&mut self, ctx: &mut Ctx, from: NodeId, payload: Bytes) {
        match self {
            EmuHost::Node(state) => {
                let actions = state.node.on_datagram(ctx.now(), from, payload);
                apply_node_actions(state, ctx, actions);
            }
            EmuHost::Client(state) => {
                state.packets += 1;
                let Ok(msg) = OverlayMsg::decode(payload) else {
                    return;
                };
                if let OverlayMsg::Rtp { packet, .. } = msg {
                    if let Ok(rtp) = RtpPacket::decode(packet) {
                        // SSRC change = seamless stream switch (§5.2):
                        // reset reassembly state, like a WebRTC client
                        // re-keying its decoder on SSRC demux.
                        if state.ssrc != Some(rtp.header.ssrc) {
                            if state.ssrc.is_some() {
                                state.depack = Depacketizer::new();
                                state.synced = false; // re-sync on the new stream
                                state.presync.clear();
                            }
                            state.ssrc = Some(rtp.header.ssrc);
                        }
                        state.depack.push(rtp);
                        for frame in state.depack.drain() {
                            // A video decoder cannot render before its
                            // first keyframe (audio needs no sync). Frames
                            // completing before the keyframe are held: the
                            // I frame may still be in loss recovery while
                            // its successors finish.
                            let kind = livenet_media::FrameKind::from_nibble(frame.meta);
                            if !state.synced {
                                match kind {
                                    Some(livenet_media::FrameKind::I)
                                    | Some(livenet_media::FrameKind::Audio)
                                    | None => {
                                        state.synced = true;
                                        let sync_ts = frame.timestamp;
                                        for (at, ts, df) in std::mem::take(&mut state.presync) {
                                            // Keep held frames at/after the
                                            // keyframe (wrapping compare).
                                            if ts.wrapping_sub(sync_ts) < 0x8000_0000 {
                                                state.playback.on_frame(at, ts);
                                                state.frames.push((at, ts, df));
                                            }
                                        }
                                    }
                                    _ => {
                                        state.presync.push((
                                            ctx.now(),
                                            frame.timestamp,
                                            frame.delay_field,
                                        ));
                                        continue;
                                    }
                                }
                            }
                            state.playback.on_frame(ctx.now(), frame.timestamp);
                            state
                                .frames
                                .push((ctx.now(), frame.timestamp, frame.delay_field));
                        }
                        // Bound memory; skip permanently-lost frames.
                        if state.depack.gc(8) > 0 {
                            state.playback.skip_missing(ctx.now());
                        }
                    }
                }
                // Keep playback time moving with a 100 ms tick.
                ctx.set_timer_after(SimDuration::from_millis(100), 1);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, key: u64) {
        match self {
            EmuHost::Node(state) => {
                let actions = state.node.on_timer(ctx.now(), key);
                apply_node_actions(state, ctx, actions);
            }
            EmuHost::Client(state) => {
                state.playback.advance(ctx.now());
                state.playback.skip_missing(ctx.now());
            }
        }
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        if let EmuHost::Node(state) = self {
            let actions = state.node.start(ctx.now());
            apply_node_actions(state, ctx, actions);
        }
    }

    fn on_crash(&mut self) {
        // A crashed node loses all volatile state (FIB, reassembly, pacing,
        // congestion control); config and measured neighbor RTTs survive as
        // they would on-disk. Harvested events survive too — they belong to
        // the experiment harness, not the node.
        if let EmuHost::Node(state) = self {
            state.node.crash_reset();
        }
    }
}
