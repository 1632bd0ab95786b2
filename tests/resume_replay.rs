//! Session resumption property: kill the connection at *any* frame
//! boundary mid-reply, resume with the token, and the concatenated
//! `FrameDecoded` stream is byte-identical to the uninterrupted reply —
//! no gaps, no duplicates, no recompute drift.

use mimonet_io::client::LinkClient;
use mimonet_io::engine::EngineServer;
use mimonet_io::session::{corrupted_frames, session_psdus};
use mimonet_io::wire::{read_msg, write_msg, DecodedFrame, SessionConfig, WireMsg};
use proptest::prelude::*;

fn cfg(seed: u64, n_frames: u32) -> SessionConfig {
    SessionConfig {
        mcs: 8,
        payload_len: 64,
        n_frames,
        snr_db: 30.0,
        seed,
        ..SessionConfig::default()
    }
}

/// Runs a session but walks away after `cut` streamed frames, returning
/// the resume token and the frames that made it across before the kill.
fn run_and_kill_after(
    addr: std::net::SocketAddr,
    session: &SessionConfig,
    cut: u32,
) -> (u64, Vec<DecodedFrame>) {
    let mut client = LinkClient::connect(addr).unwrap();
    write_msg(
        client.stream_mut(),
        &WireMsg::SessionRequest(session.clone()),
    )
    .unwrap();
    let mut token = 0u64;
    let mut frames = Vec::new();
    while (frames.len() as u32) < cut || token == 0 {
        match read_msg(client.stream_mut()).unwrap() {
            WireMsg::SessionAccept { token: t, .. } => token = t,
            WireMsg::FrameDecoded(f) => {
                frames.push(f);
                if frames.len() as u32 >= cut {
                    break;
                }
            }
            other => panic!("unexpected reply before the kill: {other:?}"),
        }
    }
    // Vanish mid-stream: no Bye, no draining — the cut leaves the rest
    // of the reply stranded in socket buffers.
    drop(client);
    (token, frames)
}

/// Collects the full reply of a resume from `next_frame` on.
fn resume_tail(
    addr: std::net::SocketAddr,
    token: u64,
    next_frame: u32,
) -> (u32, Vec<DecodedFrame>) {
    let mut client = LinkClient::connect(addr).unwrap();
    write_msg(
        client.stream_mut(),
        &WireMsg::SessionResume { token, next_frame },
    )
    .unwrap();
    let mut resumed_from = 0;
    let mut frames = Vec::new();
    loop {
        match read_msg(client.stream_mut()).unwrap() {
            WireMsg::SessionAccept {
                resumed_from: r, ..
            } => resumed_from = r,
            WireMsg::FrameDecoded(f) => frames.push(f),
            WireMsg::SessionStats { .. } => {}
            WireMsg::Telemetry { .. } => break,
            other => panic!("unexpected resume reply: {other:?}"),
        }
    }
    client.close().unwrap();
    (resumed_from, frames)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any session seed, frame count, and kill point, the pre-cut
    /// frames plus the resumed tail reassemble the exact reply an
    /// uninterrupted client would have collected.
    #[test]
    fn any_cut_point_reassembles_byte_identically(
        seed in 0u64..1000,
        n_frames in 2u32..5,
        cut_raw in 0u32..8,
    ) {
        let session = cfg(seed, n_frames);
        let cut = cut_raw % (n_frames + 1); // 0..=n_frames, all boundaries
        let server = EngineServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let (token, head) = run_and_kill_after(addr, &session, cut);
        // SessionAccept must precede the frames, so the token survives
        // any cut.
        prop_assert_ne!(token, 0);
        prop_assert_eq!(head.len() as u32, cut);

        // Resume exactly where the kill left off.
        let (resumed_from, tail) = resume_tail(addr, token, cut);
        prop_assert_eq!(resumed_from, cut);

        let mut stitched = head;
        stitched.extend(tail);

        // The stitched stream is the uninterrupted reply: same length,
        // contiguous indices, and byte-identical to a full replay of
        // the same stored session.
        prop_assert_eq!(stitched.len() as u32, n_frames);
        for (i, f) in stitched.iter().enumerate() {
            prop_assert_eq!(f.index as usize, i, "no gaps, no duplicates");
        }
        let (_, full) = resume_tail(addr, token, 0);
        prop_assert_eq!(&stitched, &full, "stitched == uninterrupted stream");

        // And the payload bytes are exactly what the seed generated.
        prop_assert_eq!(corrupted_frames(&session, &stitched), 0);
        let expected = session_psdus(&session);
        for (f, want) in stitched.iter().zip(&expected) {
            prop_assert_eq!(&f.psdu, want);
        }

        let stats = server.shutdown();
        prop_assert_eq!(stats.sessions_resumed(), 2);
    }
}
