//! `TcpTransport` returns every large buffer it is done with to the byte
//! pool: a compressed message's blob and its frame after a send, the
//! frame body after a receive. This is its own test binary so no other
//! test moves the process-wide pool counters while it runs.

use ea_comms::{Codec, Message, TcpConfig, TcpTransport, Transport};
use std::net::TcpListener;

fn recycled() -> i64 {
    let snapshot = ea_trace::metrics::global().snapshot();
    let gauge = snapshot.gauges.iter().find(|(name, _)| name == "ea_comms_bytepool_recycled");
    gauge.expect("byte pool gauges are registered").1
}

#[test]
fn submit_delta_c_send_and_receive_recycle_into_the_byte_pool() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut client = TcpTransport::connect(addr, TcpConfig::default()).unwrap();
    let (stream, _) = listener.accept().unwrap();
    let mut server = TcpTransport::from_stream(stream, TcpConfig::default()).unwrap();

    let codec = Codec::Int8;
    let vals: Vec<f32> = (0..1000).map(|i| (i as f32 - 500.0) * 0.01).collect();
    let mut blob = ea_comms::take_blob(codec.encoded_len(vals.len()));
    codec.encode(&vals, &mut blob);
    let msg = Message::SubmitDeltaC { shard: 0, round: 1, pipe: 0, codec, n: 1000, blob };
    let expected = msg.clone();

    let before = recycled();
    client.send(msg).unwrap();
    let after_send = recycled();
    assert_eq!(after_send - before, 2, "send recycles the blob and the frame");
    assert_eq!(server.recv().unwrap(), expected);
    assert_eq!(recycled() - after_send, 1, "receive recycles the frame body");
}
