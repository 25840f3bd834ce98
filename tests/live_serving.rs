//! The live server's timer paths, over real sockets.
//!
//! Every thread of `serve::tcp` blocks in one `poll(2)` whose timeout is
//! the only clock it has: the engine's is the scheduler's next wakeup or
//! the `duration` deadline, a worker's is the reaper sweep. These tests
//! leave the server *silent* and check that each of those still happens
//! on time — a wrong timeout shows as a push, a shutdown or a reap that
//! never comes. Two more check what batching must not cost: the
//! hand-offs between threads reorder nothing, and a response never
//! overtakes the journal records of the request it answers.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use senseaid::core::{DirStorage, PersistConfig};
use senseaid::device::Sensor;
use senseaid::serve::trace::trace_server;
use senseaid::serve::wire::{decode_frame, WireFrame, DISCONNECT_IDLE, DISCONNECT_WRITE_OVERFLOW};
use senseaid::serve::{
    encode_request, serve, FrameAssembler, ServeOptions, WirePush, WireRequest, WireResponse,
    WireTaskSpec,
};

/// `serve::tcp`'s reaper period (private there): a breached deadline is
/// noticed at most this much later.
const REAP_INTERVAL: Duration = Duration::from_millis(250);
/// Scheduling slack granted to a loaded test host on top of a bound.
const SLACK: Duration = Duration::from_millis(100);

/// The centre of `serve::trace`'s campus topology.
const CAMPUS: (f64, f64) = (40.4284, -86.9138);

/// A blocking wire client over one socket.
struct Client {
    stream: TcpStream,
    assembler: FrameAssembler,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Client {
            stream,
            assembler: FrameAssembler::new(),
        }
    }

    /// The next frame the server sent; `None` once it closed the socket.
    fn next_frame(&mut self) -> Option<WireFrame> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some((kind, payload)) = self.assembler.next_frame().expect("valid stream") {
                return Some(decode_frame(kind, &payload).expect("decodable frame"));
            }
            match self.stream.read(&mut buf) {
                Ok(0) => return None,
                Ok(n) => self.assembler.extend(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::ConnectionReset => return None,
                Err(e) => panic!("no frame within the read timeout: {e}"),
            }
        }
    }

    fn next_response(&mut self) -> WireResponse {
        match self.next_frame() {
            Some(WireFrame::Response(response)) => response,
            other => panic!("expected a response, got {other:?}"),
        }
    }

    fn call(&mut self, request: &WireRequest) -> WireResponse {
        self.stream.write_all(&encode_request(request)).unwrap();
        self.next_response()
    }
}

fn register(imei: u64) -> WireRequest {
    WireRequest::Register {
        imei,
        energy_budget_j: 400.0,
        critical_battery_pct: 10.0,
        battery_pct: 90.0,
        device_type: "test-phone".to_owned(),
        sensors: vec![Sensor::Barometer],
    }
}

/// Returns once the engine has taken every event that was in its channel
/// when this was called: events are handled in arrival order, so the
/// answer to a request sent now comes after them. (A summary counts only
/// what the engine had taken when it was told to stop.)
fn settle(addr: SocketAddr) {
    let mut probe = Client::connect(addr);
    assert!(matches!(
        probe.call(&WireRequest::Stats),
        WireResponse::Stats { .. }
    ));
}

fn quiet_server(options: ServeOptions) -> senseaid::serve::ServeHandle {
    serve(ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        shards: 1,
        ..options
    })
    .expect("bind ephemeral server")
}

#[test]
fn a_scheduled_push_reaches_a_silent_connection_on_time() {
    let handle = quiet_server(ServeOptions::default());
    let mut device = Client::connect(handle.addr());
    assert!(matches!(
        device.call(&WireRequest::Hello { imei: 7 }),
        WireResponse::SessionBound { .. }
    ));
    assert_eq!(device.call(&register(7)), WireResponse::Ok);
    let observe = WireRequest::Observe {
        imei: 7,
        lat_deg: CAMPUS.0,
        lon_deg: CAMPUS.1,
        cell: None,
    };
    assert_eq!(device.call(&observe), WireResponse::Ok);

    // Two requests: one sampled when the task is received, one a period
    // later. Nothing is sent after this, so only the engine's own wait
    // timeout can produce the second push.
    let period = Duration::from_millis(200);
    let spec = WireTaskSpec {
        sensor: Sensor::Barometer,
        centre_lat: CAMPUS.0,
        centre_lon: CAMPUS.1,
        radius_m: 2_000.0,
        spatial_density: 1,
        one_shot: false,
        period_us: period.as_micros() as u64,
        duration_us: 2 * period.as_micros() as u64,
    };
    let before_submit = Instant::now();
    device
        .stream
        .write_all(&encode_request(&WireRequest::SubmitTask { cas: 1, spec }))
        .unwrap();

    let mut received_by = None;
    let mut sample_times = Vec::new();
    while sample_times.len() < 2 {
        match device.next_frame().expect("server stays up") {
            WireFrame::Response(WireResponse::TaskCreated { .. }) => {
                received_by = Some(Instant::now());
            }
            WireFrame::Push(WirePush::Assignment {
                device: 7,
                sample_at_us,
                ..
            }) => sample_times.push(sample_at_us),
            other => panic!("unexpected frame {other:?}"),
        }
    }
    let arrived = Instant::now();
    assert_eq!(sample_times[1] - sample_times[0], period.as_micros() as u64);
    // The server received the task between `before_submit` and
    // `received_by`, so the second sample instant lies a period after
    // that bracket: never pushed early, at most the timeout's
    // millisecond round-up (plus slack) late.
    assert!(
        arrived >= before_submit + period,
        "pushed {:?} after submit, before its sample time",
        arrived - before_submit
    );
    let late = arrived - (received_by.expect("TaskCreated precedes the pushes") + period);
    assert!(late < SLACK, "second push {late:?} late");

    assert_eq!(handle.shutdown().assignments_pushed, 2);
}

#[test]
fn shutdown_and_duration_interrupt_an_idle_server() {
    let dir = std::env::temp_dir().join(format!("senseaid-live-serving-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // An explicit shutdown wakes the engine out of an unbounded wait.
    let handle = quiet_server(ServeOptions {
        persist_dir: Some(dir.clone()),
        ..ServeOptions::default()
    });
    std::thread::sleep(Duration::from_millis(50)); // let every thread park
    let asked = Instant::now();
    let summary = handle.shutdown();
    assert!(asked.elapsed() < SLACK, "took {:?}", asked.elapsed());
    assert!(summary.flush.persistence_armed && summary.flush.generation.is_some());
    assert_eq!(summary.connections, 0);

    // The duration deadline is the wait's timeout: not early, not late.
    let duration = Duration::from_millis(300);
    let started = Instant::now();
    let handle = quiet_server(ServeOptions {
        persist_dir: Some(dir.clone()),
        duration: Some(duration),
        ..ServeOptions::default()
    });
    let summary = handle.join();
    let took = started.elapsed();
    assert!(took >= duration && took < duration + SLACK, "took {took:?}");
    assert!(summary.flush.persistence_armed && summary.flush.generation.is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_dribbling_connection_is_reaped_idle_by_the_sweep_alone() {
    let idle_timeout = Duration::from_millis(300);
    let handle = quiet_server(ServeOptions {
        idle_timeout,
        ..ServeOptions::default()
    });
    let before_connect = Instant::now();
    let mut slow = Client::connect(handle.addr());
    let connected = Instant::now();
    // A slowloris: bytes of a valid frame that never complete it, then
    // silence — from here on only the worker's own timeout runs the reaper.
    let frame = encode_request(&register(1));
    for byte in &frame[..4] {
        slow.stream.write_all(&[*byte]).unwrap();
        std::thread::sleep(Duration::from_millis(40));
    }
    let notice = slow.next_frame();
    let reaped = Instant::now();
    assert!(
        matches!(
            notice,
            Some(WireFrame::Push(WirePush::Disconnect {
                code: DISCONNECT_IDLE,
                ..
            }))
        ),
        "expected the idle notice, got {notice:?}"
    );
    assert!(slow.next_frame().is_none(), "the socket closes after it");
    assert!(reaped >= before_connect + idle_timeout, "reaped early");
    let over = reaped - connected;
    assert!(
        over < idle_timeout + REAP_INTERVAL + SLACK,
        "reaped after {over:?}"
    );

    settle(handle.addr());
    let summary = handle.shutdown();
    assert_eq!(
        (summary.idle_disconnects, summary.overflow_disconnects),
        (1, 0)
    );
}

#[test]
fn a_peer_that_stops_reading_is_reaped_for_write_overflow() {
    let handle = quiet_server(ServeOptions {
        max_outbuf_bytes: 64 * 1024,
        ..ServeOptions::default()
    });
    let mut deaf = Client::connect(handle.addr());
    deaf.stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Provoke responses and never read one: the kernel buffers fill, the
    // server's queue for this peer passes its budget, the next sweep
    // closes the socket and our writes start failing. The flood is paced
    // and bounded (the server reads whatever a peer sends; 22 MB of
    // answers is several times any default socket buffering), then only
    // probes for the close.
    const FLOOD: usize = 400 * 1024;
    let stats = encode_request(&WireRequest::Stats);
    let chunk = stats.repeat(1024);
    let started = Instant::now();
    let mut sent = 0;
    loop {
        let (bytes, pause) = if sent < FLOOD {
            (&chunk, Duration::from_millis(2))
        } else {
            (&stats, Duration::from_millis(10))
        };
        if deaf.stream.write_all(bytes).is_err() {
            break;
        }
        sent += bytes.len() / stats.len();
        std::thread::sleep(pause);
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "still connected after {sent} unread responses"
        );
    }
    settle(handle.addr());
    let summary = handle.shutdown();
    assert_eq!(
        (summary.idle_disconnects, summary.overflow_disconnects),
        (0, 1)
    );
    // The notice is best-effort and sits behind the backlog it reports;
    // what must hold is that the stream ends instead of hanging.
    let mut last = None;
    while let Some(frame) = deaf.next_frame() {
        last = Some(frame);
    }
    if let Some(WireFrame::Push(WirePush::Disconnect { code, .. })) = last {
        assert_eq!(code, DISCONNECT_WRITE_OVERFLOW);
    }
}

#[test]
fn pipelined_responses_stay_fifo_across_batched_handoffs() {
    const REQUESTS: usize = 2_000;
    let handle = quiet_server(ServeOptions::default());
    let mut client = Client::connect(handle.addr());

    // `Stats` reports how many devices are registered, so its answer
    // pins it between the `Register`s around it; the three response
    // variants pin the rest.
    let mut wire = Vec::new();
    let mut expected = Vec::new();
    let mut registered = 0u64;
    for k in 0..REQUESTS {
        let request = match k % 3 {
            0 => {
                registered += 1;
                expected.push(None);
                register(k as u64 + 1)
            }
            1 => {
                expected.push(Some(registered));
                WireRequest::Stats
            }
            _ => {
                expected.push(None);
                WireRequest::DrainOutbox
            }
        };
        wire.extend(encode_request(&request));
    }
    client.stream.write_all(&wire).unwrap();

    for (k, expected) in expected.iter().enumerate() {
        let response = client.next_response();
        match (k % 3, &response) {
            (0, WireResponse::Ok) | (2, WireResponse::Outbox { .. }) => {}
            (1, WireResponse::Stats { devices, .. }) => {
                assert_eq!(Some(*devices), *expected, "response {k} out of order");
            }
            _ => panic!("response {k} does not answer request {k}: {response:?}"),
        }
    }
    let summary = handle.shutdown();
    assert_eq!(summary.requests, REQUESTS as u64);
    assert_eq!(summary.bad_frames, 0);
}

/// The journal is committed once per engine turn, *before* that turn's
/// frames are handed to the socket workers. So the moment a client holds
/// the last response, every record those requests produced is in the
/// kernel: a copy of the directory taken then — server still running, no
/// flush asked for — is a crash image that recovers all of them.
#[test]
fn an_acknowledged_request_is_already_in_the_journal() {
    const REQUESTS: usize = 2_000;
    let base = std::env::temp_dir().join(format!("senseaid-ack-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (wal, image) = (base.join("wal"), base.join("image"));

    let handle = quiet_server(ServeOptions {
        persist_dir: Some(wal.clone()),
        ..ServeOptions::default()
    });
    let mut client = Client::connect(handle.addr());

    // `Register` and `Comm` journal one record each; `Observe` and
    // `StateUpdate` journal the lease renewal and then their own.
    let mut wire = Vec::new();
    let (mut registered, mut records_due) = (0u64, 0u64);
    for k in 0..REQUESTS {
        let request = match k % 4 {
            0 => {
                registered += 1;
                records_due += 1;
                register(registered)
            }
            1 => {
                records_due += 2;
                WireRequest::Observe {
                    imei: registered,
                    lat_deg: CAMPUS.0,
                    lon_deg: CAMPUS.1,
                    cell: None,
                }
            }
            2 => {
                records_due += 2;
                WireRequest::StateUpdate {
                    imei: registered,
                    battery_pct: 80.0,
                    cs_energy_j: 1.5,
                }
            }
            _ => {
                records_due += 1;
                WireRequest::Comm { imei: registered }
            }
        };
        wire.extend(encode_request(&request));
    }
    client.stream.write_all(&wire).unwrap();
    for k in 0..REQUESTS {
        assert_eq!(client.next_response(), WireResponse::Ok, "response {k}");
    }

    // The crash image: whatever the files hold right now.
    std::fs::create_dir_all(&image).unwrap();
    for entry in std::fs::read_dir(&wal).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), image.join(entry.file_name())).unwrap();
    }
    let mut recovered = trace_server(1);
    let report = recovered
        .recover_from_storage(
            Box::new(DirStorage::open(&image).unwrap()),
            PersistConfig::default(),
            senseaid::sim::SimTime::ZERO,
        )
        .expect("the image recovers");
    assert_eq!(
        report.journal_bytes_dropped, 0,
        "the server is idle: nothing was mid-write"
    );
    assert!(!report.cold_start);
    assert!(
        report.ops_replayed >= records_due,
        "acknowledged but not journaled: {} of {records_due} records",
        report.ops_replayed
    );
    assert_eq!(recovered.device_count() as u64, registered);

    let summary = handle.shutdown();
    assert_eq!(summary.requests, REQUESTS as u64);
    assert!(summary.flush.journal_records >= records_due);
    assert!(
        summary.render().ends_with("flush=clean"),
        "{}",
        summary.render()
    );
    let _ = std::fs::remove_dir_all(&base);
}
