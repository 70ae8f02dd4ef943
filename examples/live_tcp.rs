//! Live operation over a real TCP socket.
//!
//! Everything else in this repository runs on the deterministic
//! virtual-time simulator; this example proves the same protocol
//! stack works over an actual network connection: a server thread
//! renders a web-style page through the THINC pipeline and streams
//! the encoded protocol over 127.0.0.1 TCP; the client (main thread)
//! reassembles frames from the socket and executes them. At the end
//! the client framebuffer checksum must equal the server screen's.
//!
//! Run with: `cargo run --example live_tcp`

use thinc::client::ThincClient;
use thinc::core::server::{ServerConfig, VIEWER};
use thinc::display::drawable::DrawableId;
use thinc::display::server::WindowServer;
use thinc::net::link::NetworkConfig;
use thinc::net::time::SimTime;
use thinc::net::trace::PacketTrace;
use thinc::net::transport::{TcpTransport, Transport, TransportError};
use thinc::protocol::wire::{encode_message, FrameReader};
use thinc::raster::PixelFormat;
use thinc::workloads::web::WebWorkload;

const W: u32 = 320;
const H: u32 = 240;

fn main() {
    let (listener, addr) = TcpTransport::listen("127.0.0.1:0".parse().unwrap())
        .expect("bind loopback listener");
    println!("server listening on {addr}");

    let server = std::thread::spawn(move || {
        let mut transport = TcpTransport::accept(&listener).expect("accept client");
        let config = ServerConfig {
            width: W,
            height: H,
            ..ServerConfig::default()
        };
        let mut ws = WindowServer::new(W, H, PixelFormat::Rgb888, config.session());
        // Render one synthetic web page, browser style.
        let wl = WebWorkload::new(W, H, 7);
        let mut reqs = vec![thinc::display::request::DrawRequest::CreatePixmap {
            width: W,
            height: H,
        }];
        reqs.extend(wl.render_requests(2, DrawableId(1)));
        ws.process_all(reqs);
        // Flush through the delivery pipeline (scheduling, eviction,
        // compression) and ship each message over the socket.
        let mut pipe = NetworkConfig::lan_desktop().connect().down;
        let mut trace = PacketTrace::new();
        let mut now = SimTime::ZERO;
        let mut sent = 0usize;
        let mut messages = 0usize;
        loop {
            let batch = ws.driver_mut().flush_client(VIEWER, now, &mut pipe, &mut trace);
            for (_, msg) in &batch {
                let bytes = encode_message(msg);
                transport.send_all(&bytes).expect("socket write");
                sent += bytes.len();
                messages += 1;
            }
            let viewer = ws.driver().viewer(VIEWER).expect("attached");
            if viewer.buffer().is_empty() && viewer.av_backlog() == 0 {
                break;
            }
            now = pipe.tx_free_at();
        }
        println!("server: sent {messages} messages, {sent} bytes over TCP");
        ws.screen().checksum()
    });

    let mut transport = TcpTransport::connect(addr).expect("connect to server");
    let mut client = ThincClient::new(W, H, PixelFormat::Rgb888);
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        match transport.try_recv(&mut buf) {
            Ok(0) => std::thread::yield_now(),
            Ok(n) => {
                reader.feed(&buf[..n]);
                while let Some(msg) = reader.next_message().expect("valid stream") {
                    client.apply(&msg);
                }
            }
            Err(TransportError::Closed) => break,
            Err(e) => panic!("socket error: {e}"),
        }
    }
    let server_checksum = server.join().expect("server thread");
    println!(
        "client: executed {:?}",
        client.stats()
    );
    assert_eq!(
        client.framebuffer().checksum(),
        server_checksum,
        "client framebuffer must match the server screen"
    );
    println!("live TCP OK: checksums match across a real socket");
}
