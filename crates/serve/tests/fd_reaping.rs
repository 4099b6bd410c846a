//! Alone in its binary, so the process-wide descriptor count is this
//! test's own.

use scec_linalg::Fp61;
use scec_runtime::Transport;
use scec_serve::{DeviceServer, ServerConfig, TcpTransport};

fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

#[test]
fn closed_connections_do_not_pin_descriptors_until_shutdown() {
    let server = DeviceServer::bind::<Fp61>("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let before = open_descriptors();
    let cycles = 300;
    for _ in 0..cycles {
        let (mut transport, _rx, _meter) =
            TcpTransport::<Fp61>::connect(server.local_addr(), 0, &[1]).expect("connect");
        transport.shutdown();
    }
    // The server used to keep one duplicated descriptor per connection
    // it had ever accepted; now only the last few handlers still on
    // their way out hold any.
    let after = open_descriptors();
    assert!(
        after < before + 64,
        "{before} descriptors before, {after} after {cycles} connect-BYE cycles"
    );
    server.shutdown();
}
