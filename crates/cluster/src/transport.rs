//! Node transports: how the coordinator reaches node servers.
//!
//! [`LoopbackTransport`] keeps every server in-process but still pushes
//! every call through the full wire codec — encode, frame, unframe,
//! decode on both legs — so the loopback and TCP paths execute the same
//! protocol byte for byte (the CI transport-equivalence check pins
//! this). [`TcpTransport`] speaks the same frames over real sockets,
//! one request per connection, reusing the plain-std accept-loop idiom
//! of `mcs_obs::ExportServer`.

use std::collections::BTreeMap;
use std::fmt;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::node::NodeServer;
use crate::wire::{
    decode_request, decode_response, encode_request, encode_response, frame, read_frame, unframe,
    write_frame, Request, Response,
};

/// Which replica of a node a call targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// The replica that starts as primary.
    Primary,
    /// The node's stateless spare, promoted when the primary is lost.
    Follower,
}

/// A call target: `(node, replica)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Endpoint {
    /// The node id.
    pub node: u32,
    /// Which replica.
    pub role: Role,
}

/// Why a call failed at the transport layer.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportError {
    /// The endpoint cannot be reached (connection refused, node lost,
    /// partitioned, or stream broken mid-call).
    Unreachable(Endpoint),
    /// The bytes arrived but did not decode.
    Protocol(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Unreachable(endpoint) => {
                write!(f, "node {} {:?} unreachable", endpoint.node, endpoint.role)
            }
            TransportError::Protocol(message) => write!(f, "protocol error: {message}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// How the coordinator reaches node servers.
pub trait NodeTransport {
    /// Sends `request` to `endpoint` and waits for its response.
    ///
    /// # Errors
    ///
    /// A [`TransportError`] when the endpoint is unreachable or the
    /// exchange violates the wire protocol.
    fn call(&self, endpoint: Endpoint, request: &Request) -> Result<Response, TransportError>;
}

// ---------------------------------------------------------------------
// Loopback
// ---------------------------------------------------------------------

/// In-process transport: servers live behind mutexes, every call round-
/// trips the wire codec.
pub struct LoopbackTransport {
    replicas: BTreeMap<(u32, u8), Mutex<NodeServer>>,
}

fn role_key(role: Role) -> u8 {
    match role {
        Role::Primary => 0,
        Role::Follower => 1,
    }
}

impl LoopbackTransport {
    /// Builds a loopback cluster from `(node id, primary, spare)` server
    /// triples.
    pub fn new(nodes: Vec<(u32, NodeServer, NodeServer)>) -> Self {
        let mut replicas = BTreeMap::new();
        for (node, primary, follower) in nodes {
            replicas.insert((node, role_key(Role::Primary)), Mutex::new(primary));
            replicas.insert((node, role_key(Role::Follower)), Mutex::new(follower));
        }
        LoopbackTransport { replicas }
    }
}

impl NodeTransport for LoopbackTransport {
    fn call(&self, endpoint: Endpoint, request: &Request) -> Result<Response, TransportError> {
        let server = self
            .replicas
            .get(&(endpoint.node, role_key(endpoint.role)))
            .ok_or(TransportError::Unreachable(endpoint))?;
        // Round-trip the request through the codec so loopback exercises
        // exactly the bytes TCP would carry.
        let framed = frame(&encode_request(request));
        let decoded = unframe(&framed)
            .and_then(decode_request)
            .map_err(|error| TransportError::Protocol(error.to_string()))?;
        let response = server
            .lock()
            .expect("node server mutex poisoned")
            .handle(&decoded);
        let framed = frame(&encode_response(&response));
        unframe(&framed)
            .and_then(decode_response)
            .map_err(|error| TransportError::Protocol(error.to_string()))
    }
}

// ---------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------

/// A node server listening on a real socket.
pub struct NodeListener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl NodeListener {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for NodeListener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves `server` on an ephemeral localhost port: one frame exchange
/// per connection, like the metrics exporter's accept loop.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve_node(server: Arc<Mutex<NodeServer>>) -> std::io::Result<NodeListener> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if stop_flag.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            let Ok(Ok(payload)) = read_frame(&mut stream) else {
                continue;
            };
            let response = match decode_request(&payload) {
                Ok(request) => server
                    .lock()
                    .expect("node server mutex poisoned")
                    .handle(&request),
                Err(error) => Response::Error {
                    message: format!("bad request: {error}"),
                },
            };
            let _ = write_frame(&mut stream, &encode_response(&response));
        }
    });
    Ok(NodeListener {
        addr,
        stop,
        handle: Some(handle),
    })
}

/// TCP transport: a registry of endpoint addresses, one connection per
/// call.
#[derive(Debug, Default)]
pub struct TcpTransport {
    addrs: BTreeMap<(u32, u8), SocketAddr>,
}

impl TcpTransport {
    /// An empty registry.
    pub fn new() -> Self {
        TcpTransport::default()
    }

    /// Registers the address serving `endpoint`.
    pub fn register(&mut self, endpoint: Endpoint, addr: SocketAddr) {
        self.addrs
            .insert((endpoint.node, role_key(endpoint.role)), addr);
    }
}

impl NodeTransport for TcpTransport {
    fn call(&self, endpoint: Endpoint, request: &Request) -> Result<Response, TransportError> {
        let addr = self
            .addrs
            .get(&(endpoint.node, role_key(endpoint.role)))
            .ok_or(TransportError::Unreachable(endpoint))?;
        let mut stream =
            TcpStream::connect(addr).map_err(|_| TransportError::Unreachable(endpoint))?;
        write_frame(&mut stream, &encode_request(request))
            .map_err(|_| TransportError::Unreachable(endpoint))?;
        let payload = match read_frame(&mut stream) {
            Ok(Ok(payload)) => payload,
            Ok(Err(error)) => return Err(TransportError::Protocol(error.to_string())),
            Err(_) => return Err(TransportError::Unreachable(endpoint)),
        };
        decode_response(&payload).map_err(|error| TransportError::Protocol(error.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterParams;
    use crate::topology::{TaskSite, Topology};
    use mcs_core::types::{Task, TaskId};
    use mcs_mobility::grid::{Cell, CityGrid};
    use mcs_platform::ingest::Bid;

    fn topology() -> Topology {
        let grid = CityGrid::new(4, 2, 1.0);
        let sites = vec![
            TaskSite {
                task: Task::with_requirement(TaskId::new(0), 0.8).unwrap(),
                cell: Cell { x: 0, y: 0 },
            },
            TaskSite {
                task: Task::with_requirement(TaskId::new(1), 0.7).unwrap(),
                cell: Cell { x: 3, y: 0 },
            },
        ];
        Topology::bands(grid, 2, sites).unwrap()
    }

    fn clear_request() -> Request {
        Request::Clear {
            region: 0,
            round: 0,
            bids: vec![
                Bid {
                    user: 0,
                    cost: 2.0,
                    tasks: vec![(0, 0.6)],
                },
                Bid {
                    user: 1,
                    cost: 1.5,
                    tasks: vec![(0, 0.7)],
                },
            ],
        }
    }

    #[test]
    fn loopback_and_tcp_serve_identical_responses() {
        let topology = topology();
        let params = ClusterParams::default().with_seed(3);

        let loopback = LoopbackTransport::new(vec![(
            0,
            NodeServer::new(&topology, params, 1, 0, true),
            NodeServer::new(&topology, params, 1, 0, false),
        )]);

        let tcp_server = Arc::new(Mutex::new(NodeServer::new(&topology, params, 1, 0, true)));
        let mut listener = serve_node(tcp_server).unwrap();
        let mut tcp = TcpTransport::new();
        let endpoint = Endpoint {
            node: 0,
            role: Role::Primary,
        };
        tcp.register(endpoint, listener.addr());

        for request in [Request::Ping, clear_request(), Request::Ping] {
            let a = loopback.call(endpoint, &request).unwrap();
            let b = tcp.call(endpoint, &request).unwrap();
            assert_eq!(a, b, "transports disagree on {request:?}");
        }
        listener.shutdown();
    }

    #[test]
    fn unknown_endpoints_are_unreachable() {
        let loopback = LoopbackTransport::new(vec![]);
        let endpoint = Endpoint {
            node: 7,
            role: Role::Primary,
        };
        assert_eq!(
            loopback.call(endpoint, &Request::Ping),
            Err(TransportError::Unreachable(endpoint))
        );
        let tcp = TcpTransport::new();
        assert!(matches!(
            tcp.call(endpoint, &Request::Ping),
            Err(TransportError::Unreachable(_))
        ));
    }

    #[test]
    fn dead_sockets_surface_as_unreachable() {
        let topology = topology();
        let params = ClusterParams::default();
        let server = Arc::new(Mutex::new(NodeServer::new(&topology, params, 1, 0, true)));
        let mut listener = serve_node(server).unwrap();
        let addr = listener.addr();
        listener.shutdown();
        let mut tcp = TcpTransport::new();
        let endpoint = Endpoint {
            node: 0,
            role: Role::Primary,
        };
        tcp.register(endpoint, addr);
        assert!(matches!(
            tcp.call(endpoint, &Request::Ping),
            Err(TransportError::Unreachable(_))
        ));
    }
}
