//! Router configuration, shared by all platforms (the router itself is
//! unix-only).

use freqywm_net::NetConfig;
use std::time::Duration;

/// Router tier configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Backend engine addresses; position in the vec is the shard id
    /// and must match each backend's `--shard-id i/N`.
    pub shards: Vec<String>,
    /// Optional standby address per shard (aligned with `shards`; a
    /// short vec is padded with `None`). When health handling declares
    /// a primary dead, the router dials the standby, issues `promote`,
    /// and redirects the shard's traffic — requests arriving during
    /// the switch are parked, not errored.
    pub standbys: Vec<Option<String>>,
    /// Client-side front-end settings, the same as `freqywm serve`'s:
    /// connection cap, frame cap, slow-client eviction bound, drain
    /// deadline (shutdown op or SIGTERM), poller backend and
    /// client-side shared-secret auth (`hello` op / per-request
    /// `auth`).
    pub net: NetConfig,
    /// Idle gap after which a connected backend gets a `metrics`
    /// health probe.
    pub probe_interval: Duration,
    /// Reconnect backoff range for dead backends.
    pub reconnect_min: Duration,
    pub reconnect_max: Duration,
    /// Per-attempt bound on dialing a backend (connector thread).
    pub connect_timeout: Duration,
    /// How long requests may park while a standby promotion is in
    /// progress before they error out (promotion itself keeps
    /// retrying past this).
    pub failover_timeout: Duration,
    /// Token the router presents to backends (their `--auth-token`),
    /// sent as a `hello` op right after each (re)connect.
    pub shard_auth_token: Option<String>,
    /// Install SIGTERM/SIGINT handlers that drain the router (the CLI
    /// turns this on; embedded/test routers leave it off).
    pub handle_signals: bool,
}

impl RouterConfig {
    pub fn new(shards: Vec<String>) -> Self {
        RouterConfig {
            shards,
            standbys: Vec::new(),
            net: NetConfig::default(),
            probe_interval: Duration::from_secs(2),
            reconnect_min: Duration::from_millis(100),
            reconnect_max: Duration::from_secs(3),
            connect_timeout: Duration::from_secs(1),
            failover_timeout: Duration::from_secs(10),
            shard_auth_token: None,
            handle_signals: false,
        }
    }
}
