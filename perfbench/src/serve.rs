//! Inputs of the serve workloads: the seeded world, its query list, and
//! the offline answer each query must receive.

use nxd_dns_wire::{Message, RCode};
use nxd_serve::{build_world, route, ServeWorld, WorldConfig};

/// Queries in the replayed list. The generators cycle through it and stamp
/// ids sequentially, so from the 65,537th query on one socket every
/// (id, name) pair repeats.
pub const QUERY_LIST: usize = 16_384;
/// Never-registered names in both serve worlds.
pub const NX_NAMES: usize = 20_000;
/// Registered `.com`-style zones on `serve-udp`: a large TLD zone.
pub const UDP_REGISTERED: usize = 2_000;
/// Registered zones on `serve-tcp`: a small TLD zone.
pub const TCP_REGISTERED: usize = 120;
/// Offered rate of the `serve-udp` open loop, queries per second.
pub const UDP_RATE: u64 = 4_000;
/// Connections in flight on `serve-tcp`.
pub const TCP_CONNECTIONS: usize = 2;
/// Queries pipelined per `serve-tcp` connection.
pub const TCP_PIPELINE: usize = 8;

pub fn world_config(seed: u64, registered: usize) -> WorldConfig {
    WorldConfig {
        seed,
        nx_names: NX_NAMES,
        registered,
        queries: QUERY_LIST,
    }
}

/// A world plus the expected answer of each query in its list.
pub struct Inputs {
    pub world: ServeWorld,
    /// Offline `SimDns::respond` bytes for `world.queries[i]`.
    pub expected: Vec<Vec<u8>>,
    /// Question name and response code of `world.queries[i]`, as the
    /// sensor sink records them.
    pub rows: Vec<(String, RCode)>,
}

impl Inputs {
    pub fn build(config: &WorldConfig) -> Inputs {
        let world = build_world(config);
        let mut expected = Vec::with_capacity(world.queries.len());
        let mut rows = Vec::with_capacity(world.queries.len());
        for wire in &world.queries {
            let query = Message::decode(wire).expect("world queries decode");
            let server = route(&world.dns, &query);
            let answer = world
                .dns
                .respond(&server, wire)
                .expect("world queries have an offline answer");
            let qname = query
                .questions
                .first()
                .expect("world queries carry a question")
                .qname
                .to_string();
            rows.push((qname, RCode::from_u8(answer[3] & 0x0F)));
            expected.push(answer);
        }
        Inputs {
            world,
            expected,
            rows,
        }
    }
}
