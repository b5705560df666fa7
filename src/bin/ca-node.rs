//! `ca-node`: run one convex-agreement party as a real network process.
//!
//! Start `n` of these (any mix of machines/terminals), all with the same
//! `--peers` list; each runs `Π_ℤ` over TCP and prints the agreed value.
//!
//! ```text
//! ca-node --index 0 --peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003,127.0.0.1:7004 --input -1005
//! ca-node --index 1 --peers ...                                          --input -1004
//! ...
//! ```
//!
//! Options:
//!   --index <i>       this party's position in the peers list (required)
//!   --peers <list>    comma-separated host:port for ALL parties (required)
//!   --input <int>     this party's integer input (required)
//!   --scale <d>       interpret input as fixed-point with d decimals
//!   --delta-ms <ms>   synchrony bound Δ (default 500)

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a command-line tool reports on its own streams"
)]

use std::net::SocketAddr;
use std::process::exit;
use std::time::Duration;

use convex_agreement::bits::{Fixed, Int};
use convex_agreement::core::CaProtocol;
use convex_agreement::net::PartyId;
use convex_agreement::runtime::TcpParty;

struct Args {
    index: usize,
    peers: Vec<SocketAddr>,
    input: String,
    scale: Option<u32>,
    delta: Duration,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: ca-node --index <i> --peers <h:p,h:p,...> --input <int> [--scale <d>] [--delta-ms <ms>]"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut index = None;
    let mut peers = None;
    let mut input = None;
    let mut scale = None;
    let mut delta = Duration::from_millis(500);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage("missing value"));
        match flag.as_str() {
            "--index" => index = Some(value().parse().unwrap_or_else(|_| usage("bad --index"))),
            "--peers" => {
                let list: Result<Vec<SocketAddr>, _> = value().split(',').map(str::parse).collect();
                peers = Some(list.unwrap_or_else(|_| usage("bad --peers")));
            }
            "--input" => input = Some(value()),
            "--scale" => scale = Some(value().parse().unwrap_or_else(|_| usage("bad --scale"))),
            "--delta-ms" => {
                delta = Duration::from_millis(
                    value().parse().unwrap_or_else(|_| usage("bad --delta-ms")),
                )
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        index: index.unwrap_or_else(|| usage("--index required")),
        peers: peers.unwrap_or_else(|| usage("--peers required")),
        input: input.unwrap_or_else(|| usage("--input required")),
        scale,
        delta,
    }
}

fn main() {
    let args = parse_args();
    let n = args.peers.len();
    if args.index >= n {
        usage("--index out of range");
    }
    let proto = CaProtocol::new();

    eprintln!(
        "ca-node {}/{n}: binding {}, Δ = {:?}",
        args.index, args.peers[args.index], args.delta
    );
    let mut comm = match TcpParty::establish(PartyId(args.index), &args.peers, args.delta) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("failed to establish clique: {e}");
            exit(1);
        }
    };
    eprintln!("ca-node {}: clique established, running Π_ℤ", args.index);

    match args.scale {
        Some(scale) => {
            let input = Fixed::parse(&args.input, scale)
                .unwrap_or_else(|e| usage(&format!("bad --input: {e}")));
            let out = proto.run_fixed(&mut comm, &input);
            println!("{out}");
        }
        None => {
            let input: Int = args
                .input
                .parse()
                .unwrap_or_else(|_| usage("bad --input: not an integer"));
            let out = proto.run_int(&mut comm, &input);
            println!("{out}");
        }
    }
}
