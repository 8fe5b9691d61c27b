//! Command-line front end for the detection server.

use std::process::ExitCode;

use sfrd_serve::{Server, ServerConfig};

const USAGE: &str = "usage: sfrd-serve [--addr HOST:PORT] [--workers N] [--queue-cap N]";

fn main() -> ExitCode {
    let mut addr = String::from("127.0.0.1:7199");
    let mut cfg = ServerConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let result = match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--addr" => args
                .next()
                .map(|v| addr = v)
                .ok_or_else(|| "missing value for --addr".to_string()),
            "--workers" => parse_num(&mut args, "--workers").map(|n| cfg.workers = n),
            "--queue-cap" => parse_num(&mut args, "--queue-cap").map(|n| cfg.queue_cap = n),
            flag => Err(format!("unknown flag {flag:?}")),
        };
        if let Err(e) = result {
            eprintln!("sfrd-serve: {e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    }

    let server = match Server::bind(addr.as_str(), cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sfrd-serve: bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "sfrd-serve: listening on {} ({} workers, queue cap {})",
        server.local_addr(),
        cfg.workers,
        cfg.queue_cap
    );
    // Serve until killed.
    loop {
        std::thread::park();
    }
}

fn parse_num(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, String> {
    let v = args
        .next()
        .ok_or_else(|| format!("missing value for {flag}"))?;
    v.parse()
        .map_err(|_| format!("bad value for {flag}: {v:?}"))
}
