//! Command-line front end for the detection server.

use std::process::ExitCode;

use sfrd_serve::{Server, ServerConfig};

const USAGE: &str = "usage: sfrd-serve [--addr HOST:PORT]";

fn main() -> ExitCode {
    let mut addr = String::from("127.0.0.1:7199");

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
            flag => Err(format!("unknown flag {flag:?}")),
        };
        if let Err(e) = result {
            eprintln!("sfrd-serve: {e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    }

    let server = match Server::bind(addr.as_str(), ServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sfrd-serve: bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "sfrd-serve: listening on {} (one thread per session)",
        server.local_addr()
    );
    // Serve until killed.
    loop {
        std::thread::park();
    }
}
