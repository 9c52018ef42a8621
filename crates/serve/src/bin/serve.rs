//! The `serve` binary: an HTTP front end over a synthetic city.
//!
//! ```text
//! cargo run --release -p rnnhm_serve --bin serve -- \
//!     [--addr 127.0.0.1:8787] [--n 50000] [--seed 42] [--workers 4] \
//!     [--queue 64] [--deadline-ms 250] [--metric linf|l1|l2] [--k 1]
//! ```
//!
//! Then, for example:
//!
//! ```text
//! curl -s localhost:8787/stats
//! curl -s -X POST localhost:8787/session
//! curl -s -o frame.bin -D - \
//!   'localhost:8787/session/0/viewport?x0=0&x1=1&y0=0&y1=1&w=512&h=512'
//! curl -s -X POST 'localhost:8787/session/0/edit?op=add&x=0.5&y=0.5'
//! ```

use std::sync::Arc;
use std::time::Duration;

use rnn_heatmap::prelude::*;
use rnn_heatmap::HeatMapBuilder;
use rnnhm_serve::{serve, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--n POINTS] [--seed S] [--workers W] \
         [--queue Q] [--deadline-ms MS] [--metric linf|l1|l2] [--k K]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServerConfig { addr: "127.0.0.1:8787".to_string(), ..Default::default() };
    let mut n: usize = 50_000;
    let mut seed: u64 = 42;
    let mut metric = Metric::Linf;
    let mut k: usize = 1;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => config.addr = value(),
            "--n" => n = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--workers" => config.workers = value().parse().unwrap_or_else(|_| usage()),
            "--queue" => config.queue_depth = value().parse().unwrap_or_else(|_| usage()),
            "--deadline-ms" => {
                config.request_deadline =
                    Duration::from_millis(value().parse().unwrap_or_else(|_| usage()));
            }
            "--metric" => {
                metric = match value().as_str() {
                    "linf" => Metric::Linf,
                    "l1" => Metric::L1,
                    "l2" => Metric::L2,
                    _ => usage(),
                };
            }
            "--k" => k = value().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }

    let n_facilities = (n / 40).max(4);
    let Some(n_clients) = n.checked_sub(n_facilities) else { usage() };
    eprintln!("building a zipfian city of {n} points (seed {seed}, {metric:?}, k={k})...");
    let data = Dataset::zipfian(n, seed);
    let (clients, facilities) =
        sample_clients_facilities(&data.points, n_clients, n_facilities, seed);
    let engine = match HeatMapBuilder::bichromatic(clients, facilities)
        .metric(metric)
        .k(k)
        .build_engine(CountMeasure)
    {
        Ok(engine) => Arc::new(engine),
        Err(e) => {
            eprintln!("cannot build the heat map: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "engine up: {} NN-circles, {} facilities",
        engine.session().n_circles(),
        engine.session().n_facilities()
    );

    let addr = config.addr.clone();
    let server = serve(engine, config).unwrap_or_else(|e| {
        eprintln!("cannot listen on {addr}: {e}");
        std::process::exit(2);
    });
    eprintln!("serving on http://{} (session 0 is the root; GET / lists endpoints)", server.addr());
    eprintln!("press Ctrl-C to stop");
    // Serve until killed; all work happens on the server's threads.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
