//! `srs` — command-line front end for the SimRank similarity search.
//!
//! ```text
//! srs generate   --dataset web-Stanford --scale 0.05 --out g.bin [--seed S]
//! srs generate   --family web|social|collab|er --n N --deg D --out g.bin
//! srs convert    --in edges.txt --out g.bin       (text → binary, or back)
//! srs stats      --graph g.bin
//! srs preprocess --graph g.bin --index g.idx [--c 0.6 --t 11 --seed S]
//! srs query      --graph g.bin --index g.idx --vertex V [--k 20] [--ball R]
//! srs serve      --snapshot g.srs [--addr 127.0.0.1:7171]    (HTTP daemon)
//! srs loadgen    --addr 127.0.0.1:7171 --rate 200 --duration-s 5
//! srs topk-all   --graph g.bin --index g.idx [--k 20] [--out results.csv]
//! srs exact      --graph g.bin --vertex V [--k 20]
//! ```
//!
//! Graph files are auto-detected: a `SRSBNDL1` section bundle (a graph
//! file, or a snapshot, which carries the graph too) or a SNAP-style edge
//! list.

mod args;
mod commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            if e.usage {
                eprintln!("{}", commands::USAGE);
            }
            std::process::exit(2);
        }
    }
}
