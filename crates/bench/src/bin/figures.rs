//! Every simulated figure and ablation of the reproduction, by name.
//!
//! ```console
//! $ cargo run --release -p bench --bin figures -- --list
//! $ cargo run --release -p bench --bin figures -- fig2_left [--quick] [--runs N] [--seed N] [--jobs N]
//! $ cargo run --release -p bench --bin figures -- adhoc --scheme streamlined --degree 16
//! ```
//!
//! The studies are the entries of [`bench::figures::STUDIES`]; `adhoc`
//! runs one incast configuration from flags ([`bench::figures::adhoc`]).

use bench::figures::{adhoc, ADHOC_USAGE, STUDIES};
use bench::RunOptions;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        eprintln!("figures --list\nfigures <study> [--quick] [--runs N] [--seed N] [--jobs N]\n{ADHOC_USAGE}");
        std::process::exit(2);
    };
    match name.as_str() {
        "--list" => STUDIES
            .iter()
            .for_each(|study| println!("{}", study.name())),
        "adhoc" => print!("{}", adhoc(rest)),
        _ => match STUDIES.iter().find(|study| study.name() == name.as_str()) {
            Some(study) => print!("{}", study.render(&RunOptions::parse(rest))),
            None => {
                eprintln!("unknown study {name:?}; `figures --list` names them all");
                std::process::exit(2);
            }
        },
    }
}
