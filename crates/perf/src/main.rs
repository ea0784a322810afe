fn main() {
    std::process::exit(incast_perf::cli::main());
}
