fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(mlir_rl_benchmark::cli::main(&args));
}
