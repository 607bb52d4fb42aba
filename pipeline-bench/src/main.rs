//! `ldpjs-pipeline`: see the library documentation for the workloads and output format.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(ldpjs_pipeline_bench::main_with_args(&args));
}
