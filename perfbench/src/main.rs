//! `perfbench --workload <pan_zoom|what_if|http_mixed> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, detail lines, and as its last line one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Exits non-zero without a result line on bad arguments.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("{{\"provenance\":{}}}", perfbench::util::provenance());
    match perfbench::run(&args) {
        Ok(report) => {
            for line in &report.details {
                println!("{line}");
            }
            println!("{}", report.result_line());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
