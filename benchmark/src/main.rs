//! `mar-benchmark`: see the library's crate documentation.

fn main() -> std::process::ExitCode {
    mar_benchmark::main()
}
