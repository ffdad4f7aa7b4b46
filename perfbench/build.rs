//! Records the build flags and profile, so every run's header names the
//! code generation its numbers came from.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\x1f', " ");
    println!("cargo:rustc-env=PERFBENCH_RUSTFLAGS={flags}");
    println!(
        "cargo:rustc-env=PERFBENCH_PROFILE={}",
        std::env::var("PROFILE").unwrap_or_default()
    );
    println!("cargo:rerun-if-changed=build.rs");
}
