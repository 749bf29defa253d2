use mm_analyze::{analyze_sources, config};
fn main() {
    let cfg = config::parse("[hot_alloc]\nenabled = true\nmodules = [\"crates/core/src/pool.rs\"]\n[panic_discipline]\nenabled = true\ncrates = [\"core\"]\n").unwrap();
    let src = r#"
#[cfg(not(test))]
pub fn prod_only(xs: &[u64]) -> u64 {
    let v: Vec<u64> = xs.to_vec();
    v.first().unwrap() + 1
}

#[cfg_attr(test, allow(dead_code))]
pub fn always_compiled() {
    let s = format!("hot");
    let _ = s;
}
"#;
    let r = analyze_sources(
        &[("crates/core/src/pool.rs".to_string(), src.to_string())],
        &cfg,
    );
    for f in &r.findings {
        println!("{}:{} [{}] {}", f.file, f.line, f.rule, f.message);
    }
    println!("findings={}", r.findings.len());
}
