//! Assembler golden: every program the repository generates, pinned by
//! a digest of what the assembler made of it.
//!
//! Each entry hashes `format!("{:?}", (p.instrs(), p.symbols()))` with
//! FNV-1a-64, so a change to the assembler that alters any instruction,
//! operand, unit placement or label index of any in-repo program fails
//! here, naming the program. The table only changes when a generator's
//! text changes on purpose; an assembler rewrite must leave it alone.
//! On a mismatch the failure lists every differing entry with the digest
//! it got.

use mm_isa::instr::Program;
use mm_runtime::barrier::{barrier4_programs, fig6_loop_pair};
use mm_runtime::image::RuntimeImage;
use mm_runtime::kernels::{coherent_smooth, stencil_kernel};
use mm_runtime::workloads::{
    matmul_block, sample_sort_node, spmv_node, task_queue, traffic_node, SortLayout, SpmvLayout,
    TrafficDest,
};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(p: &Program) -> u64 {
    fnv1a64(format!("{:?}", (p.instrs(), p.symbols())).as_bytes())
}

/// Every generator, with the parameters the scenarios and artifacts
/// use, in a fixed order.
fn programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = Vec::new();
    let mut add = |name: String, p: &Program| out.push((name, p.clone()));

    let image = RuntimeImage::build();
    add("ltlb_handler".into(), &image.ltlb_handler);
    add("p0_handler".into(), &image.p0_handler);
    add("p1_handler".into(), &image.p1_handler);

    for neighbours in [6, 26] {
        for threads in [1, 2, 4] {
            let k = stencil_kernel(neighbours, threads);
            for (h, p) in k.programs.iter().enumerate() {
                add(format!("stencil_{neighbours}_t{threads}_h{h}"), p);
            }
        }
    }

    add("coherent_smooth_even".into(), &coherent_smooth(0, 1, 900));
    add("coherent_smooth_odd".into(), &coherent_smooth(1, 0, 900));

    let sort = SortLayout { p: 4, k: 8 };
    add(
        "sample_sort".into(),
        &sample_sort_node(&sort, &[25, 50, 75]),
    );
    for bj in 0..2 {
        add(format!("matmul_{bj}"), &matmul_block(bj));
    }
    add(
        "spmv".into(),
        &spmv_node(&SpmvLayout { rows: 8, nnz: 4 }, 8),
    );
    add("task_queue".into(), &task_queue(4, 6));

    // Uniform (round-robin from each sender), hotspot (everyone to 0)
    // and transpose (fixed partners on the 2x2 face).
    let dests = [
        ("rr0", TrafficDest::RoundRobin { start: 0 }),
        ("rr1", TrafficDest::RoundRobin { start: 1 }),
        ("rr2", TrafficDest::RoundRobin { start: 2 }),
        ("rr3", TrafficDest::RoundRobin { start: 3 }),
        ("fixed0", TrafficDest::Fixed(0)),
        ("fixed1", TrafficDest::Fixed(1)),
        ("fixed2", TrafficDest::Fixed(2)),
        ("fixed3", TrafficDest::Fixed(3)),
    ];
    for (tag, dest) in dests {
        for gap in [0u32, 8] {
            add(
                format!("traffic_{tag}_gap{gap}"),
                &traffic_node(dest, 4, gap, 64),
            );
        }
    }

    let [h0, h1] = fig6_loop_pair(25);
    add("fig6_h0".into(), &h0);
    add("fig6_h1".into(), &h1);
    for (c, p) in barrier4_programs(10).iter().enumerate() {
        add(format!("barrier4_h{c}"), p);
    }
    out
}

const GOLDEN: &[(&str, u64)] = &[
    ("ltlb_handler", 0xd60935b5d6e1845d),
    ("p0_handler", 0x0c04ac7eb52bf235),
    ("p1_handler", 0xe11a4ce5ff875813),
    ("stencil_6_t1_h0", 0x93521007b46be885),
    ("stencil_6_t2_h0", 0x2becf968f2f07890),
    ("stencil_6_t2_h1", 0xf5fa5b0491a83a3b),
    ("stencil_6_t4_h0", 0xbd7735d77b150e9d),
    ("stencil_6_t4_h1", 0x44c8b12fe6f024ef),
    ("stencil_6_t4_h2", 0xc61a1eedbc43b824),
    ("stencil_6_t4_h3", 0x990e1471a25eaeee),
    ("stencil_26_t1_h0", 0x81e7b04a9c399a43),
    ("stencil_26_t2_h0", 0x5657c73a68bb8f23),
    ("stencil_26_t2_h1", 0x363862baae5ef0f4),
    ("stencil_26_t4_h0", 0xc926d5c14ec59c02),
    ("stencil_26_t4_h1", 0xa7c156ea10c5b6c5),
    ("stencil_26_t4_h2", 0x8ad1cb1496c917c2),
    ("stencil_26_t4_h3", 0x08736f2bb6a2c283),
    ("coherent_smooth_even", 0xd271549b08d633dc),
    ("coherent_smooth_odd", 0x8f49a4a1035fbadf),
    ("sample_sort", 0xf1495a4728b6b2fb),
    ("matmul_0", 0x2470484bdf7ba22c),
    ("matmul_1", 0x72a87f4d102a2e7a),
    ("spmv", 0xa64d78917a239e6a),
    ("task_queue", 0x30ec318ba04609dc),
    ("traffic_rr0_gap0", 0x58c88f3c40f369c9),
    ("traffic_rr0_gap8", 0x86dd414fb8a122a9),
    ("traffic_rr1_gap0", 0xbbb1ef0204353d74),
    ("traffic_rr1_gap8", 0x8d741b45656ef97a),
    ("traffic_rr2_gap0", 0x7ba16836e506dfdb),
    ("traffic_rr2_gap8", 0x039628177a62bc37),
    ("traffic_rr3_gap0", 0x34975e184ba4b80e),
    ("traffic_rr3_gap8", 0x47ef1b6591453d30),
    ("traffic_fixed0_gap0", 0xbfbe8ee594019f50),
    ("traffic_fixed0_gap8", 0x29252a0507b4f0da),
    ("traffic_fixed1_gap0", 0x223ee34311bd36ef),
    ("traffic_fixed1_gap8", 0x2336616bfbdf7867),
    ("traffic_fixed2_gap0", 0x05ebc5dba1a615d6),
    ("traffic_fixed2_gap8", 0x6d3009cc18a9bf1c),
    ("traffic_fixed3_gap0", 0x84d34821ce90b8e5),
    ("traffic_fixed3_gap8", 0xdd2435080a54f7e1),
    ("fig6_h0", 0x6aedaa90cc512105),
    ("fig6_h1", 0xf441bed5bf396afc),
    ("barrier4_h0", 0xdf12daf4108b6528),
    ("barrier4_h1", 0x399adf0527daecb3),
    ("barrier4_h2", 0xab6cb5aef595cc7d),
    ("barrier4_h3", 0xfd70ffa019e3c56f),
];

#[test]
fn every_generated_program_assembles_to_its_golden() {
    let got: Vec<(String, u64)> = programs()
        .into_iter()
        .map(|(name, p)| (name, digest(&p)))
        .collect();
    let mut diffs = Vec::new();
    for (i, (name, d)) in got.iter().enumerate() {
        match GOLDEN.get(i) {
            Some((want_name, want)) if want_name == name && want == d => {}
            _ => diffs.push(format!("    (\"{name}\", {d:#018x}),")),
        }
    }
    assert!(
        diffs.is_empty() && got.len() == GOLDEN.len(),
        "{} of {} programs differ from the golden ({} pinned); got:\n{}",
        diffs.len(),
        got.len(),
        GOLDEN.len(),
        diffs.join("\n")
    );
}
