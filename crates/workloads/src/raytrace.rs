//! `raytrace` — SPECjvm98 ray tracer.
//!
//! §3.4.2: "there are 17 allocation sites with the same behavior: an object
//! is allocated and assigned to an array element; the object's last use
//! occurs during its initialization … Thus, all objects allocated at these
//! sites are considered never-used … the code for the allocation of these
//! objects can be removed. This leads to a 45 % reduction in total drag."
//! The paper also notes a `private` field read only by a `get` method the
//! call graph shows is never invoked (§5.4).
//!
//! The model builds a scene with several distinct allocation sites filling
//! shade tables that rendering never reads (it uses a parallel int-array
//! geometry instead), then renders pixels with short-lived rays.

use heapdrag_vm::builder::ProgramBuilder;
use heapdrag_vm::class::Visibility;
use heapdrag_vm::program::Program;

use crate::spec::{Variant, Workload};

/// Builds the raytrace program.
pub fn build(variant: Variant) -> Program {
    let mut b = ProgramBuilder::new();

    // A shade entry: initialised by its constructor, never read again.
    let shade = b
        .begin_class("rt.Shade")
        .field("rgb", Visibility::Private)
        .field("gloss", Visibility::Private)
        .field("table", Visibility::Private)
        .finish();
    let shade_init = b.declare_method("init", Some(shade), false, 2, 2);
    {
        let mut m = b.begin_body(shade_init);
        m.load(0).load(1).putfield_named(shade, "rgb");
        m.load(0)
            .load(1)
            .push_int(2)
            .mul()
            .putfield_named(shade, "gloss");
        // a small per-shade lookup table, also only touched here
        m.load(0).push_int(10);
        m.mark("shade lookup table")
            .new_array()
            .putfield_named(shade, "table");
        m.ret();
        m.finish();
    }
    // The §5.4 example: a getter nothing ever calls.
    let shade_gloss = b.declare_method("gloss", Some(shade), false, 1, 1);
    {
        let mut m = b.begin_body(shade_gloss);
        m.load(0).getfield_named(shade, "gloss").ret_val();
        m.finish();
    }
    let _ = shade_gloss;

    let scene = b
        .begin_class("rt.Scene")
        .field("shadesA", Visibility::Private)
        .field("shadesB", Visibility::Private)
        .field("geometry", Visibility::Private)
        .finish();
    let sa = b.field_slot(scene, "shadesA");
    let sb = b.field_slot(scene, "shadesB");
    let geo = b.field_slot(scene, "geometry");

    // setup(this, n): fills geometry (used) and both shade tables
    // (never used) — two of the paper's seventeen sites.
    let setup = b.declare_method("setup", Some(scene), false, 2, 5);
    {
        // locals: 2 i, 3 arr, 4 shade
        let mut m = b.begin_body(setup);
        m.load(0).load(1).new_array().putfield(geo);
        m.load(0).load(1).new_array().putfield(sa);
        m.load(0).load(1).new_array().putfield(sb);
        m.push_int(0).store(2);
        m.label("fill");
        m.load(2).load(1).cmpge().branch("filled");
        // geometry[i] = i*i (genuinely used by render)
        m.load(0)
            .getfield(geo)
            .load(2)
            .load(2)
            .load(2)
            .mul()
            .astore();
        if variant == Variant::Original {
            // site A: shadesA[i] = new Shade(i)  — ctor-only use
            m.mark("site A: never-used Shade")
                .new_obj(shade)
                .dup()
                .store(4);
            m.load(2).call(shade_init);
            m.load(0).getfield(sa).load(2).load(4).astore();
            // site B: shadesB[i] = new Shade(2 i) — ctor-only use
            m.mark("site B: never-used Shade")
                .new_obj(shade)
                .dup()
                .store(4);
            m.load(2).push_int(2).mul().call(shade_init);
            m.load(0).getfield(sb).load(2).load(4).astore();
        }
        m.load(2).push_int(1).add().store(2);
        m.jump("fill");
        m.label("filled");
        m.ret();
        m.finish();
    }

    // render(this, pixels) -> checksum: short-lived ray objects per pixel.
    let ray = b
        .begin_class("rt.Ray")
        .field("dir", Visibility::Private)
        .finish();
    let ray_init = b.declare_method("init", Some(ray), false, 2, 2);
    {
        let mut m = b.begin_body(ray_init);
        m.load(0).load(1);
        m.mark("ray direction vector")
            .new_array()
            .putfield_named(ray, "dir");
        m.ret();
        m.finish();
    }
    let render = b.declare_method("render", Some(scene), false, 2, 6);
    {
        // locals: 2 i, 3 acc, 4 ray, 5 geometry
        let mut m = b.begin_body(render);
        m.load(0).getfield(geo).store(5);
        m.push_int(0).store(2);
        m.push_int(0).store(3);
        m.label("px");
        m.load(2).load(1).cmpge().branch("done");
        m.mark("per-pixel ray").new_obj(ray).dup().store(4);
        m.push_int(12).call(ray_init);
        // trace: read geometry + the ray's dir length
        m.load(3);
        m.load(5).load(2).load(5).array_len().rem().aload();
        m.add();
        m.load(4).getfield_named(ray, "dir").array_len();
        m.add().store(3);
        m.load(2).push_int(1).add().store(2);
        m.jump("px");
        m.label("done");
        m.load(3).ret_val();
        m.finish();
    }

    // main(input = [scene_size, pixels])
    let main = b.declare_method("main", None, true, 1, 4);
    {
        let mut m = b.begin_body(main);
        m.load(0).push_int(0).aload().store(1);
        m.load(0).push_int(1).aload().store(2);
        m.new_obj(scene).dup().store(3);
        m.load(1).call(setup);
        m.load(3).load(2).call(render).print();
        m.ret();
        m.finish();
    }
    b.set_entry(main);
    b.finish().expect("raytrace builds")
}

/// The raytrace workload descriptor.
pub fn workload() -> Workload {
    Workload {
        name: "raytrace",
        description: "raytracer of a picture",
        build,
        // 400 scene entries, 2500 pixels.
        default_input: || vec![400, 2500],
        alternate_input: || vec![550, 1800],
        rewriting: "code removal + assigning null",
        reference_kinds: "private array, private",
        expected_analysis: "indirect-usage (R), array liveness",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_core::{profile, Integrals, SavingsReport, VmConfig};
    use heapdrag_vm::interp::Vm;

    #[test]
    fn variants_agree_on_output() {
        let w = workload();
        let input = (w.default_input)();
        let o = Vm::new(&w.original(), VmConfig::default())
            .run(&input)
            .unwrap();
        let r = Vm::new(&w.revised(), VmConfig::default())
            .run(&input)
            .unwrap();
        assert_eq!(o.output, r.output);
    }

    #[test]
    fn removal_halves_the_drag() {
        let w = workload();
        let input = (w.default_input)();
        let ro = profile(&w.original(), &input, VmConfig::profiling()).unwrap();
        let rr = profile(&w.revised(), &input, VmConfig::profiling()).unwrap();
        let s = SavingsReport::new(
            Integrals::from_records(&ro.records),
            Integrals::from_records(&rr.records),
        );
        // Paper: 51.28 % drag saving, 30.55 % space saving.
        assert!(
            s.drag_saving_pct() > 35.0 && s.drag_saving_pct() < 80.0,
            "drag saving {:.1}%",
            s.drag_saving_pct()
        );
        assert!(
            s.space_saving_pct() > 10.0,
            "space {:.1}%",
            s.space_saving_pct()
        );
    }

    #[test]
    fn shade_sites_classified_never_used() {
        let w = workload();
        let program = w.original();
        let run = profile(&program, &(w.default_input)(), VmConfig::profiling()).unwrap();
        let report =
            heapdrag_core::DragAnalyzer::new().analyze(&run.records, |c| run.sites.innermost(c));
        let shade_sites: Vec<_> = report
            .by_nested_site
            .iter()
            .filter(|e| {
                run.sites
                    .format_chain(&program, e.site)
                    .contains("never-used Shade")
            })
            .collect();
        assert_eq!(shade_sites.len(), 2, "two distinct shade sites");
        for site in shade_sites {
            assert_eq!(
                site.stats.pattern,
                heapdrag_core::LifetimePattern::AllNeverUsed,
                "§3.4 pattern 1 at each site"
            );
        }
    }
}
